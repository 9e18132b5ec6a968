"""Experiment front end: graph building, evaluation, prediction dumps, the
assumption exam, and the toy demonstrations, all driven by one flat
key=value config file with one-to-one flag overrides.

Heavy outputs (graph TSV, report JSON, plot TSVs, prediction dumps) go to
files under the configured output directory; standard output carries only
human-readable tables, and stage failures abort with a labeled message and
a nonzero exit status.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import data as data_mod
from . import evaluation as eval_mod
from .data import RatingMatrix, Split, ToyFixture, ladder_toy_26, parse_ratings, split_ratings, square_toy
from .estimators import ConvergenceError, SolverConfig, predict_hcp, predict_knn, predict_sfr
from .graph import ItemGraph, build_item_graph, second_derivative, serialize_graph

__all__ = ["ExperimentConfig", "main"]


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, serializable to key=value text."""

    dataset: str = ""
    format: str = "movielens_dat"
    c_low: float = 1.0
    c_high: float = 5.0
    threshold: float = 0.5
    min_support: int = 3
    fraction: float = 0.8
    seed: int = 0
    # solver settings, with SolverConfig's defaults
    p: float = SolverConfig.p
    smoothing_eps: float = SolverConfig.smoothing_eps
    max_iterations: int = SolverConfig.max_iterations
    objective_rel_tol: float = SolverConfig.objective_rel_tol
    source_tolerance: float = SolverConfig.source_tolerance
    methods: str = "knn,hcp,sfr"
    output_dir: str = "out"
    jobs: int = 1
    toy: str = ""
    coverage: float = 0.9
    min_neighbor_ratings: int = 5

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        cfg = cls()
        types = {f.name: f.type for f in fields(cls)}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in types:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                current = getattr(cfg, key)
                if isinstance(current, (int, float)):
                    kind = type(current)
                    try:
                        value = kind(value)
                    except ValueError:
                        noun = "an int" if kind is int else "a float"
                        raise ValueError(f"{path}:{lineno}: {key} expects {noun}, got {value!r}") from None
                setattr(cfg, key, value)
        return cfg

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for f in fields(self):
                fh.write(f"{f.name}={getattr(self, f.name)}\n")

    def solver_config(self) -> SolverConfig:
        own = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(SolverConfig) if f.name in own}
        return SolverConfig(bounds=(self.c_low, self.c_high), **shared)

    def method_list(self) -> list[str]:
        return [m.strip() for m in self.methods.split(",") if m.strip()]


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for f in fields(ExperimentConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            setattr(cfg, f.name, override)
    return cfg


def _parse_dataset(cfg: ExperimentConfig) -> RatingMatrix:
    if not cfg.dataset:
        raise ValueError("no dataset configured (set dataset= or pass --dataset)")
    with open(cfg.dataset, encoding="utf-8") as fh:
        return parse_ratings(fh, cfg.format, (cfg.c_low, cfg.c_high))


def _toy_fixture(name: str) -> ToyFixture:
    if name == "square":
        return square_toy()
    if name == "ladder26":
        return ladder_toy_26()
    raise ValueError(f"unknown toy {name!r} (choose square or ladder26)")


def _toy_split(fix: ToyFixture) -> tuple[Split, ItemGraph]:
    """Wrap a toy fixture as a single-user train/test split over its graph."""
    train = RatingMatrix.from_ids(
        fix.bounds, ["u1"] * len(fix.observed), list(fix.observed), list(fix.observed.values())
    )
    if fix.ground_truth is None:
        raise ValueError("toy fixture has no ground truth to test against")
    test = [
        data_mod.RatingRecord("u1", item, rating)
        for item, rating in fix.ground_truth.items()
        if item not in fix.observed
    ]
    split = Split(train=train, test=test, fraction=0.8, seed=0)
    return split, fix.graph


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _print_rmse_table(report: eval_mod.EvaluationReport, methods: Sequence[str]) -> None:
    label = {"knn": "kNN", "hcp": "HCP", "sfr": "SFR"}
    head = "".join(f"{label.get(m, m):>10}" for m in methods)
    print(f"{'':<8}{head}")
    for row, key in (("All", "all"), ("Higher", "higher"), ("Lower", "lower")):
        cells = []
        for m in methods:
            val = report.rmse[m][key]
            cells.append(f"{val:>10.3f}" if val is not None else f"{'-':>10}")
        print(f"{row:<8}{''.join(cells)}")


# -- subcommands -----------------------------------------------------------------


def cmd_build_graph(cfg: ExperimentConfig) -> int:
    matrix = _parse_dataset(cfg)
    graph = build_item_graph(matrix, cfg.threshold, cfg.min_support)
    out = Path(cfg.output_dir) / "graph.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        serialize_graph(graph, fh)
    isolated = int(np.sum(graph.degree == 0))
    print(
        f"nodes={graph.item_count} edges={graph.edge_count} isolated={isolated}",
        file=sys.stderr,
    )
    return 0


def cmd_evaluate(cfg: ExperimentConfig) -> int:
    if cfg.toy:
        split, graph = _toy_split(_toy_fixture(cfg.toy))
        cfg = replace(cfg, c_low=split.train.bounds[0], c_high=split.train.bounds[1])
    else:
        matrix = _parse_dataset(cfg)
        split = split_ratings(matrix, cfg.fraction, cfg.seed)
        graph = build_item_graph(split.train, cfg.threshold, cfg.min_support)
    methods = cfg.method_list()
    report = eval_mod.evaluate(methods, split, graph, cfg.solver_config(), jobs=cfg.jobs)
    out_dir = Path(cfg.output_dir)
    _write(out_dir / "report.json", report.to_json())
    _write(out_dir / "rmse.tsv", report.rmse_tsv())
    manifest = io.StringIO()
    data_mod.write_test_manifest(split.test, manifest)
    _write(out_dir / "test_manifest.csv", manifest.getvalue())
    _print_rmse_table(report, methods)
    return 0


def cmd_predict(cfg: ExperimentConfig) -> int:
    matrix = _parse_dataset(cfg)
    split = split_ratings(matrix, cfg.fraction, cfg.seed)
    graph = build_item_graph(split.train, cfg.threshold, cfg.min_support)
    methods = cfg.method_list()
    out_dir = Path(cfg.output_dir)
    dump = io.StringIO()
    eval_mod.evaluate(methods, split, graph, cfg.solver_config(), jobs=cfg.jobs, predictions_out=dump)
    _write(out_dir / "predictions.csv", dump.getvalue())
    print(f"wrote {out_dir / 'predictions.csv'}")
    return 0


def cmd_examine(cfg: ExperimentConfig) -> int:
    matrix = _parse_dataset(cfg)
    graph = build_item_graph(matrix, cfg.threshold, cfg.min_support)
    hist = eval_mod.examine_linearity(matrix, graph, cfg.coverage, cfg.min_neighbor_ratings)
    _write(Path(cfg.output_dir) / "second_derivative_hist.tsv", hist.to_tsv())
    print(f"samples={hist.n_samples}")
    return 0


def cmd_toy(cfg: ExperimentConfig, which: str, method: str) -> int:
    fix = _toy_fixture(which)
    graph = fix.graph
    targets = set(graph.items)
    solver = replace(cfg, c_low=fix.bounds[0], c_high=fix.bounds[1]).solver_config()
    if method == "knn":
        rec = predict_knn(graph, fix.observed, targets)
    elif method == "hcp":
        rec = predict_hcp(graph, fix.observed, targets)
    else:
        rec = predict_sfr(graph, fix.observed, targets, solver)

    full = np.full(graph.item_count, np.nan)
    for name, val in rec.estimates.items():
        full[graph.item_index[name]] = val
    have_all = np.all(np.isfinite(full[graph.degree > 0]))
    field = second_derivative(graph, full, solver.source_tolerance) if have_all else None
    src = set(field.sources()) if field is not None else set()

    print(f"{'item':<6}{'truth':>8}{'observed':>10}{'estimate':>10}{'grad2':>10}  source")
    for i, name in enumerate(graph.items):
        truth = fix.ground_truth.get(name) if fix.ground_truth else None
        t = f"{truth:.2f}" if truth is not None else "-"
        obs = "yes" if name in fix.observed else "-"
        est = rec.estimates.get(name)
        e = f"{est:.2f}" if est is not None else "?"
        g2 = f"{field.values[i]:.3f}" if field is not None and not np.isnan(field.values[i]) else "-"
        flag = "*" if i in src else "-"
        print(f"{name:<6}{t:>8}{obs:>10}{e:>10}{g2:>10}  {flag}")
    if rec.abstentions:
        print(f"abstained: {', '.join(sorted(rec.abstentions))}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rategraph",
        description="Rating recovery experiments on item-item similarity graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, names: Optional[set[str]] = None) -> None:
        p.add_argument("--config", help="key=value config file")
        for f in fields(ExperimentConfig):
            if names is not None and f.name not in names:
                continue
            if f.type in ("int", int):
                p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=int)
            elif f.type in ("float", float):
                p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=float)
            else:
                p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name)

    for name in ("build-graph", "evaluate", "predict", "examine"):
        add_common(sub.add_parser(name))
    toy_parser = sub.add_parser("toy")
    toy_parser.add_argument("which", choices=["square", "ladder26"])
    toy_parser.add_argument("method", choices=["knn", "hcp", "sfr"])
    # the toy brings its own data and bounds and writes no files, so it takes
    # only the solver settings; argparse rejects any other flag
    add_common(toy_parser, {f.name for f in fields(SolverConfig)} - {"bounds"})

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "build-graph":
            status = cmd_build_graph(cfg)
        elif args.command == "evaluate":
            status = cmd_evaluate(cfg)
        elif args.command == "predict":
            status = cmd_predict(cfg)
        elif args.command == "examine":
            status = cmd_examine(cfg)
        else:
            status = cmd_toy(cfg, args.which, args.method)
        # a reader that closed stdout fails the flush here rather than at exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader of stdout is gone (``| head``): as the signal module's
        # docs advise, point stdout at devnull so that the flush at exit
        # cannot fail again, and exit 1 without a message
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, ValueError, KeyError, ConvergenceError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
