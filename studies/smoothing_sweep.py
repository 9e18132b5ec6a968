"""Choose sfr's smoothing floor, ``SolverConfig.smoothing_eps``, on held-out seeds.

    PYTHONPATH=src python studies/smoothing_sweep.py           # the whole grid, about 10 CPU-minutes
    PYTHONPATH=src python studies/smoothing_sweep.py --quick   # one seed per shape, 1e-6 and the default

The paper fixes the l_{1/2} norm; the floor eps of its smoothed surrogate is
the implementation's choice. This study sweeps it over ``EPS`` on two
tent-ring shapes, ring120 ``tent_ring_dataset(seed, 120, 40, 0.55)`` and
ring400 ``(seed, 400, 200, 0.3)``, at generator seeds 2025-2043 crossed with
split seeds 1-3 (split 0.8, graph threshold 0.9, ``min_support`` 3, every
user). Seed 2024, which the golden files, criterion 7 and the benchmark use,
never takes part in the choice.

Each cell is one shape, generator seed, split seed and eps: the bound RMSE
of knn, hcp and sfr; the users whose sfr estimates equal hcp's bit for bit
(the warm start came back); sfr's mean iterations and the seconds of its
``evaluate``. Per eps the study also gives criterion 3's worst error on the
ladder, against its 1e-2 bound, and the sources it flags.

The rule, fixed before the first run: an eps is admissible when the
acceptance criteria that read it pass with their bounds unchanged -
criterion 3 (every ladder rating within 1e-2, sources {v1, v26}), criterion
7's synthetic gate (kNN > HCP > SFR, a gain of at least 20%) and the seed
panel (SFR < HCP < kNN at ring120 seeds 2025-2034, split seed 1).
Criterion 6's warm-start dominance holds at any eps by construction and is
checked by the Tier-1 run at the shipped default. Of the admissible eps
whose sfr bound RMSE is below 1e-6's at every cell of both shapes, the one
with the lowest median over those cells is chosen; if none qualifies, 1e-6
stays. With ``--quick`` the rule runs on the few cells made and decides
nothing; it only keeps the script running.

Standard output is the cells as TSV, then two Markdown tables - one row
per eps, and each method's bound RMSE and its ratio to knn's at 1e-6 and
at the default - and the rule's outcome. Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import io
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from rategraph import (
    SolverConfig,
    build_item_graph,
    evaluate,
    ladder_toy_26,
    predict_sfr,
    second_derivative,
    sources,
    split_ratings,
)
from rategraph.synthetic import tent_ring_dataset

EPS = (1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2)
BASELINE = 1e-6
SHAPES = {"ring120": (120, 40, 0.55), "ring400": (400, 200, 0.3)}
SEEDS = range(2025, 2044)
SPLIT_SEEDS = (1, 2, 3)
# tests/test_acceptance.py::TestSeedPanel's datasets: ring120 shape, split seed 1
PANEL = {("ring120", seed, 1) for seed in range(2025, 2035)}
BOUNDS = (1.0, 5.0)
LADDER_BOUND = 1e-2


def ladder(eps: float) -> tuple[float, set[str]]:
    """Criterion 3 at ``eps``: the worst error over the ladder's unobserved ratings, and the sources flagged."""
    fix = ladder_toy_26()
    rec = predict_sfr(fix.graph, fix.observed, fix.graph.items, SolverConfig(bounds=fix.bounds, smoothing_eps=eps))
    worst = max(abs(rec.estimates[n] - fix.ground_truth[n]) for n in fix.graph.items if n not in fix.observed)
    full = np.array([rec.estimates[n] for n in fix.graph.items])
    return worst, {fix.graph.items[i] for i in sources(second_derivative(fix.graph, full), eps)}


def criterion7(eps: float) -> float:
    """Criterion 7's synthetic line at ``eps``: sfr's gain on knn, or NaN when kNN > HCP > SFR fails."""
    split = split_ratings(tent_ring_dataset(2024), 0.8, seed=1)
    graph = build_item_graph(split.train, threshold=0.9)
    rmse = evaluate(["knn", "hcp", "sfr"], split, graph, SolverConfig(bounds=BOUNDS, smoothing_eps=eps)).rmse
    knn, hcp, sfr = (rmse[m]["all"] for m in ("knn", "hcp", "sfr"))
    return 1 - sfr / knn if knn > hcp > sfr else float("nan")


def predictions(dump: str, method: str) -> dict[str, dict[str, str]]:
    """Each user's estimates from an ``evaluate`` prediction dump, as the written strings, by item."""
    out: dict[str, dict[str, str]] = defaultdict(dict)
    for line in dump.splitlines():
        user, item, est, m, _ = line.split(",")
        if m == method:
            out[user][item] = est
    return out


def cells(shape: str, seed: int, split_seed: int, eps_values):
    """One row per eps for one dataset; knn and hcp do not read eps, so they run once."""
    split = split_ratings(tent_ring_dataset(seed, *SHAPES[shape]), 0.8, seed=split_seed)
    graph = build_item_graph(split.train, threshold=0.9, min_support=3)
    dump = io.StringIO()
    base = evaluate(["knn", "hcp"], split, graph, SolverConfig(bounds=BOUNDS), predictions_out=dump)
    hcp = predictions(dump.getvalue(), "hcp")
    for eps in eps_values:
        dump = io.StringIO()
        t0 = time.perf_counter()
        report = evaluate(["sfr"], split, graph, SolverConfig(bounds=BOUNDS, smoothing_eps=eps), predictions_out=dump)
        seconds = time.perf_counter() - t0
        sfr = predictions(dump.getvalue(), "sfr")
        yield {
            "shape": shape, "seed": seed, "split_seed": split_seed, "eps": eps,
            "knn": base.rmse["knn"]["all"], "hcp": base.rmse["hcp"]["all"], "sfr": report.rmse["sfr"]["all"],
            "returns": sum(sfr[user] == hcp[user] for user in sfr), "users": len(sfr),
            "iterations": report.solver_stats["sfr"]["mean_iterations"], "seconds": seconds,
        }


def spread(values) -> str:
    return f"{statistics.median(values):.4f} ({min(values):.4f}-{max(values):.4f})"


def summarize(rows: list[dict], eps_values, default: float, quick: bool) -> None:
    """Print the per-eps table, the per-method table at 1e-6 and the default, and the rule's outcome."""
    by_eps = defaultdict(dict)
    for r in rows:
        by_eps[r["eps"]][r["shape"], r["seed"], r["split_seed"]] = r
    baseline = {d: r["sfr"] for d, r in by_eps[BASELINE].items()}
    summary = {}
    for eps in eps_values:
        worst, flagged = ladder(eps)
        gain = criterion7(eps)
        mine = by_eps[eps]
        panel = all(mine[d]["sfr"] < mine[d]["hcp"] < mine[d]["knn"] for d in PANEL if d in mine)
        summary[eps] = {
            "worst": worst, "flagged": flagged, "gain": gain, "panel": panel,
            "admissible": worst <= LADDER_BOUND and flagged == {"v1", "v26"} and gain >= 0.2 and panel,
            "below": sum(r["sfr"] < baseline[d] for d, r in mine.items()),
            "median": statistics.median(r["sfr"] for r in mine.values()),
        }

    n_cells = len(baseline)
    print(f"\n| eps | criterion 3 worst error (sources) | criterion 7 gain | seed panel | admissible "
          f"| cells below 1e-6 (of {n_cells}) | sfr median, all cells | "
          + " | ".join(f"{shape}: sfr median (min-max)" for shape in SHAPES)
          + " | warm starts returned | mean iterations | sfr seconds |")
    print("|---" * (7 + len(SHAPES) + 3) + "|")
    for eps, s in summary.items():
        per_shape = {shape: [r for d, r in by_eps[eps].items() if d[0] == shape] for shape in SHAPES}
        cols = [f"{eps:g}", f"{s['worst']:.1e} ({len(s['flagged'])})",
                "fails" if math.isnan(s["gain"]) else f"{s['gain']:.1%}",
                "holds" if s["panel"] else "fails", "yes" if s["admissible"] else "no", str(s["below"]),
                f"{s['median']:.4f}"]
        cols += [spread([r["sfr"] for r in mine]) for mine in per_shape.values()]
        cols += [" / ".join(f"{sum(r['returns'] for r in mine) / sum(r['users'] for r in mine):.1%}"
                            for mine in per_shape.values()),
                 " / ".join(f"{statistics.mean(r['iterations'] for r in mine):.0f}" for mine in per_shape.values()),
                 " / ".join(f"{sum(r['seconds'] for r in mine):.1f}" for mine in per_shape.values())]
        print("| " + " | ".join(cols) + " |")
    print(f"\nThe last three columns read {' / '.join(SHAPES)}: the share of the users sfr scored, over every "
          f"cell, whose warm start came back; the mean over the cells of each cell's mean iterations; and the "
          f"seconds of sfr's evaluate calls, summed over the cells, from this one run.")

    print("\n| shape | method | bound RMSE median (min-max) | RMSE / knn's, median (min-max) | below knn |")
    print("|---|---|---|---|---|")
    for shape in SHAPES:
        datasets = [d for d in baseline if d[0] == shape]
        knn = {d: by_eps[BASELINE][d]["knn"] for d in datasets}
        columns = [("knn", BASELINE, "knn"), ("hcp", BASELINE, "hcp")]
        columns += [(f"sfr at {eps:g}", eps, "sfr") for eps in sorted({BASELINE, default}) if eps in by_eps]
        for label, eps, method in columns:
            values = {d: by_eps[eps][d][method] for d in datasets}
            versus = "- | -" if method == "knn" else (f"{spread([values[d] / knn[d] for d in datasets])} | "
                                                      f"{sum(values[d] < knn[d] for d in datasets)}/{len(datasets)}")
            print(f"| {shape} | {label} | {spread(list(values.values()))} | {versus} |")

    qualifying = [eps for eps, s in summary.items() if eps != BASELINE and s["admissible"] and s["below"] == n_cells]
    chosen = min(qualifying, key=lambda eps: summary[eps]["median"]) if qualifying else BASELINE
    print(f"\nqualifying (admissible, sfr below 1e-6's at all {n_cells} cells): "
          f"{', '.join(f'{eps:g}' for eps in qualifying) or 'none'}; the rule picks {chosen:g}"
          f"{' (quick run: nothing is decided)' if quick else ''}; the default is {default:g}")


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="one seed per shape, 1e-6 and the default only")
    args = ap.parse_args(argv)
    default = SolverConfig.smoothing_eps
    eps_values = sorted({BASELINE, default}) if args.quick else EPS
    datasets = [(shape, seed, split_seed) for shape in SHAPES
                for seed in (SEEDS[:1] if args.quick else SEEDS)
                for split_seed in (SPLIT_SEEDS[:1] if args.quick else SPLIT_SEEDS)]

    rows = []
    columns = ("shape", "seed", "split_seed", "eps", "knn", "hcp", "sfr", "returns", "users", "iterations", "seconds")
    print("\t".join(columns))
    for k, dataset in enumerate(datasets, 1):
        print(f"[{k}/{len(datasets)}] {' '.join(map(str, dataset))}", file=sys.stderr, flush=True)
        for row in cells(*dataset, eps_values):
            rows.append(row)
            print("\t".join(format(row[c], ".4f") if c == "seconds" else str(row[c]) for c in columns), flush=True)
    summarize(rows, eps_values, default, args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
