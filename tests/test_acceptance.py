"""Acceptance gate: one test per criterion, each printing a pass line.

Criteria 7 and 8 need the MovieLens 1M ratings file, which is not shipped
here; point RATEGRAPH_ML1M at ratings.dat (or place it under
data/ml-1m/ratings.dat) to run them. Without it they are reported as
skipped, and a seeded synthetic experiment with the same pathology keeps
the end-to-end path exercised.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rategraph import (
    SolverConfig,
    build_item_graph,
    evaluate,
    examine_linearity,
    l0_oracle,
    parse_ratings,
    predict_hcp,
    predict_knn,
    predict_sfr,
    second_derivative,
    split_ratings,
)
from rategraph.synthetic import tent_ring_dataset
from tests.conftest import analytic_gradient, random_connected_graph, random_observed, record_acceptance

REPO_ROOT = Path(__file__).resolve().parents[1]


def _announce(criterion: str, message: str) -> None:
    record_acceptance(f"criterion {criterion}: {message}")


def _ml1m_path():
    env = os.environ.get("RATEGRAPH_ML1M")
    candidates = []
    if env:
        p = Path(env)
        candidates += [p, p / "ratings.dat", p / "ml-1m" / "ratings.dat"]
    candidates.append(REPO_ROOT / "data" / "ml-1m" / "ratings.dat")
    for c in candidates:
        if c.is_file():
            return c
    return None


def _jobs() -> int:
    return int(os.environ.get("RATEGRAPH_JOBS", "8"))


# -- toy fixtures ------------------------------------------------------------------


class TestCriterion1SquareHcp:
    def test_square_hcp_exact_thirds(self, square):
        predict_hcp(square.graph, square.observed, {"B", "D"})  # warm caches
        elapsed = []
        for _ in range(7):
            t0 = time.perf_counter()
            rec = predict_hcp(square.graph, square.observed, {"B", "D"})
            elapsed.append(time.perf_counter() - t0)
        assert rec.estimates["B"] == pytest.approx(13 / 3, abs=1e-9)
        assert rec.estimates["D"] == pytest.approx(11 / 3, abs=1e-9)
        assert min(elapsed) < 1e-3
        _announce("1", f"PASS - square HCP gives 13/3, 11/3 within 1e-9 in {min(elapsed)*1e6:.0f}us")


class TestCriterion2LadderHcp:
    # one-decimal harmonic values of the fixture
    EXPECTED = {
        "v1": 4.4, "v2": 4.2, "v3": 4.6, "v4": 4.6, "v5": 4.2,
        "v7": 4.8, "v8": 4.8, "v10": 5.0, "v13": 5.0, "v14": 6.0,
        "v17": 6.0, "v19": 6.2, "v20": 6.2, "v22": 6.8, "v23": 6.4,
        "v24": 6.4, "v25": 6.8, "v26": 6.6,
    }

    def test_ladder_hcp_matches_expected_values(self, ladder):
        predict_hcp(ladder.graph, ladder.observed, set(self.EXPECTED))  # warm caches
        elapsed = []
        for _ in range(7):
            t0 = time.perf_counter()
            rec = predict_hcp(ladder.graph, ladder.observed, set(self.EXPECTED))
            elapsed.append(time.perf_counter() - t0)
        for name, expected in self.EXPECTED.items():
            assert rec.estimates[name] == pytest.approx(expected, abs=0.05), name
        assert min(elapsed) < 1e-2
        _announce("2", f"PASS - ladder HCP matches all 18 one-decimal values within 0.05 in {min(elapsed)*1e3:.2f}ms")


class TestCriterion3LadderSfr:
    def test_ladder_sfr_recovers_ground_truth(self, ladder):
        cfg = SolverConfig(bounds=ladder.bounds)
        t0 = time.perf_counter()
        rec = predict_sfr(ladder.graph, ladder.observed, set(ladder.graph.items), cfg)
        elapsed = time.perf_counter() - t0
        unobserved = [n for n in ladder.graph.items if n not in ladder.observed]
        assert len(unobserved) == 18
        for name in unobserved:
            assert rec.estimates[name] == pytest.approx(
                ladder.ground_truth[name], abs=1e-2
            ), name
        # the headline claim: both recovered extremes lie outside [4, 7]
        assert rec.estimates["v1"] == pytest.approx(2.0, abs=1e-2)
        assert rec.estimates["v26"] == pytest.approx(9.0, abs=1e-2)
        full = np.array([rec.estimates[n] for n in ladder.graph.items])
        field = second_derivative(ladder.graph, full, source_tolerance=1e-3)
        flagged = {ladder.graph.items[i] for i in field.sources()}
        assert flagged == {"v1", "v26"}
        assert rec.diagnostics.source_count == 2
        assert elapsed < 5.0
        _announce("3", f"PASS - ladder SFR recovers all 18 ratings within 1e-2, sources {{v1,v26}}, {elapsed:.2f}s")


class TestCriterion4LadderOracle:
    def test_exhaustive_search_finds_two_sources(self, ladder):
        t0 = time.perf_counter()
        res = l0_oracle(ladder.graph, ladder.observed, ladder.bounds, max_sources=2)
        elapsed = time.perf_counter() - t0
        assert res.min_source_count == 2
        match = [s for s in res.solutions if s.sources == frozenset({"v1", "v26"})]
        assert match
        sol = match[0]
        assert sol.residual < 1e-8
        for name, truth in ladder.ground_truth.items():
            assert sol.values[name] == pytest.approx(truth, abs=1e-6)
        assert elapsed < 10.0
        _announce("4", f"PASS - oracle minimum is 2 sources incl. {{v1,v26}} ground truth, {elapsed:.2f}s")


# -- randomized invariants ------------------------------------------------------------


def _smoothed_sum(graph, values, config):
    f = second_derivative(graph, values)
    s = f.values[~np.isnan(f.values)]
    eps, p = config.smoothing_eps, config.p
    return float(np.sum((s * s + eps * eps) ** (p / 2) - eps**p))


class TestCriterion5GradientCheck:
    def test_hundred_seeded_instances(self):
        worst = 0.0
        checked = 0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            n = int(rng.integers(4, 21))
            g = random_connected_graph(rng, n)
            observed = random_observed(rng, g)
            free = [nm for nm in g.items if nm not in observed]
            if not free:
                continue
            cfg = SolverConfig(bounds=(1, 5))
            r = rng.uniform(1, 5, n)
            analytic = analytic_gradient(g, r, free, cfg)
            idx = sorted(g.item_index[nm] for nm in free)
            fd = np.empty(len(idx))
            for k, i in enumerate(idx):
                up, down = r.copy(), r.copy()
                up[i] += 1e-6
                down[i] -= 1e-6
                fd[k] = (_smoothed_sum(g, up, cfg) - _smoothed_sum(g, down, cfg)) / 2e-6
            rel = np.abs(analytic - fd) / np.maximum.reduce(
                [np.abs(analytic), np.abs(fd), np.full_like(fd, 1e-8)]
            )
            assert rel.max() < 1e-4, f"seed {seed}"
            worst = max(worst, float(rel.max()))
            checked += 1
        assert checked == 100
        _announce("5", f"PASS - analytic gradient matches FD on 100 instances, worst rel err {worst:.2e}")


def _maybe_disconnected_graph(rng):
    """Connected graph, or (30% of the time) a union of two components."""
    if rng.uniform() < 0.3:
        n1, n2 = int(rng.integers(3, 9)), int(rng.integers(2, 8))
        g1 = random_connected_graph(rng, n1)
        g2 = random_connected_graph(rng, n2)
        items = [f"a{k}" for k in range(n1)] + [f"b{k}" for k in range(n2)]
        edges = [(f"a{i}", f"a{j}", w) for i, j, w in g1.edges()]
        edges += [(f"b{i}", f"b{j}", w) for i, j, w in g2.edges()]
        from rategraph import ItemGraph

        return ItemGraph.from_edges(items, edges)
    return random_connected_graph(rng, int(rng.integers(3, 16)))


class TestCriterion6BoundInvariants:
    def test_thousand_seeded_instances(self):
        cfg = SolverConfig(bounds=(1, 5))
        for seed in range(1000):
            rng = np.random.default_rng(20_000 + seed)
            g = _maybe_disconnected_graph(rng)
            observed = random_observed(rng, g)
            labels = g.component_labels()

            # (a) every kNN estimate stays inside its observed-neighbor range
            rk = predict_knn(g, observed, set(g.items))
            for name, est in rk.estimates.items():
                if name in observed:
                    continue
                i = g.item_index[name]
                neigh, _ = g.neighbors(i)
                vals = [observed[g.items[j]] for j in neigh if g.items[j] in observed]
                assert vals and min(vals) - 1e-12 <= est <= max(vals) + 1e-12, f"seed {seed}"

            # (b) every HCP estimate stays inside its component's observed range
            rh = predict_hcp(g, observed, set(g.items))
            comp_vals: dict[int, list[float]] = {}
            for name, val in observed.items():
                comp_vals.setdefault(int(labels[g.item_index[name]]), []).append(val)
            for name, est in rh.estimates.items():
                if name in observed:
                    continue
                comp = int(labels[g.item_index[name]])
                lo, hi = min(comp_vals[comp]), max(comp_vals[comp])
                assert lo - 1e-12 <= est <= hi + 1e-12, f"seed {seed}"

            # (c) SFR never ends above its harmonic warm start
            rs = predict_sfr(g, observed, set(g.items), cfg)
            warm = np.full(g.item_count, np.nan)
            for name, val in rh.estimates.items():
                warm[g.item_index[name]] = val
            solved = np.isfinite(warm)
            warm_field = second_derivative(g, np.where(solved, warm, 0.0))
            mask = solved & (g.degree > 0)
            s = warm_field.values[mask]
            eps, p = cfg.smoothing_eps, cfg.p
            warm_obj = float(np.sum((s * s + eps * eps) ** (p / 2) - eps**p)) ** (1 / p)
            assert rs.diagnostics.final_objective <= warm_obj + 1e-9, f"seed {seed}"
        _announce("6", "PASS - kNN/HCP boundedness and SFR warm-start dominance on 1000 instances")


# -- end-to-end experiments ------------------------------------------------------------


@pytest.fixture(scope="session")
def tent_csv(tmp_path_factory):
    matrix = tent_ring_dataset(2024)
    path = tmp_path_factory.mktemp("tent") / "tent.csv"
    lines = ["user,item,rating"]
    for rec in matrix.records():
        lines.append(f"{rec.user_id},{rec.item_id},{rec.rating!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestCriterion7BoundExperiment:
    def test_synthetic_stand_in(self):
        # not the MovieLens criterion: a seeded dataset with the same
        # pathology, keeping the full pipeline honest when the public
        # dataset is unavailable
        matrix = tent_ring_dataset(2024)
        split = split_ratings(matrix, 0.8, seed=1)
        graph = build_item_graph(split.train, threshold=0.9)
        cfg = SolverConfig(bounds=(1.0, 5.0))
        report = evaluate(["knn", "hcp", "sfr"], split, graph, cfg, jobs=1)
        rmse = report.rmse
        assert report.rmse_counts["knn"]["all"] >= 100
        assert rmse["knn"]["all"] > rmse["hcp"]["all"] > rmse["sfr"]["all"]
        improvement = 1 - rmse["sfr"]["all"] / rmse["knn"]["all"]
        assert improvement >= 0.20
        _announce(
            "7(synthetic)",
            f"PASS - kNN {rmse['knn']['all']:.3f} > HCP {rmse['hcp']['all']:.3f} > "
            f"SFR {rmse['sfr']['all']:.3f}; SFR improves {improvement:.0%} on kNN",
        )

    def test_movielens_1m(self):
        path = _ml1m_path()
        if path is None:
            _announce("7", "SKIP - MovieLens 1M not found (set RATEGRAPH_ML1M)")
            pytest.skip("MovieLens 1M dataset not available")
        t0 = time.perf_counter()
        with open(path, encoding="utf-8", errors="replace") as fh:
            matrix = parse_ratings(fh, "movielens_dat", (1.0, 5.0))
        assert matrix.n_ratings > 900_000
        split = split_ratings(matrix, 0.8, seed=0)
        graph = build_item_graph(split.train, threshold=0.5, min_support=3)
        cfg = SolverConfig(bounds=(1.0, 5.0))
        report = evaluate(["knn", "hcp", "sfr"], split, graph, cfg, jobs=_jobs())
        elapsed = time.perf_counter() - t0
        bound_fraction = report.class_fractions["higher"] + report.class_fractions["lower"]
        assert 0.12 <= bound_fraction <= 0.22
        rmse = report.rmse
        assert rmse["knn"]["all"] > rmse["hcp"]["all"] > rmse["sfr"]["all"]
        improvement = 1 - rmse["sfr"]["all"] / rmse["knn"]["all"]
        assert improvement >= 0.20
        assert elapsed < 7200.0
        _announce(
            "7",
            f"PASS - bound fraction {bound_fraction:.1%}; kNN {rmse['knn']['all']:.3f} > "
            f"HCP {rmse['hcp']['all']:.3f} > SFR {rmse['sfr']['all']:.3f} "
            f"({improvement:.0%} improvement) in {elapsed/60:.0f}min",
        )


class TestCriterion8LinearityExam:
    def test_movielens_modal_zero_bin(self):
        path = _ml1m_path()
        if path is None:
            _announce("8", "SKIP - MovieLens 1M not found (set RATEGRAPH_ML1M)")
            pytest.skip("MovieLens 1M dataset not available")
        with open(path, encoding="utf-8", errors="replace") as fh:
            matrix = parse_ratings(fh, "movielens_dat", (1.0, 5.0))
        graph = build_item_graph(matrix, threshold=0.5, min_support=3)
        hist = examine_linearity(matrix, graph, coverage=0.9, min_neighbor_ratings=5)
        assert hist.n_samples > 0
        z = hist.zero_bin
        counts = hist.counts
        assert counts[z] == counts.max()
        for k in range(1, 5):
            assert counts[z + k] <= counts[z + k - 1]
            assert counts[z - k] <= counts[z - (k - 1)]
        _announce("8", f"PASS - zero bin modal ({counts[z]} of {hist.n_samples}), decay holds 4 bins out")


class TestCriterion9Determinism:
    @staticmethod
    def _run_cli(args, cwd):
        # the child runs in a temporary directory, where a relative
        # PYTHONPATH entry such as "src" resolves nowhere; put this
        # checkout's src/ first so the child imports the code under test
        pythonpath = [str(REPO_ROOT / "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        proc = subprocess.run(
            [sys.executable, "-m", "rategraph.cli", *args],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_reports_bit_identical_across_runs_and_jobs(self, tmp_path, tent_csv):
        outputs = {}
        for tag, jobs in (("r1", "1"), ("r2", "1"), ("r8", "8")):
            out = tmp_path / f"toy_{tag}"
            self._run_cli(
                ["evaluate", "--toy", "ladder26", "--jobs", jobs, "--output-dir", str(out)],
                cwd=tmp_path,
            )
            outputs[tag] = (out / "report.json").read_bytes() + (out / "rmse.tsv").read_bytes()
        assert outputs["r1"] == outputs["r2"] == outputs["r8"]

        dataset_args = [
            "--dataset", str(tent_csv), "--format", "csv", "--threshold", "0.9",
            "--seed", "1", "--c-low", "1", "--c-high", "5",
        ]
        outputs = {}
        for tag, jobs in (("r1", "1"), ("r2", "1"), ("r8", "8")):
            out = tmp_path / f"synth_{tag}"
            self._run_cli(
                ["evaluate", *dataset_args, "--jobs", jobs, "--output-dir", str(out)],
                cwd=tmp_path,
            )
            outputs[tag] = (out / "report.json").read_bytes() + (out / "rmse.tsv").read_bytes()
        assert outputs["r1"] == outputs["r2"] == outputs["r8"]

        for tag in ("g1", "g2"):
            out = tmp_path / f"graph_{tag}"
            self._run_cli(
                ["build-graph", *dataset_args, "--output-dir", str(out)], cwd=tmp_path
            )
        assert (tmp_path / "graph_g1" / "graph.tsv").read_bytes() == (
            tmp_path / "graph_g2" / "graph.tsv"
        ).read_bytes()

        for tag in ("e1", "e2"):
            out = tmp_path / f"exam_{tag}"
            self._run_cli(
                ["examine", *dataset_args, "--output-dir", str(out)], cwd=tmp_path
            )
        assert (tmp_path / "exam_e1" / "second_derivative_hist.tsv").read_bytes() == (
            tmp_path / "exam_e2" / "second_derivative_hist.tsv"
        ).read_bytes()

        _announce("9", "PASS - toy/synthetic reports byte-identical across reruns and --jobs 1/8")
