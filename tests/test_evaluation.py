import concurrent.futures
import functools
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rategraph import (
    BoundClass,
    ConvergenceError,
    ItemGraph,
    RatingMatrix,
    RatingRecord,
    SolverConfig,
    Split,
    UnknownItemError,
    build_item_graph,
    classify_bound,
    evaluate,
    examine_linearity,
    ladder_toy_26,
    predict_knn,
    predict_hcp,
    split_ratings,
)
from rategraph import evaluation
from rategraph.evaluation import _on_graph
from rategraph.graph import CsrArrays, _apply
from rategraph.synthetic import tent_ring_dataset
from tests.conftest import graph_with_gaps, random_rating_matrix


def _line_graph(names):
    edges = [(a, b, 1.0) for a, b in zip(names, names[1:])]
    return ItemGraph.from_edges(names, edges)


def _train(rows, bounds=(1, 5)):
    users, items, ratings = zip(*rows)
    return RatingMatrix.from_ids(bounds, users, items, ratings)


class TestClassifyBound:
    @pytest.fixture
    def setup(self):
        graph = _line_graph(["x", "y", "z"])
        train = _train([("u", "x", 3.0), ("u", "z", 4.0), ("v", "x", 2.0)])
        return graph, train

    def test_higher(self, setup):
        graph, train = setup
        rec = RatingRecord("u", "y", 5.0)
        assert classify_bound(rec, train, graph) is BoundClass.HIGHER

    def test_lower(self, setup):
        graph, train = setup
        rec = RatingRecord("u", "y", 2.0)
        assert classify_bound(rec, train, graph) is BoundClass.LOWER

    def test_tie_with_min_is_neither(self, setup):
        graph, train = setup
        rec = RatingRecord("u", "y", 3.0)
        assert classify_bound(rec, train, graph) is BoundClass.NEITHER

    def test_between_is_neither(self, setup):
        graph, train = setup
        rec = RatingRecord("u", "y", 3.5)
        assert classify_bound(rec, train, graph) is BoundClass.NEITHER

    def test_no_rated_neighbors_unclassifiable(self, setup):
        graph, train = setup
        # user v rated only x, which is not a neighbor of z
        rec = RatingRecord("v", "z", 4.0)
        assert classify_bound(rec, train, graph) is BoundClass.UNCLASSIFIABLE

    def test_unknown_user_unclassifiable(self, setup):
        graph, train = setup
        rec = RatingRecord("ghost", "y", 4.0)
        assert classify_bound(rec, train, graph) is BoundClass.UNCLASSIFIABLE

    def test_unknown_item_raises(self, setup):
        graph, train = setup
        with pytest.raises(UnknownItemError):
            classify_bound(RatingRecord("u", "w", 4.0), train, graph)

    def test_pure_function_of_record(self, setup):
        graph, train = setup
        records = [
            RatingRecord("u", "y", 5.0),
            RatingRecord("u", "y", 2.0),
            RatingRecord("v", "z", 4.0),
        ]
        forward = [classify_bound(r, train, graph) for r in records]
        backward = [classify_bound(r, train, graph) for r in reversed(records)]
        assert forward == backward[::-1]


def _reference_classify(test_record, train, graph):
    """classify_bound as it read the neighbour ratings before the graph-keyed map: each neighbour's
    graph index goes through its name to the training matrix's index."""
    if test_record.item_id not in graph.item_index:
        raise UnknownItemError(test_record.item_id)
    user = train.user_index.get(test_record.user_id)
    if user is None:
        return BoundClass.UNCLASSIFIABLE
    rated = train.user_ratings(user)
    neigh, _ = graph.neighbors(graph.item_index[test_record.item_id])
    train_items = map(train.item_index.get, map(graph.items.__getitem__, neigh.tolist()))
    neighbor_ratings = [rated[ti] for ti in train_items if ti in rated]
    if not neighbor_ratings:
        return BoundClass.UNCLASSIFIABLE
    if test_record.rating > max(neighbor_ratings):
        return BoundClass.HIGHER
    if test_record.rating < min(neighbor_ratings):
        return BoundClass.LOWER
    return BoundClass.NEITHER


class TestClassifyMatchesReference:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_same_class_or_error(self, seed):
        # the graph lists its items in a shuffled order and the training matrix in the order of its
        # shuffled rows, which also rate two items off the graph; integer ratings tie with a
        # neighbour's max or min, isolated items and sparse users leave neighbourhoods unrated, and
        # "u2" may and "ghost" does have no training ratings
        rng = np.random.default_rng(seed)
        names = [f"g{k}" for k in range(int(rng.integers(1, 9)))]
        edges = [(a, b, float(rng.uniform(0.2, 1.0))) for k, a in enumerate(names) for b in names[k + 1:]
                 if rng.uniform() < 0.4]
        graph = ItemGraph.from_edges([names[k] for k in rng.permutation(len(names))], edges)
        rows = [
            (f"u{u}", name, float(rng.integers(1, 6)))
            for u in range(3) for name in names + ["off0", "off1"]
            if (u, name) == (0, "off0") or rng.uniform() < 0.5
        ]
        train = _train([rows[k] for k in rng.permutation(len(rows))])
        for user in ("u0", "u1", "u2", "ghost"):
            for item in names + ["off0", "nowhere"]:
                for rating in range(7):
                    rec = RatingRecord(user, item, float(rating))
                    try:
                        want = _reference_classify(rec, train, graph)
                    except UnknownItemError as exc:
                        with pytest.raises(UnknownItemError) as got:
                            classify_bound(rec, train, graph)
                        assert got.value.args == exc.args
                        continue
                    assert classify_bound(rec, train, graph) is want


def _toy_ladder_split(mirrored_user=False):
    """The ladder fixture as one user's split; optionally a second user who
    rates every item 10 - r, so that there is more than one task."""
    fix = ladder_toy_26()
    rows = []
    test = []
    users = [("u1", lambda r: r)]
    if mirrored_user:
        users.append(("u2", lambda r: 10.0 - r))
    for user, rate in users:
        rows += [(user, item, rate(rating)) for item, rating in fix.observed.items()]
        test += [
            RatingRecord(user, item, rate(rating))
            for item, rating in fix.ground_truth.items()
            if item not in fix.observed
        ]
    train = RatingMatrix.from_ids(fix.bounds, *zip(*rows))
    return Split(train=train, test=test, fraction=0.8, seed=0), fix


class TestEvaluate:
    def test_sfr_recovers_ladder_rmse_zero(self):
        split, fix = _toy_ladder_split()
        cfg = SolverConfig(bounds=fix.bounds)
        report = evaluate(["knn", "hcp", "sfr"], split, fix.graph, cfg)
        assert report.rmse["sfr"]["all"] == pytest.approx(0.0, abs=5e-3)
        assert report.rmse["knn"]["all"] > report.rmse["hcp"]["all"] > report.rmse["sfr"]["all"]

    def test_single_example_off_by_one(self):
        graph = _line_graph(["x", "y"])
        # u's held-out y=4 exceeds the only rated neighbor (x=3): higher class
        train = _train([("u", "x", 3.0), ("w", "x", 2.0), ("w", "y", 2.0)])
        split = Split(train=train, test=[RatingRecord("u", "y", 4.0)], fraction=0.8, seed=0)
        cfg = SolverConfig(bounds=(1, 5))
        report = evaluate(["knn"], split, graph, cfg)
        # knn predicts y from u's only observed neighbor x=3 -> error 1.0
        assert report.class_counts["higher"] == 1
        assert report.rmse["knn"]["all"] == pytest.approx(1.0)
        assert report.rmse["knn"]["higher"] == pytest.approx(1.0)
        assert report.rmse["knn"]["lower"] is None

    def test_error_contributions_sum_exactly(self):
        rng = np.random.default_rng(8)
        matrix = random_rating_matrix(rng, n_users=25, n_items=12, density=0.5)
        split = split_ratings(matrix, 0.75, seed=1)
        graph = build_item_graph(split.train, threshold=0.2)
        cfg = SolverConfig(bounds=(1, 5))
        report = evaluate(["knn"], split, graph, cfg)
        parts = [
            report.error_contribution[c.value] for c in BoundClass
        ]
        assert sum(parts) == report.error_contribution_total

    def test_knn_underestimates_higher_overestimates_lower(self):
        # the rating bound problem, stated literally on random data
        rng = np.random.default_rng(21)
        matrix = random_rating_matrix(rng, n_users=30, n_items=10, density=0.6)
        split = split_ratings(matrix, 0.7, seed=3)
        graph = build_item_graph(split.train, threshold=0.2)
        train = split.train
        for rec in split.test:
            if rec.item_id not in graph.item_index:
                continue
            cls = classify_bound(rec, train, graph)
            if cls not in (BoundClass.HIGHER, BoundClass.LOWER):
                continue
            user = train.user_index.get(rec.user_id)
            if user is None:
                continue
            observed = {
                train.items[i]: r for i, r in train.user_ratings(user).items()
            }
            pred = predict_knn(graph, observed, {rec.item_id})
            if rec.item_id not in pred.estimates:
                continue
            est = pred.estimates[rec.item_id]
            if cls is BoundClass.HIGHER:
                assert est < rec.rating
            else:
                assert est > rec.rating

    def test_hcp_bounded_by_global_observed_range(self):
        rng = np.random.default_rng(22)
        matrix = random_rating_matrix(rng, n_users=30, n_items=10, density=0.6)
        split = split_ratings(matrix, 0.7, seed=4)
        graph = build_item_graph(split.train, threshold=0.2)
        train = split.train
        checked = 0
        for rec in split.test:
            if rec.item_id not in graph.item_index:
                continue
            user = train.user_index.get(rec.user_id)
            if user is None:
                continue
            observed = {train.items[i]: r for i, r in train.user_ratings(user).items()}
            if not observed:
                continue
            pred = predict_hcp(graph, observed, {rec.item_id})
            if rec.item_id not in pred.estimates or rec.item_id in observed:
                continue
            est = pred.estimates[rec.item_id]
            assert min(observed.values()) - 1e-9 <= est <= max(observed.values()) + 1e-9
            if rec.rating > max(observed.values()):
                assert est < rec.rating
            checked += 1
        assert checked > 0

    def test_fallback_counted_and_flagged(self):
        graph = ItemGraph.from_edges(["x", "y", "lone"], [("x", "y", 1.0)])
        train = _train([("u", "x", 3.0), ("u", "y", 4.0)])
        split = Split(train=train, test=[RatingRecord("u", "lone", 5.0)], fraction=0.8, seed=0)
        cfg = SolverConfig(bounds=(1, 5))
        dump = io.StringIO()
        report = evaluate(["knn"], split, graph, cfg, predictions_out=dump)
        assert report.class_counts["unclassifiable"] == 1
        assert report.fallback_counts["knn"] == 1
        line = dump.getvalue().strip()
        user, item, est, method, is_fb = line.split(",")
        assert (user, item, method, is_fb) == ("u", "lone", "knn", "1")
        assert float(est) == pytest.approx(3.5)  # u's training mean

    def test_user_without_training_ratings(self):
        # "new" has no training map: no record of theirs can be classified, so knn
        # falls back to the global training mean and hcp and sfr score nothing
        graph = _line_graph(["x", "y", "z"])
        train = _train([("u", "x", 3.0), ("u", "y", 4.0), ("w", "z", 1.0)])
        test = [RatingRecord("new", "x", 5.0), RatingRecord("new", "z", 2.0)]
        split = Split(train=train, test=test, fraction=0.8, seed=0)
        dump = io.StringIO()
        report = evaluate(["knn", "hcp", "sfr"], split, graph, SolverConfig(bounds=(1, 5)), predictions_out=dump)
        assert report.class_counts["unclassifiable"] == report.n_classified == 2
        assert report.fallback_counts == {"knn": 2, "hcp": 0, "sfr": 0}
        lines = [line.split(",") for line in dump.getvalue().splitlines()]
        assert [(user, item, method, is_fb) for user, item, _, method, is_fb in lines] == [
            ("new", "x", "knn", "1"), ("new", "z", "knn", "1"),
        ]
        assert [float(est) for _, _, est, _, _ in lines] == [train.global_mean()] * 2

    def test_unknown_items_counted_and_excluded(self):
        graph = _line_graph(["x", "y"])
        train = _train([("u", "x", 3.0), ("u", "y", 3.0)])
        split = Split(
            train=train,
            test=[RatingRecord("u", "offgraph", 4.0)],
            fraction=0.8,
            seed=0,
        )
        cfg = SolverConfig(bounds=(1, 5))
        report = evaluate(["knn"], split, graph, cfg)
        assert report.n_unknown_items == 1
        assert report.n_classified == 0

    def test_predictions_align_with_records(self, monkeypatch):
        # a chain x0..x5, a component y1-y2 and a degree-0 item; u rated x1=2 and x3=4, w rated x1..x3 and y2
        names = ["x0", "x1", "x2", "x3", "x4", "x5"]
        edges = [(a, b, 1.0) for a, b in zip(names, names[1:])] + [("y1", "y2", 1.0)]
        graph = ItemGraph.from_edges(names + ["y1", "y2", "lone"], edges)
        train = _train([("u", "x1", 2.0), ("u", "x3", 4.0), ("w", "x1", 3.0), ("w", "x2", 3.0), ("w", "x3", 3.0),
                        ("w", "y2", 4.0)])
        test = [
            RatingRecord("u", "x4", 5.0),  # higher than x3
            RatingRecord("u", "offgraph", 3.0),
            RatingRecord("u", "x2", 3.0),  # neither
            RatingRecord("u", "y1", 3.0),  # unclassifiable: u rated nothing in y1's component, so knn abstains
            RatingRecord("u", "x0", 1.0),  # lower than x1
            RatingRecord("u", "lone", 4.0),  # unclassifiable: no neighbors, so knn abstains
            RatingRecord("w", "x4", 1.0),  # lower than x3
        ]
        split = Split(train=train, test=test, fraction=0.8, seed=0)
        dumps = set()
        for size in (1, 64):
            monkeypatch.setattr(evaluation, "_BLOCK_USERS", size)
            for jobs in (1, 2):
                dump = io.StringIO()
                report = evaluate(["knn", "hcp", "sfr"], split, graph, SolverConfig(bounds=(1, 5)), jobs=jobs,
                                  predictions_out=dump)
                dumps.add(dump.getvalue())
        assert len(dumps) == 1
        assert report.n_unknown_items == 1
        assert report.class_counts == {"higher": 1, "lower": 2, "neither": 1, "unclassifiable": 2}
        rows = [line.split(",") for line in dumps.pop().splitlines()]
        # knn on every on-graph record, hcp and sfr on bound records only, each in record order
        assert [(user, item, method, fb) for user, item, _, method, fb in rows] == [
            ("u", "x4", "knn", "0"), ("u", "x2", "knn", "0"), ("u", "y1", "knn", "1"), ("u", "x0", "knn", "0"),
            ("u", "lone", "knn", "1"),
            ("u", "x4", "hcp", "0"), ("u", "x0", "hcp", "0"),
            ("u", "x4", "sfr", "0"), ("u", "x0", "sfr", "0"),
            ("w", "x4", "knn", "0"), ("w", "x4", "hcp", "0"), ("w", "x4", "sfr", "0"),
        ]
        # knn averages the rated neighbors; an abstention falls back to u's training mean
        assert [float(est) for _, _, est, _, _ in rows[:5]] == [4.0, 3.0, 3.0, 2.0, 3.0]

    def test_report_identical_across_jobs(self, monkeypatch):
        split, fix = _toy_ladder_split(mirrored_user=True)
        cfg = SolverConfig(bounds=fix.bounds)
        serial = evaluate(["knn", "hcp", "sfr"], split, fix.graph, cfg, jobs=1)
        pools = []

        def recording_pool(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return ProcessPoolExecutor(*args, **kwargs)

        # evaluate imports the pool class from concurrent.futures when jobs > 1
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        # two users make two blocks, and no more workers start than there are blocks
        for jobs in (2, 3):
            pools.clear()
            parallel = evaluate(["knn", "hcp", "sfr"], split, fix.graph, cfg, jobs=jobs)
            assert pools == [2], f"jobs={jobs} must fan the two users out over a pool of two"
            assert serial.to_json() == parallel.to_json()

    def test_reads_each_training_map_once(self, ring_panel, monkeypatch):
        # classification and scoring share one cut of each test user's map
        split, graph = ring_panel
        calls = []
        real = RatingMatrix.user_ratings

        def counting(matrix, user_idx):
            calls.append(user_idx)
            return real(matrix, user_idx)

        monkeypatch.setattr(RatingMatrix, "user_ratings", counting)
        evaluate(["knn", "sfr"], split, graph, SolverConfig(bounds=(1.0, 5.0)))
        index = split.train.user_index
        assert sorted(calls) == sorted(index[user] for user in {rec.user_id for rec in split.test})

    def test_training_item_off_the_graph_is_left_out(self, ring_panel, monkeypatch):
        # the training matrix numbers the extra item first, so no other item keeps its graph index
        split, graph = ring_panel
        train = split.train
        # records with a rated neighbour: knn falls back on the others, and a fallback reads the user's mean
        test = [rec for rec in split.test if classify_bound(rec, train, graph) is not BoundClass.UNCLASSIFIABLE]
        rows = [(user, "off", 5.0) for user in sorted({rec.user_id for rec in test})]
        rows += [(rec.user_id, rec.item_id, rec.rating) for rec in train.records()]
        with_off = Split(RatingMatrix.from_ids(train.bounds, *zip(*rows)), test, split.fraction, split.seed)
        assert "off" not in graph.item_index and with_off.train.item_index["off"] == 0
        observed = []
        real_knn = evaluation.predict_knn

        def recording_knn(g, obs, targets):
            observed.append(obs)
            return real_knn(g, obs, targets)

        monkeypatch.setattr(evaluation, "predict_knn", recording_knn)
        cfg = SolverConfig(bounds=(1.0, 5.0))
        dumps = []
        for s in (Split(train, test, split.fraction, split.seed), with_off):
            out = io.StringIO()
            report = evaluate(["knn", "hcp", "sfr"], s, graph, cfg, predictions_out=out)
            assert report.fallback_counts == {"knn": 0, "hcp": 0, "sfr": 0}
            assert report.rmse_counts["sfr"]["all"] > 0
            dumps.append(out.getvalue())
        assert dumps[0] == dumps[1]
        assert len(observed) == 2 * len({rec.user_id for rec in test})
        assert all("off" not in obs for obs in observed)

    def test_budget_exhaustion_lowers_converged_fraction(self):
        split, fix = _toy_ladder_split(mirrored_user=True)
        cfg = SolverConfig(bounds=fix.bounds, max_iterations=7)
        stats = evaluate(["sfr"], split, fix.graph, cfg).solver_stats["sfr"]
        assert stats["users_solved"] == 2.0
        assert stats["mean_iterations"] == 7.0
        assert stats["converged_fraction"] < 1.0

    def test_rmse_tsv_shape(self):
        split, fix = _toy_ladder_split()
        cfg = SolverConfig(bounds=fix.bounds)
        report = evaluate(["knn"], split, fix.graph, cfg)
        lines = report.rmse_tsv().splitlines()
        assert lines[0] == "method\tbound_class\ttruth_rating\tcount\trmse"
        assert all(len(l.split("\t")) == 5 for l in lines[1:])
        # truth-rating grouping rows exist alongside the aggregates
        assert any(row.split("\t")[2] not in ("all",) for row in lines[1:])

    def test_unknown_method_rejected(self):
        split, fix = _toy_ladder_split()
        # a method listed twice would count each of its records twice
        for methods in (["svd"], ["knn", "knn"]):
            with pytest.raises(ValueError, match="method"):
                evaluate(methods, split, fix.graph, SolverConfig(bounds=fix.bounds))

    def test_empty_method_list_rejected(self):
        # it would write an empty report
        split, fix = _toy_ladder_split()
        with pytest.raises(ValueError, match=r"^no method given \(choose from knn, hcp and sfr\)$"):
            evaluate([], split, fix.graph, SolverConfig(bounds=fix.bounds))

    @pytest.mark.parametrize("jobs", [1.5, 2.0, True, "2", None])
    def test_non_integer_jobs_rejected(self, jobs):
        # a float count used to fail with a TypeError from inside the pool
        split, fix = _toy_ladder_split()
        with pytest.raises(ValueError, match=r"^jobs must be an integer, got "):
            evaluate(["knn"], split, fix.graph, SolverConfig(bounds=fix.bounds), jobs=jobs)

    def test_numpy_integer_jobs_accepted(self):
        split, fix = _toy_ladder_split()
        cfg = SolverConfig(bounds=fix.bounds)
        want = evaluate(["knn", "hcp"], split, fix.graph, cfg).to_json()
        assert evaluate(["knn", "hcp"], split, fix.graph, cfg, jobs=np.int64(1)).to_json() == want

    def test_solver_bounds_other_than_the_ratings_rejected(self, ring_panel):
        # sfr would keep its estimates in the wrong box and report a plausible RMSE
        split, graph = ring_panel
        message = r"^solver bounds \(-3, 9\) differ from the ratings' bounds \(1\.0, 5\.0\)$"
        with pytest.raises(ValueError, match=message):
            evaluate(["sfr"], split, graph, SolverConfig(bounds=(-3, 9)))
        # the same box written as ints is the same box
        want = evaluate(["knn"], split, graph, SolverConfig(bounds=(1.0, 5.0))).to_json()
        assert evaluate(["knn"], split, graph, SolverConfig(bounds=(1, 5))).to_json() == want


@pytest.fixture(scope="module")
def small_tent():
    """A multi-user split, so that jobs > 1 really fans out over a pool."""
    matrix = tent_ring_dataset(2024, n_users=12, n_items=16)
    split = split_ratings(matrix, 0.8, seed=1)
    graph = build_item_graph(split.train, threshold=0.9)
    cfg = SolverConfig(bounds=(1.0, 5.0))
    serial = evaluate(["knn", "hcp", "sfr"], split, graph, cfg, jobs=1)
    assert len({rec.user_id for rec in split.test}) > 1
    return split, graph, cfg, serial.to_json()


def test_import_does_not_load_multiprocessing():
    """The pool's modules load only when a jobs > 1 evaluation starts one."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, rategraph; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestEvaluateStartMethods:
    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_pool_report_matches_serial(self, method, small_tent, monkeypatch):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} not available on this platform")
        split, graph, cfg, serial_json = small_tent
        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)),
        )
        parallel = evaluate(["knn", "hcp", "sfr"], split, graph, cfg, jobs=2)
        assert parallel.to_json() == serial_json


# where _failing_block logs the blocks it starts; set before the pool forks, so its workers inherit it
_STARTED_LOG: Optional[Path] = None


def _failing_block(positions):
    """A pool task that logs each block it starts, fails on the first block and runs the others slowly."""
    with open(_STARTED_LOG, "a") as log:
        log.write(f"{positions[0]}\n")
    if positions[0] == 0:
        raise ConvergenceError("the first block failed")
    time.sleep(0.5)
    return evaluation._WORKER_CTX.run_block(positions)


class TestPoolFailure:
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
    def test_stops_at_the_first_failing_block(self, small_tent, tmp_path, monkeypatch):
        split, graph, cfg, _ = small_tent
        pools = []

        def forked_pool(*args, **kwargs):
            # forked, so the workers see the patched task and log path
            pools.append(kwargs["max_workers"])
            return ProcessPoolExecutor(*args, mp_context=multiprocessing.get_context("fork"), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forked_pool)
        monkeypatch.setattr(evaluation, "_BLOCK_USERS", 1)
        monkeypatch.setattr(evaluation, "_run_block_in_worker", _failing_block)
        monkeypatch.setattr(sys.modules[__name__], "_STARTED_LOG", tmp_path / "started.txt")
        with pytest.raises(ConvergenceError, match="^the first block failed$"):
            evaluate(["knn"], split, graph, cfg, jobs=2)
        assert pools == [2]
        # every user is a block; block 0 fails while the other worker runs block 1, and no other block starts
        assert len({rec.user_id for rec in split.test}) > 2
        assert sorted((tmp_path / "started.txt").read_text().split()) == ["0", "1"]


_REPORT_KEYS = (
    "n_test", "n_classified", "n_unknown_items", "class_counts", "class_fractions", "rmse", "rmse_counts",
    "error_contribution", "error_contribution_total", "fallback_counts", "solver_stats",
)


def _reference_dict_rows(split, graph, dump):
    """The per-truth rows as dicts, aggregated as the report did before it kept tuples.

    Residuals come from the predictions dump, which ``evaluate`` writes in its
    aggregation order, so each group's residuals are summed in the same order.
    """
    truth = {(rec.user_id, rec.item_id): rec for rec in split.test}
    by_truth = {}
    for line in dump.splitlines():
        user, item, est, method, _ = line.split(",")
        rec = truth[(user, item)]
        cls = classify_bound(rec, split.train, graph)
        if cls not in (BoundClass.HIGHER, BoundClass.LOWER):
            continue
        residual = float(est) - rec.rating
        for key in ((method, cls.value, format(rec.rating, "g")), (method, cls.value, "all"), (method, "all", "all")):
            by_truth.setdefault(key, []).append(residual)
    return [
        {"method": m, "bound_class": cls, "truth_rating": key, "count": len(res),
         "rmse": float(np.sqrt(np.mean(np.square(res))))}
        for (m, cls, key), res in sorted(by_truth.items())
    ]


def _reference_outputs(report, rows):
    """``to_json()`` and ``rmse_tsv()`` as the dict-row report wrote them."""
    payload = {key: getattr(report, key) for key in _REPORT_KEYS}
    payload["rmse_by_truth"] = rows
    lines = ["method\tbound_class\ttruth_rating\tcount\trmse"]
    for row in rows:
        rendered = "" if row["rmse"] is None else repr(row["rmse"])
        lines.append(f"{row['method']}\t{row['bound_class']}\t{row['truth_rating']}\t{row['count']}\t{rendered}")
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", "\n".join(lines) + "\n"


def _star_ring_split():
    """A tent ring rated in half stars from 0.5 to 10: many tied truths, and
    keys such as "10" and "9.5" whose string order is not their numeric order."""
    ring = tent_ring_dataset(2024, 80, 24, 0.55)
    users, items, ratings = ring.arrays()
    stars = np.round((ratings - 1.0) * 4.75) / 2 + 0.5
    matrix = RatingMatrix.from_ids(
        (0.5, 10.0), [ring.users[u] for u in users], [ring.items[i] for i in items], stars.tolist()
    )
    return split_ratings(matrix, 0.8, seed=1)


class TestCompactTruthRows:
    """The report keeps its per-truth rows as tuples; what it writes and the
    ``rmse_by_truth`` view must equal what the dict rows gave, byte for byte."""

    @pytest.mark.parametrize("ratings", ["tent_ring", "half_stars"])
    def test_outputs_match_dict_rows(self, ratings):
        if ratings == "tent_ring":
            split = split_ratings(tent_ring_dataset(2024, 120, 40, 0.55), 0.8, seed=1)
            keep = sorted({rec.user_id for rec in split.test})[:40]
            split = Split(split.train, [rec for rec in split.test if rec.user_id in keep], split.fraction, split.seed)
        else:
            split = _star_ring_split()
        graph = build_item_graph(split.train, threshold=0.9, min_support=3)
        dump = io.StringIO()
        report = evaluate(["knn", "hcp", "sfr"], split, graph, SolverConfig(bounds=split.train.bounds),
                          predictions_out=dump)
        rows = _reference_dict_rows(split, graph, dump.getvalue())
        assert report.rmse_by_truth == rows
        assert (report.to_json(), report.rmse_tsv()) == _reference_outputs(report, rows)
        keys = [row["truth_rating"] for row in rows]
        if ratings == "half_stars":
            # the input must hold ties and the string-ordered keys it is meant to test
            assert {"10", "9.5"} <= set(keys)
            assert max(row["count"] for row in rows if row["truth_rating"] != "all") > 1
        else:
            assert len(set(keys)) > 50

    def test_rows_retain_a_quarter_of_the_tuples(self):
        """On a 90-user ring120 knn report, the shape of a benchmark panel's, the rows' one string is at most a
        quarter of the size of the same rows kept as ``(method, bound_class, truth, count, rmse)`` tuples."""
        split = split_ratings(tent_ring_dataset(2024, 120, 40, 0.55), 0.8, seed=1)
        keep = sorted({rec.user_id for rec in split.test})[:90]
        split = Split(split.train, [rec for rec in split.test if rec.user_id in keep], split.fraction, split.seed)
        graph = build_item_graph(split.train, threshold=0.9, min_support=3)
        report = evaluate(["knn"], split, graph, SolverConfig(bounds=split.train.bounds))
        rows = [tuple(row.values()) for row in report.rmse_by_truth]
        assert len(rows) > 150
        # a tuple list holds its tuples, each row's truth key and rmse float; the method and class strings and
        # the "all" key are shared constants, and counts up to 256 are cached ints
        tuples = sys.getsizeof(rows) + sum(
            sys.getsizeof(row) + (row[2] != "all") * sys.getsizeof(row[2]) + sys.getsizeof(row[4]) for row in rows
        )
        assert sys.getsizeof(report.truth_tsv) <= tuples / 4

    def test_rmse_by_truth_is_read_only(self):
        split, fix = _toy_ladder_split()
        report = evaluate(["knn"], split, fix.graph, SolverConfig(bounds=fix.bounds))
        with pytest.raises(AttributeError):
            report.rmse_by_truth = []


@pytest.fixture(scope="module")
def ring_panel():
    """The benchmark's ring120 split, with the test records of its first 25 users in sorted order."""
    split = split_ratings(tent_ring_dataset(2024, 120, 40, 0.55), 0.8, seed=1)
    keep = sorted({rec.user_id for rec in split.test})[:25]
    split = Split(split.train, [rec for rec in split.test if rec.user_id in keep], split.fraction, split.seed)
    return split, build_item_graph(split.train, threshold=0.9, min_support=3)


@pytest.fixture(scope="module")
def ring_panel_with_lone_item(ring_panel):
    """The ring panel with two training ratings of one more item, too few for an edge: a degree-0 item."""
    split, _ = ring_panel
    train = split.train
    rows = [(r.user_id, r.item_id, r.rating) for r in train.records()] + [(user, "lone", 3.0) for user in train.users[:2]]
    train = RatingMatrix.from_ids(train.bounds, *zip(*rows))
    graph = build_item_graph(train, threshold=0.9, min_support=3)
    assert graph.degree[graph.item_index["lone"]] == 0
    return Split(train, split.test, split.fraction, split.seed), graph


class TestSfrBlocks:
    """evaluate runs the sfr descents of up to ``_BLOCK_USERS`` users as one block."""

    def test_outputs_identical_at_any_block_size_and_jobs(self, ring_panel, ring_panel_with_lone_item, monkeypatch):
        # with a degree-0 item, every user's objective rows skip it
        cfg = SolverConfig(bounds=(1.0, 5.0))
        for split, graph in (ring_panel, ring_panel_with_lone_item):
            outputs = {}
            for size in (1, 2, len(split.test)):
                monkeypatch.setattr(evaluation, "_BLOCK_USERS", size)
                for jobs in (1, 2):
                    dump = io.StringIO()
                    report = evaluate(["knn", "hcp", "sfr"], split, graph, cfg, jobs=jobs, predictions_out=dump)
                    outputs[size, jobs] = (report.to_json(), report.rmse_tsv(), dump.getvalue())
            assert len(set(outputs.values())) == 1
            assert json.loads(outputs[1, 1][0])["solver_stats"]["sfr"]["users_solved"] > 10

    @pytest.mark.parametrize("method", ["knn", "hcp", "sfr"])
    def test_predict_called_once_per_scored_user_in_sorted_order(self, ring_panel, monkeypatch, method):
        # the benchmark's tracer wraps evaluation.predict_* and gives each one's k-th call to the k-th user it scores
        split, graph = ring_panel
        calls = []
        real = getattr(evaluation, f"predict_{method}")

        def recording(*args, **kwargs):
            rec = real(*args, **kwargs)
            calls.append((args[1], rec))
            return rec

        monkeypatch.setattr(evaluation, f"predict_{method}", recording)
        evaluate(["knn", "hcp", "sfr"], split, graph, SolverConfig(bounds=(1.0, 5.0)))
        train = split.train
        # knn scores every record on the graph, hcp and sfr the bound records
        scored = set(BoundClass) if method == "knn" else {BoundClass.HIGHER, BoundClass.LOWER}
        users = sorted({rec.user_id for rec in split.test if classify_bound(rec, train, graph) in scored})
        observed = [
            {train.items[i]: r for i, r in train.user_ratings(train.user_index[user]).items()
             if train.items[i] in graph.item_index}
            for user in users
        ]
        assert [obs for obs, _ in calls] == observed
        assert all((rec.diagnostics is not None) == (method == "sfr") for _, rec in calls)


def _complete_graph(names):
    edges = [
        (a, b, 1.0) for i, a in enumerate(names) for b in names[i + 1:]
    ]
    return ItemGraph.from_edges(names, edges)


class TestExamineLinearity:
    def test_flat_user_lands_in_zero_bin(self):
        names = [f"k{i}" for i in range(6)]
        graph = _complete_graph(names)  # every item has 5 neighbors
        ratings = _train([("u", n, 3.0) for n in names])
        hist = examine_linearity(ratings, graph)
        assert hist.n_samples == 6
        assert hist.counts[hist.zero_bin] == 6
        assert hist.counts.sum() == 6

    def test_star_center_drift_plus_one(self):
        center, leaves = "c", [f"l{i}" for i in range(5)]
        edges = [(center, leaf, 1.0) for leaf in leaves]
        graph = ItemGraph.from_edges([center] + leaves, edges)
        ratings = _train([("u", center, 2.0)] + [("u", leaf, 3.0) for leaf in leaves])
        hist = examine_linearity(ratings, graph)
        # leaves have a single neighbor (< 5 required), only the center samples
        assert hist.n_samples == 1
        one_bin = int(np.searchsorted(hist.edges, 1.0))
        assert hist.counts[one_bin] == 1

    def test_coverage_gate(self):
        center, leaves = "c", [f"l{i}" for i in range(6)]
        edges = [(center, leaf, 1.0) for leaf in leaves]
        graph = ItemGraph.from_edges([center] + leaves, edges)
        # user rates the center and 5 of 6 neighbors: 83% < 90% coverage
        ratings = _train([("u", center, 3.0)] + [("u", leaf, 3.0) for leaf in leaves[:5]])
        assert examine_linearity(ratings, graph).n_samples == 0
        assert examine_linearity(ratings, graph, coverage=0.8).n_samples == 1

    def test_min_neighbor_ratings_gate(self):
        names = [f"k{i}" for i in range(5)]
        graph = _complete_graph(names)  # 4 neighbors each
        ratings = _train([("u", n, 3.0) for n in names])
        assert examine_linearity(ratings, graph).n_samples == 0
        assert examine_linearity(ratings, graph, min_neighbor_ratings=4).n_samples == 5

    def test_overflow_bin(self):
        center, leaves = "c", [f"l{i}" for i in range(5)]
        edges = [(center, leaf, 1.0) for leaf in leaves]
        graph = ItemGraph.from_edges([center] + leaves, edges)
        ratings = _train(
            [("u", center, 1.0)] + [("u", leaf, 9.0) for leaf in leaves], bounds=(1, 9)
        )
        hist = examine_linearity(ratings, graph)
        assert hist.counts[-1] == 1  # drift +8 overflows the top bin

    def test_empty_input_is_valid(self):
        graph = _line_graph(["x", "y"])
        hist = examine_linearity(RatingMatrix((1, 5)), graph)
        assert hist.n_samples == 0

    def test_tsv_layout(self):
        graph = _line_graph(["x", "y"])
        hist = examine_linearity(RatingMatrix((1, 5)), graph)
        lines = hist.to_tsv().splitlines()
        assert lines[0] == "bin_left\tbin_right\tcount"
        assert len(lines) == 1 + hist.counts.size
        assert lines[1].startswith("-inf\t")
        assert lines[-1].split("\t")[1] == "inf"

    def test_parameter_validation(self):
        graph = _line_graph(["x", "y"])
        with pytest.raises(ValueError):
            examine_linearity(RatingMatrix((1, 5)), graph, coverage=0.0)
        with pytest.raises(ValueError):
            examine_linearity(RatingMatrix((1, 5)), graph, min_neighbor_ratings=0)


def _reference_examine(ratings, graph, coverage, min_neighbor_ratings):
    """examine_linearity's counts as they were made on scipy's matrix: a ones-weighted copy of W summed
    for the neighbour counts, and ``binary @ ind``, ``w @ ind`` and ``w @ vals`` per user."""
    edges = np.arange(-4.125, 4.25, 0.25)
    counts = np.zeros(edges.size + 1, dtype=np.int64)
    w = graph.adjacency
    binary = w.copy()
    binary.data = np.ones_like(binary.data)
    neighbor_count = np.asarray(binary.sum(axis=1)).ravel()
    for user in range(ratings.n_users):
        on_graph = _on_graph(ratings.user_ratings(user), ratings, graph)
        if not on_graph:
            continue
        ind, vals = np.zeros(graph.item_count), np.zeros(graph.item_count)
        ind[list(on_graph)] = 1.0
        vals[list(on_graph)] = list(on_graph.values())
        rated_neighbor_cnt, weight_sum, rating_sum = binary @ ind, w @ ind, w @ vals
        for g in on_graph:
            m, total = rated_neighbor_cnt[g], neighbor_count[g]
            if total == 0 or m < min_neighbor_ratings or m < coverage * total:
                continue
            counts[np.searchsorted(edges, rating_sum[g] / weight_sum[g] - vals[g], side="right")] += 1
    return edges, counts


class TestExamineLinearityMatchesScipy:
    """examine_linearity's products with the graph, made from its raw arrays, give the counts of the
    scipy formulation they replaced, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_graphs_with_gaps(self, seed):
        rng = np.random.default_rng(seed)
        graph, _ = graph_with_gaps(rng, int(rng.integers(2, 12)), bool(rng.integers(2)))
        assert np.any(graph.degree == 0)
        # some users rate most items, the degree-0 one and an item off the graph included, and one user
        # rates only the item off the graph
        names = list(graph.items) + ["off"]
        rows = [(f"u{u}", name, float(rng.uniform(1, 5)))
                for u in range(int(rng.integers(1, 6))) for name in names if rng.uniform() < 0.8]
        ratings = RatingMatrix.from_ids((1, 5), *zip(*rows, ("v", "off", 3.0)))
        # 0.25, 0.5, 0.75 and 1.0 times a degree are exact, so a rated-neighbour count can equal them
        coverage = float(rng.choice([0.25, 0.3, 0.5, 0.75, 0.9, 1.0]))
        min_ratings = int(rng.integers(1, 4))
        hist = examine_linearity(ratings, graph, coverage, min_ratings)
        edges, counts = _reference_examine(ratings, graph, coverage, min_ratings)
        assert hist.edges.tobytes() == edges.tobytes()
        assert hist.counts.tobytes() == counts.tobytes()

    @pytest.mark.parametrize("threshold", [0.5, 0.9])
    @pytest.mark.parametrize("shape", [(120, 40, 0.55), (400, 200, 0.3)], ids=["ring120", "ring400"])
    def test_bench_rings(self, shape, threshold):
        # as `rategraph examine` runs: the graph built from every rating
        matrix = tent_ring_dataset(2024, *shape)
        graph = build_item_graph(matrix, threshold, 3)
        # the defaults, and gates loose enough that the sparser ring400 yields samples too
        for coverage, min_ratings in ((0.9, 5), (0.3, 2)):
            hist = examine_linearity(matrix, graph, coverage, min_ratings)
            assert hist.counts.tobytes() == _reference_examine(matrix, graph, coverage, min_ratings)[1].tobytes()
        assert hist.n_samples > 0


def _loop_examine(ratings, graph, coverage, min_neighbor_ratings):
    """examine_linearity's counts as its per-sample loop made them: per user, the products of the graph and a
    ones-weighted copy of it with the rated items' indicator and ratings, then one test and one bin per rated item."""
    edges = np.arange(-4.125, 4.25, 0.25)
    counts = np.zeros(edges.size + 1, dtype=np.int64)
    w = graph.adjacency_arrays()
    neighbor_count = np.diff(w.indptr)
    ones = CsrArrays(w.indptr, w.indices, np.ones(w.data.size))
    for user in range(ratings.n_users):
        on_graph = _on_graph(ratings.user_ratings(user), ratings, graph)
        if not on_graph:
            continue
        ind, vals = np.zeros(graph.item_count), np.zeros(graph.item_count)
        ind[list(on_graph)] = 1.0
        vals[list(on_graph)] = list(on_graph.values())
        rated_neighbor_cnt, weight_sum, rating_sum = _apply(ones, ind), _apply(w, ind), _apply(w, vals)
        for g in on_graph:
            m, total = rated_neighbor_cnt[g], neighbor_count[g]
            if total == 0 or m < min_neighbor_ratings or m < coverage * total:
                continue
            counts[np.searchsorted(edges, rating_sum[g] / weight_sum[g] - vals[g], side="right")] += 1
    return counts


class TestExamineLinearityMatchesLoop:
    """examine_linearity's one array pass per user gives the counts of the per-sample loop it replaced."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        # dyadic coverages make coverage * degree exact, so rated-neighbour counts equal it often
        coverage=st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0, exclude_min=True)),
        min_ratings=st.integers(1, 5),
        unit=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_inputs(self, seed, coverage, min_ratings, unit):
        rng = np.random.default_rng(seed)
        graph, _ = graph_with_gaps(rng, int(rng.integers(2, 12)), bool(rng.integers(2)))
        if unit:
            # unit weights and whole ratings, as on integer-rated data: drifts are fractions with small denominators
            graph = ItemGraph.from_edges(graph.items, [(graph.items[i], graph.items[j], 1.0)
                                                       for i, j, _ in graph.edges()])
        names = list(graph.items) + ["off"]
        rows = []
        for u in range(int(rng.integers(1, 6))):
            share = rng.uniform(0.2, 1.0)
            rows += [(f"u{u}", name, float(rng.integers(1, 6)) if unit else float(rng.uniform(1, 5)))
                     for name in names if rng.uniform() < share]
        # a user whose only rating is off the graph
        rows.append(("v", "off", 3.0))
        ratings = RatingMatrix.from_ids((1, 5), *zip(*rows))
        hist = examine_linearity(ratings, graph, coverage, min_ratings)
        assert hist.counts.tobytes() == _loop_examine(ratings, graph, coverage, min_ratings).tobytes()

    def test_neighbour_count_equal_to_coverage_times_degree(self):
        # the centre has 4 neighbours and the user rated 2 of them: 2 == 0.5 * 4 keeps the sample,
        # the next coverage above 0.5 drops it; each leaf has 1 neighbour, under the minimum of 2
        center, leaves = "c", [f"l{i}" for i in range(4)]
        graph = ItemGraph.from_edges([center] + leaves, [(center, leaf, 1.0) for leaf in leaves])
        ratings = _train([("u", center, 2.0), ("u", "l0", 3.0), ("u", "l1", 4.0)])
        hist = examine_linearity(ratings, graph, 0.5, 2)
        assert hist.n_samples == 1
        assert hist.counts[np.searchsorted(hist.edges, 1.5, side="right")] == 1
        assert examine_linearity(ratings, graph, float(np.nextafter(0.5, 1.0)), 2).n_samples == 0
        for coverage in (0.5, float(np.nextafter(0.5, 1.0))):
            assert examine_linearity(ratings, graph, coverage, 2).counts.tobytes() == _loop_examine(
                ratings, graph, coverage, 2).tobytes()

    def test_drift_on_a_bin_edge(self):
        # the centre's 8 neighbours average 3.125, so its drift is the edge 0.125, which opens the bin right of it
        center, leaves = "c", [f"l{i}" for i in range(8)]
        graph = ItemGraph.from_edges([center] + leaves, [(center, leaf, 1.0) for leaf in leaves])
        ratings = _train([("u", center, 3.0)] + [("u", leaf, 3.0) for leaf in leaves[:7]] + [("u", leaves[7], 4.0)])
        hist = examine_linearity(ratings, graph)
        edge = int(np.flatnonzero(hist.edges == 0.125)[0])
        assert hist.n_samples == 1 and hist.counts[edge + 1] == 1
        assert hist.counts.tobytes() == _loop_examine(ratings, graph, 0.9, 5).tobytes()

    def test_rated_item_of_degree_zero(self):
        # "lone" has no neighbour, so it is never a sample, even at the loosest gates
        graph = ItemGraph.from_edges(["a", "b", "lone"], [("a", "b", 1.0)])
        ratings = _train([("u", "a", 2.0), ("u", "b", 4.0), ("u", "lone", 3.0), ("w", "lone", 1.0)])
        hist = examine_linearity(ratings, graph, float(np.nextafter(0.0, 1.0)), 1)
        assert hist.n_samples == 2
        assert hist.counts.tobytes() == _loop_examine(ratings, graph, float(np.nextafter(0.0, 1.0)), 1).tobytes()

    def test_user_without_a_rating_on_the_graph(self):
        names = [f"k{i}" for i in range(4)]
        graph = _complete_graph(names)
        rated = [("u", name, float(r)) for name, r in zip(names, (1, 2, 4, 5))]
        off = [("v", "off", 3.0), ("v", "off2", 5.0)]
        hist = examine_linearity(_train(rated + off), graph, 0.5, 1)
        assert hist.n_samples == 4
        assert hist.counts.tobytes() == examine_linearity(_train(rated), graph, 0.5, 1).counts.tobytes()
        assert hist.counts.tobytes() == _loop_examine(_train(rated + off), graph, 0.5, 1).tobytes()
        assert examine_linearity(_train(off), graph, 0.5, 1).n_samples == 0
