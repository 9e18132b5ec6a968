import functools
import io
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rategraph import (
    BoundClass,
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
from rategraph.synthetic import tent_ring_dataset
from tests.conftest import random_rating_matrix


def _line_graph(names):
    edges = [(a, b, 1.0) for a, b in zip(names, names[1:])]
    return ItemGraph.from_edges(names, edges)


def _train(rows, bounds=(1, 5)):
    m = RatingMatrix(bounds)
    for user, item, rating in rows:
        m.add(user, item, rating)
    return m


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


def _toy_ladder_split(mirrored_user=False):
    """The ladder fixture as one user's split; optionally a second user who
    rates every item 10 - r, so that there is more than one task."""
    fix = ladder_toy_26()
    train = RatingMatrix(fix.bounds)
    test = []
    users = [("u1", lambda r: r)]
    if mirrored_user:
        users.append(("u2", lambda r: 10.0 - r))
    for user, rate in users:
        for item, rating in fix.observed.items():
            train.add(user, item, rate(rating))
        test += [
            RatingRecord(user, item, rate(rating))
            for item, rating in fix.ground_truth.items()
            if item not in fix.observed
        ]
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

    def test_report_identical_across_jobs(self, monkeypatch):
        split, fix = _toy_ladder_split(mirrored_user=True)
        cfg = SolverConfig(bounds=fix.bounds)
        serial = evaluate(["knn", "hcp", "sfr"], split, fix.graph, cfg, jobs=1)
        pools = []

        def recording_pool(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", recording_pool)
        parallel = evaluate(["knn", "hcp", "sfr"], split, fix.graph, cfg, jobs=2)
        assert pools == [2], "jobs=2 must fan the two users out over a pool"
        assert serial.to_json() == parallel.to_json()

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
        with pytest.raises(ValueError, match="method"):
            evaluate(["svd"], split, fix.graph, SolverConfig(bounds=fix.bounds))


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


class TestEvaluateStartMethods:
    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_pool_report_matches_serial(self, method, small_tent, monkeypatch):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} not available on this platform")
        split, graph, cfg, serial_json = small_tent
        monkeypatch.setattr(
            evaluation,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)),
        )
        parallel = evaluate(["knn", "hcp", "sfr"], split, graph, cfg, jobs=2)
        assert parallel.to_json() == serial_json


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
