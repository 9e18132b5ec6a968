import io

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rategraph import (
    GraphFormatError,
    ItemGraph,
    RatingMatrix,
    build_item_graph,
    parse_graph,
    pearson_similarity,
    second_derivative,
    serialize_graph,
)
from tests.conftest import random_connected_graph, random_rating_matrix


class TestPearsonSimilarity:
    def test_identical_ratings_give_one(self):
        ratings = {f"u{k}": float(k) for k in range(5)}
        assert pearson_similarity(ratings, dict(ratings)) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        i = {"u1": 1.0, "u2": 2.0, "u3": 3.0}
        j = {"u1": 3.0, "u2": 2.0, "u3": 1.0}
        assert pearson_similarity(i, j) == pytest.approx(-1.0, abs=1e-12)

    def test_three_point_value_matches_reference(self):
        i = {"u1": 1.0, "u2": 2.0, "u3": 4.0}
        j = {"u1": 2.0, "u2": 2.0, "u3": 5.0}
        got = pearson_similarity(i, j)
        oracle = scipy.stats.pearsonr([1, 2, 4], [2, 2, 5]).statistic
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.944911182523068, abs=1e-12)

    def test_min_support(self):
        i = {"u1": 1.0, "u2": 2.0}
        j = {"u1": 2.0, "u2": 1.0}
        assert pearson_similarity(i, j, min_support=3) is None
        assert pearson_similarity(i, j, min_support=2) == pytest.approx(-1.0)

    def test_zero_variance_is_absent_not_zero(self):
        flat = {"u1": 3.0, "u2": 3.0, "u3": 3.0}
        varied = {"u1": 1.0, "u2": 2.0, "u3": 5.0}
        assert pearson_similarity(flat, varied) is None
        assert pearson_similarity(varied, flat) is None

    def test_disjoint_users(self):
        assert pearson_similarity({"a": 1.0}, {"b": 2.0}) is None

    def test_min_support_validation(self):
        with pytest.raises(ValueError):
            pearson_similarity({}, {}, min_support=1)


def _matrix_from_columns(columns: dict[str, dict[str, float]], bounds=(1, 5)):
    """Build a RatingMatrix from per-item {user: rating} columns."""
    m = RatingMatrix(bounds)
    for item, col in columns.items():
        for user, r in col.items():
            m.add(user, item, r)
    return m


class TestBuildItemGraph:
    def test_edge_weight_is_correlation(self):
        cols = {
            "x": {"u1": 1.0, "u2": 2.0, "u3": 4.0},
            "y": {"u1": 1.5, "u2": 2.5, "u3": 4.5},
        }
        g = build_item_graph(_matrix_from_columns(cols), threshold=0.5)
        i, j = g.item_index["x"], g.item_index["y"]
        neigh, weights = g.neighbors(i)
        assert list(neigh) == [j]
        assert weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_threshold_is_strict(self):
        # correlation of (1,2,3) with (1,3,2) is exactly 0.5
        cols = {
            "x": {"u1": 1.0, "u2": 2.0, "u3": 3.0},
            "y": {"u1": 1.0, "u2": 3.0, "u3": 2.0},
        }
        m = _matrix_from_columns(cols)
        assert pearson_similarity(cols["x"], cols["y"]) == 0.5
        g_eq = build_item_graph(m, threshold=0.5)
        assert g_eq.edge_count == 0
        g_below = build_item_graph(m, threshold=0.49)
        assert g_below.edge_count == 1

    def test_negative_correlations_never_edge(self):
        cols = {
            "x": {"u1": 1.0, "u2": 2.0, "u3": 3.0},
            "y": {"u1": 3.0, "u2": 2.0, "u3": 1.0},
        }
        g = build_item_graph(_matrix_from_columns(cols), threshold=0.1)
        assert g.edge_count == 0

    def test_five_item_brute_force(self):
        rng = np.random.default_rng(42)
        m = random_rating_matrix(rng, n_users=12, n_items=5, density=0.8)
        threshold, min_support = 0.3, 3
        g = build_item_graph(m, threshold, min_support)
        columns = {item: {} for item in m.items}
        for rec in m.records():
            columns[rec.item_id][rec.user_id] = rec.rating
        # independent brute force over all 10 pairs via the scalar path
        expected = {}
        for i in range(5):
            for j in range(i + 1, 5):
                r = pearson_similarity(
                    columns[m.items[i]],
                    columns[m.items[j]],
                    min_support,
                )
                if r is not None and r > threshold:
                    expected[(m.items[i], m.items[j])] = r
        got = {
            tuple(sorted((g.items[i], g.items[j]))): w for i, j, w in g.edges()
        }
        assert set(got) == set(expected)
        for pair, w in got.items():
            assert w == pytest.approx(expected[pair], abs=1e-9)

    def test_isolated_items_kept(self):
        cols = {
            "x": {"u1": 1.0, "u2": 2.0, "u3": 4.0},
            "y": {"u1": 1.0, "u2": 2.0, "u3": 4.0},
            "lonely": {"u9": 3.0},
        }
        g = build_item_graph(_matrix_from_columns(cols), threshold=0.5)
        assert g.item_count == 3
        assert g.degree[g.item_index["lonely"]] == 0

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
    def test_threshold_validation(self, threshold):
        with pytest.raises(ValueError):
            build_item_graph(RatingMatrix((1, 5)), threshold)

    def test_symmetry_on_random_matrices(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = random_rating_matrix(rng, n_users=15, n_items=8, density=0.6)
            g = build_item_graph(m, threshold=0.2)
            w = g.adjacency
            assert (w != w.T).nnz == 0


class TestItemGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            ItemGraph.from_edges(["a", "b"], [("a", "a", 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ItemGraph.from_edges(["a", "b"], [("a", "b", 1.0), ("b", "a", 0.5)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ItemGraph.from_edges(["a", "b"], [("a", "b", -1.0)])

    def test_degree_matches_weight_sums(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 12)
        w = g.adjacency
        assert np.allclose(g.degree, np.asarray(w.sum(axis=1)).ravel(), rtol=1e-12)


class TestSecondDerivative:
    def test_annihilates_constants(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(rng, 10)
            field = second_derivative(g, np.full(10, 3.7))
            assert np.max(np.abs(field.values[field.defined])) < 1e-12

    def test_square_at_harmonic_point(self, square):
        g = square.graph
        r = np.empty(4)
        r[g.item_index["A"]] = 5.0
        r[g.item_index["B"]] = 13.0 / 3.0
        r[g.item_index["C"]] = 3.0
        r[g.item_index["D"]] = 11.0 / 3.0
        field = second_derivative(g, r)
        expect = {"A": -4.0 / 3.0, "B": 0.0, "C": 4.0 / 3.0, "D": 0.0}
        for name, val in expect.items():
            assert field.values[g.item_index[name]] == pytest.approx(val, abs=1e-12)

    def test_ladder_ground_truth_sources(self, ladder):
        g = ladder.graph
        truth = np.array([ladder.ground_truth[n] for n in g.items])
        field = second_derivative(g, truth, source_tolerance=1e-9)
        names = {g.items[i] for i in field.sources()}
        assert names == {"v1", "v26"}

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 14))
        g = random_connected_graph(rng, n)
        r1, r2 = rng.normal(size=n), rng.normal(size=n)
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        combined = second_derivative(g, a * r1 + b * r2).values
        parts = a * second_derivative(g, r1).values + b * second_derivative(g, r2).values
        assert np.allclose(combined, parts, atol=1e-10, equal_nan=True)

    def test_degree_weighted_values_sum_to_zero(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 20))
            g = random_connected_graph(rng, n)
            r = rng.uniform(1, 5, n)
            field = second_derivative(g, r)
            total = float(np.sum(g.degree[field.defined] * field.values[field.defined]))
            scale = float(np.sum(np.abs(g.degree[field.defined] * field.values[field.defined]))) or 1.0
            assert abs(total) / scale < 1e-9

    def test_isolated_item_is_nan(self):
        g = ItemGraph.from_edges(["a", "b", "c"], [("a", "b", 1.0)])
        field = second_derivative(g, np.array([1.0, 2.0, np.nan]))
        assert not field.defined[g.item_index["c"]]
        assert np.isnan(field.values[g.item_index["c"]])

    def test_nan_on_connected_item_rejected(self):
        g = ItemGraph.from_edges(["a", "b"], [("a", "b", 1.0)])
        with pytest.raises(ValueError, match="finite"):
            second_derivative(g, np.array([1.0, np.nan]))


class TestSerialization:
    def test_square_writes_four_edge_lines(self, square):
        buf = io.StringIO()
        serialize_graph(square.graph, buf)
        edge_lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        assert len(edge_lines) == 4
        assert all(len(l.split("\t")) == 3 for l in edge_lines)

    def test_round_trip_random_graphs(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(rng, int(rng.integers(2, 20)))
            buf = io.StringIO()
            serialize_graph(g, buf)
            again = parse_graph(io.StringIO(buf.getvalue()))
            # weights quantize to 12 decimals on the wire
            assert again.items == g.items
            assert np.array_equal(again.adjacency.indices, g.adjacency.indices)
            assert np.allclose(again.adjacency.data, g.adjacency.data, atol=5e-13)

    def test_round_trip_preserves_isolated_items(self):
        g = ItemGraph.from_edges(["a", "b", "lonely"], [("a", "b", 0.5)])
        buf = io.StringIO()
        serialize_graph(g, buf)
        again = parse_graph(io.StringIO(buf.getvalue()))
        assert again.structurally_equal(g)

    def test_built_graph_round_trips_exactly(self):
        rng = np.random.default_rng(5)
        m = random_rating_matrix(rng, 15, 8, density=0.7)
        g = build_item_graph(m, 0.2)
        buf = io.StringIO()
        serialize_graph(g, buf)
        again = parse_graph(io.StringIO(buf.getvalue()))
        assert again.structurally_equal(g)

    def test_fixed_point_weight_parses_exactly(self):
        text = "a\tb\t0.250000000000\n"
        g = parse_graph(io.StringIO(text))
        _, w = g.neighbors(g.item_index["a"])
        assert w[0] == 0.25

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph(io.StringIO("a\tb\n"))

    def test_bad_weight(self):
        with pytest.raises(GraphFormatError, match="weight"):
            parse_graph(io.StringIO("a\tb\theavy\n"))

    def test_duplicate_edges_rejected(self):
        text = "a\tb\t0.5\nb\ta\t0.5\n"
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph(io.StringIO(text))
