import io
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from rategraph import graph as graph_module
from rategraph import (
    ItemGraph,
    RatingMatrix,
    SolverConfig,
    build_item_graph,
    second_derivative,
    serialize_graph,
    sources,
    split_ratings,
)
from rategraph.graph import _dense_product
from rategraph.synthetic import tent_ring_dataset
from tests.conftest import pearson_similarity, random_connected_graph, random_rating_matrix


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
    rows = [(user, item, r) for item, col in columns.items() for user, r in col.items()]
    return RatingMatrix.from_ids(bounds, *zip(*rows)) if rows else RatingMatrix(bounds)


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

    def test_undeclared_item_rejected(self):
        with pytest.raises(ValueError, match="edge references undeclared item 'a' or 'c'"):
            ItemGraph.from_edges(["a", "b"], [("a", "b", 1.0), ("a", "c", 1.0)])

    def test_nonpositive_weight_rejected(self):
        # a zero weight would otherwise vanish from the adjacency, edge and all
        for weight in [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf]:
            with pytest.raises(ValueError, match=rf"edge 'b'--'c' has weight {weight!r}; weights must be positive and finite"):
                ItemGraph.from_edges(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", weight)])

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
            second = second_derivative(g, np.full(10, 3.7))
            assert np.max(np.abs(second[~np.isnan(second)])) < 1e-12

    def test_square_at_harmonic_point(self, square):
        g = square.graph
        r = np.empty(4)
        r[g.item_index["A"]] = 5.0
        r[g.item_index["B"]] = 13.0 / 3.0
        r[g.item_index["C"]] = 3.0
        r[g.item_index["D"]] = 11.0 / 3.0
        second = second_derivative(g, r)
        expect = {"A": -4.0 / 3.0, "B": 0.0, "C": 4.0 / 3.0, "D": 0.0}
        for name, val in expect.items():
            assert second[g.item_index[name]] == pytest.approx(val, abs=1e-12)

    def test_ladder_ground_truth_sources(self, ladder):
        g = ladder.graph
        truth = np.array([ladder.ground_truth[n] for n in g.items])
        second = second_derivative(g, truth)
        names = {g.items[i] for i in np.flatnonzero(np.abs(second) > 1e-9)}
        assert names == {"v1", "v26"}

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 14))
        g = random_connected_graph(rng, n)
        r1, r2 = rng.normal(size=n), rng.normal(size=n)
        a, b = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        combined = second_derivative(g, a * r1 + b * r2)
        parts = a * second_derivative(g, r1) + b * second_derivative(g, r2)
        assert np.allclose(combined, parts, atol=1e-10, equal_nan=True)

    def test_degree_weighted_values_sum_to_zero(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 20))
            g = random_connected_graph(rng, n)
            r = rng.uniform(1, 5, n)
            second = second_derivative(g, r)
            total = float(np.sum(g.degree[g.degree > 0] * second[g.degree > 0]))
            scale = float(np.sum(np.abs(g.degree[g.degree > 0] * second[g.degree > 0]))) or 1.0
            assert abs(total) / scale < 1e-9

    def test_isolated_item_is_nan(self):
        g = ItemGraph.from_edges(["a", "b", "c"], [("a", "b", 1.0)])
        second = second_derivative(g, np.array([1.0, 2.0, np.nan]))
        # a NaN is never a source, though both other values are
        assert sorted(sources(second, SolverConfig.smoothing_eps)) == [g.item_index["a"], g.item_index["b"]]
        assert np.isnan(second[g.item_index["c"]])

    def test_nan_on_connected_item_rejected(self):
        g = ItemGraph.from_edges(["a", "b"], [("a", "b", 1.0)])
        with pytest.raises(ValueError, match="finite"):
            second_derivative(g, np.array([1.0, np.nan]))

    def test_sources_exceed_the_tolerance_strictly(self):
        # predict_sfr counts its sources with the same function, at its smoothing floor
        second = np.array([1e-3, -1e-3, 1.001e-3, -1.001e-3, np.nan, 0.0])
        assert sources(second, 1e-3).tolist() == [2, 3]

    @pytest.mark.parametrize("floor", [0.0, -1e-2, math.nan, math.inf])
    def test_source_floor_must_be_positive_and_finite(self, floor):
        with pytest.raises(ValueError, match="positive and finite"):
            sources(np.array([1.0, 0.0]), floor)


def _read_tsv(text):
    """The graph a :func:`serialize_graph` file describes: its '#item' lines in order, then its edges."""
    lines = [line.split("\t") for line in text.splitlines()]
    items = [parts[1] for parts in lines if parts[0] == "#item"]
    assert lines[0] == ["#items", str(len(items))]
    edges = [parts for parts in lines if not parts[0].startswith("#")]
    return ItemGraph.from_edges(items, [(a, b, float(w)) for a, b, w in edges])


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
            again = _read_tsv(buf.getvalue())
            # weights quantize to 12 decimals on the wire
            assert again.items == g.items
            assert np.array_equal(again.adjacency.indices, g.adjacency.indices)
            assert np.allclose(again.adjacency.data, g.adjacency.data, atol=5e-13)

    def test_round_trip_preserves_isolated_items(self):
        g = ItemGraph.from_edges(["a", "b", "lonely"], [("a", "b", 0.5)])
        buf = io.StringIO()
        serialize_graph(g, buf)
        again = _read_tsv(buf.getvalue())
        assert again.structurally_equal(g)

    def test_built_graph_round_trips_exactly(self):
        rng = np.random.default_rng(5)
        m = random_rating_matrix(rng, 15, 8, density=0.7)
        g = build_item_graph(m, 0.2)
        buf = io.StringIO()
        serialize_graph(g, buf)
        again = _read_tsv(buf.getvalue())
        assert again.structurally_equal(g)

    def test_fixed_point_weight_parses_exactly(self):
        buf = io.StringIO()
        serialize_graph(ItemGraph.from_edges(["a", "b"], [("a", "b", 0.25)]), buf)
        assert buf.getvalue().splitlines()[-1] == "a\tb\t0.250000000000"
        g = _read_tsv(buf.getvalue())
        _, w = g.neighbors(g.item_index["a"])
        assert w[0] == 0.25

    # a file read back goes through ItemGraph.from_edges, which rejects what no built graph holds

    def test_zero_weight_rejected(self):
        text = "#items\t3\n#item\ta\n#item\tb\n#item\tc\na\tb\t0.000000000000\nb\tc\t1.000000000000\n"
        with pytest.raises(ValueError, match="edge 'a'--'b' has weight 0.0"):
            _read_tsv(text)

    def test_duplicate_edges_rejected(self):
        text = "#items\t2\n#item\ta\n#item\tb\na\tb\t0.5\nb\ta\t0.5\n"
        with pytest.raises(ValueError, match="duplicate"):
            _read_tsv(text)

    def test_undeclared_item_rejected(self):
        header = "#items\t2\n#item\ta\n#item\tb\n"
        with pytest.raises(ValueError, match="edge references undeclared item 'a' or 'c'"):
            _read_tsv(header + "a\tb\t0.5\na\tc\t0.5\n")
        # of two faults, the first in edge order is reported
        with pytest.raises(ValueError, match="self-loop"):
            _read_tsv(header + "a\ta\t0.5\na\tc\t0.5\n")

    # every character str.splitlines splits on, which a reader's line split would break the file at
    @pytest.mark.parametrize(
        "name", ["it\tem", "#item", *(f"it{c}em" for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")]
    )
    def test_id_the_format_cannot_hold_rejected_before_any_line(self, name):
        g = ItemGraph.from_edges(["a", name], [("a", name, 0.5)])
        buf = io.StringIO()
        with pytest.raises(ValueError) as err:
            serialize_graph(g, buf)
        assert str(err.value) == f"item id {name!r} holds a tab or a line break or starts with '#'; graph.tsv cannot hold it"
        assert buf.getvalue() == ""

    def test_inner_hash_and_other_characters_written(self):
        names = ("a#b", "c d", "e,f", "g::h")
        buf = io.StringIO()
        serialize_graph(ItemGraph.from_edges(names, [("a#b", "c d", 0.5), ("e,f", "g::h", 0.25)]), buf)
        assert _read_tsv(buf.getvalue()).items == names


# -- the graph build's product kernel, and the build against the six-product reference


@st.composite
def _csr_pairs(draw):
    """CSR operands ``a`` (m x k) and ``b`` (k x n), 0-7 each way, and a row count of ``a``.

    Entries may be stored zeros or -0.0, rows and columns may be empty, and
    either operand may store its rows in descending column order.
    """
    m, k, n = (draw(st.integers(0, 7)) for _ in range(3))

    def operand(shape):
        cells = shape[0] * shape[1]
        mask = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)), dtype=bool).reshape(shape)
        values = draw(st.lists(st.floats(-1e3, 1e3), min_size=int(mask.sum()), max_size=int(mask.sum())))
        mat = sparse.csr_matrix((np.array(values, dtype=np.float64), np.nonzero(mask)), shape=shape)
        if draw(st.booleans()):
            for row in range(shape[0]):
                lo, hi = mat.indptr[row], mat.indptr[row + 1]
                mat.indices[lo:hi] = mat.indices[lo:hi][::-1].copy()
                mat.data[lo:hi] = mat.data[lo:hi][::-1].copy()
            mat.has_sorted_indices = False
        return mat

    return operand((m, k)), operand((k, n)), draw(st.integers(0, m))


def _arrays(mat):
    """A CSR matrix as the ``(indptr, indices, data)`` operand ``_dense_product`` takes."""
    return mat.indptr, mat.indices, mat.data


class TestDenseProduct:
    @given(pair=_csr_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_product_byte_for_byte(self, pair):
        a, b, rows = pair
        want = (a[:rows] @ b).toarray()
        slots = rows * b.shape[1]
        got = _dense_product(_arrays(a), _arrays(b), b.shape[1], rows, np.empty(slots, dtype=a.indices.dtype),
                             np.empty(slots))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_rejects_bad_operands_and_buffers(self):
        a = sparse.random(4, 3, density=0.6, format="csr", random_state=0)
        b = sparse.random(3, 5, density=0.6, format="csr", random_state=1)
        # a reaches row 3 and column 2, and b column 4, so the out-of-range cases below are real
        assert a.tocsc().indices.max() == 3 and a.indices.max() == 2 and b.indices.max() == 4
        A, B = _arrays(a), _arrays(b)
        idx = a.indices.dtype
        other_idx = np.int64 if idx == np.int32 else np.int32
        cj, cx = np.empty(20, dtype=idx), np.empty(20)
        assert _dense_product(A, B, 5, 4, cj, cx).tobytes() == (a @ b).toarray().tobytes()
        wide_b = (b.indptr.astype(other_idx), b.indices.astype(other_idx), b.data)
        read_only = np.empty(20)
        read_only.flags.writeable = False
        spare = np.full(20, np.nan)
        cases = {
            "short index buffer": (A, B, 5, 4, cj[:19], cx),
            "short value buffer": (A, B, 5, 4, cj, spare[:19]),
            "float32 values": (A, B, 5, 4, cj, np.empty(20, dtype=np.float32)),
            "index buffer dtype": (A, B, 5, 4, np.empty(20, dtype=other_idx), cx),
            "operand index dtype": (A, wide_b, 5, 4, cj, cx),
            "float32 operand": (_arrays(a.astype(np.float32)), B, 5, 4, cj, cx),
            # read as CSR, a's CSC arrays are a 3 x 4 matrix naming a row 3 that b lacks
            "csc operand": (_arrays(a.tocsc()), B, 5, 3, cj, cx),
            "shapes do not chain": (A, _arrays(b[:2]), 5, 4, cj, cx),
            "too many rows": (A, B, 5, 5, np.empty(25, dtype=idx), np.empty(25)),
            "negative rows": (A, B, 5, -1, cj, cx),
            "strided buffer": (A, B, 5, 4, cj, np.empty(40)[::2]),
            "read-only buffer": (A, B, 5, 4, cj, read_only),
            "2-d buffer": (A, B, 5, 4, cj, np.empty((4, 5))),
            "column past n_col": (A, B, 4, 4, cj, cx),
            "indices and data differ in length": (A, (b.indptr, b.indices, b.data[:-1]), 5, 4, cj, cx),
            "strided operand": ((a.indptr, np.repeat(a.indices, 2)[::2], a.data), B, 5, 4, cj, cx),
        }
        for name, args in cases.items():
            with pytest.raises(ValueError, match="product needs"):
                _dense_product(*args)
        assert np.isnan(spare).all()


def _reference_build_item_graph(train, threshold, min_support=3):
    """The build that ``build_item_graph`` replaced: six scipy ``@`` products per block of 512 columns."""
    n_items = train.n_items
    u, i, r = train.arrays()
    x = sparse.csr_matrix((r, (u, i)), shape=(train.n_users, n_items)).tocsc()
    b = x.copy()
    b.data = np.ones_like(b.data)
    x2 = x.copy()
    x2.data = x2.data**2
    xt, bt, x2t = x.T.tocsr(), b.T.tocsr(), x2.T.tocsr()
    rows, cols, vals = [], [], []
    block = max(1, min(512, n_items))
    for lo in range(0, n_items, block):
        hi = min(lo + block, n_items)
        bj, xj, x2j = b[:, lo:hi], x[:, lo:hi], x2[:, lo:hi]
        n_co = (bt @ bj).toarray()
        s_i = (xt @ bj).toarray()
        s_j = (bt @ xj).toarray()
        q_i = (x2t @ bj).toarray()
        q_j = (bt @ x2j).toarray()
        c_ij = (xt @ xj).toarray()
        with np.errstate(invalid="ignore", divide="ignore"):
            num = n_co * c_ij - s_i * s_j
            var_i = n_co * q_i - s_i**2
            var_j = n_co * q_j - s_j**2
            corr = num / np.sqrt(var_i * var_j)
        ok = (n_co >= min_support) & (var_i > 0) & (var_j > 0)
        ok &= np.isfinite(corr) & (corr > threshold)
        gi, gj = np.nonzero(ok)
        keep = gi < (gj + lo)
        gi, gj = gi[keep], gj[keep]
        rows.append(gi)
        cols.append(gj + lo)
        vals.append(np.round(corr[gi, gj], 12))
    i = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    j = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    w = np.concatenate(vals) if vals else np.empty(0)
    m = sparse.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n_items, n_items)
    )
    return ItemGraph(train.items, m)


def _assert_same_bytes(got, want):
    assert got.items == want.items
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got.adjacency, name), getattr(want.adjacency, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def _seeded_case(seed):
    """A shuffled rating matrix with negative or zero ratings, ties, a constant and a lone column, and its settings."""
    rng = np.random.default_rng(seed)
    n_users, n_items = int(rng.integers(1, 30)), int(rng.integers(1, 25))
    lo = float(rng.choice([-5.0, -1.0, 0.0, 1.0]))
    hi = lo + float(rng.choice([1.0, 4.0]))
    mask = rng.uniform(size=(n_users, n_items)) < rng.uniform(0.05, 1.0)
    ratings = rng.uniform(lo, hi, size=(n_users, n_items)).round(int(rng.integers(0, 3)))
    if n_items >= 3:
        ratings[:, 1] = ratings[0, 1]  # a constant column
        mask[:, 2] = np.arange(n_users) == 0  # an item with one rater: isolated
    uu, ii = np.nonzero(mask)
    order = rng.permutation(uu.size)
    names = [f"u{k}" for k in range(n_users)], [f"i{k}" for k in range(n_items)]
    m = RatingMatrix((lo, hi), *names, uu[order], ii[order], ratings[uu, ii][order])
    threshold = float(rng.choice([1e-9, rng.uniform(0.05, 0.95)]))
    return m, threshold, int(rng.integers(2, 6))


class TestBuildMatchesSixProductReference:
    """build_item_graph against the six-product build it replaced, byte for byte."""

    @pytest.mark.parametrize("block", [1, 3, 7, 512])
    def test_seeded_matrices(self, block, monkeypatch):
        monkeypatch.setattr(graph_module, "_BLOCK", block)
        edges = 0
        for seed in range(60):
            m, threshold, min_support = _seeded_case(seed)
            got = build_item_graph(m, threshold, min_support)
            _assert_same_bytes(got, _reference_build_item_graph(m, threshold, min_support))
            edges += got.edge_count
        assert edges > 0

    @pytest.mark.parametrize("min_support, edges", [(2, 1), (3, 1), (4, 0)])
    def test_min_support_boundary(self, min_support, edges):
        # x and y share exactly three raters, over whom they correlate perfectly
        cols = {
            "x": {"u1": 1.0, "u2": 2.0, "u3": 4.0, "u4": 5.0},
            "y": {"u1": 1.0, "u2": 2.0, "u3": 4.0, "u5": 3.0},
        }
        m = _matrix_from_columns(cols)
        got = build_item_graph(m, 0.5, min_support)
        assert got.edge_count == edges
        _assert_same_bytes(got, _reference_build_item_graph(m, 0.5, min_support))

    @pytest.mark.parametrize("block", [64, 512])
    @pytest.mark.parametrize("n_users, n_items, density", [(120, 40, 0.55), (400, 200, 0.3)])
    def test_bench_rings(self, n_users, n_items, density, block, monkeypatch):
        monkeypatch.setattr(graph_module, "_BLOCK", block)
        train = split_ratings(tent_ring_dataset(2024, n_users, n_items, density), 0.8, 1).train
        got = build_item_graph(train, 0.9, 3)
        assert got.edge_count > n_items
        _assert_same_bytes(got, _reference_build_item_graph(train, 0.9, 3))


# -- ItemGraph's checks against the ones it ran with a sparse subtraction


def _reference_rejection(items, matrix):
    """The message ItemGraph gave for ``matrix`` when it tested symmetry with W - W^T, or None."""
    n = len(items)
    w = matrix.tocsr().astype(np.float64)
    w.sort_indices()
    w.eliminate_zeros()
    if n == 0:
        return None
    coo = w.tocoo()
    if np.any(coo.row == coo.col):
        return "graph has self-loops"
    if coo.data.size and coo.data.min() <= 0:
        return "graph has non-positive edge weights"
    asym = w - w.T
    if asym.nnz and np.max(np.abs(asym.data)) != 0.0:
        return "adjacency is not symmetric"
    return None


def _rejection(items, matrix):
    try:
        ItemGraph(items, matrix)
    except ValueError as exc:
        return str(exc)
    return None


_WEIGHTS = st.sampled_from([0.0, -0.0, 0.5, float(np.nextafter(0.5, 1.0)), 1.0, 2.5, -1.0, np.nan, np.inf, -np.inf])


class TestItemGraphChecks:
    @pytest.mark.parametrize(
        "entries, message",
        [
            ({(0, 1): 0.5, (1, 0): float(np.nextafter(0.5, 1.0))}, "not symmetric"),
            ({(0, 1): 0.5}, "not symmetric"),
            ({(0, 1): np.nan, (1, 0): np.nan}, "not symmetric"),
            ({(0, 1): np.inf, (1, 0): np.inf}, "not symmetric"),
            ({(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5}, "self-loops"),
            ({(0, 1): -0.5, (1, 0): -0.5}, "non-positive"),
            ({(0, 1): 0.5, (1, 0): 0.5, (1, 2): 2.0, (2, 1): 2.0}, None),
        ],
    )
    def test_same_inputs_rejected(self, entries, message):
        rows, cols = zip(*entries)
        matrix = sparse.csr_matrix((list(entries.values()), (rows, cols)), shape=(3, 3))
        got = _rejection("abc", matrix)
        assert got == _reference_rejection("abc", matrix)
        assert (got is None) if message is None else (message in got)

    @given(n=st.integers(0, 5), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_message_as_subtraction(self, n, data):
        dense = np.array(data.draw(st.lists(_WEIGHTS, min_size=n * n, max_size=n * n)), dtype=np.float64).reshape(n, n)
        if data.draw(st.booleans()):
            dense = np.triu(dense, 1) + np.triu(dense, 1).T
        if data.draw(st.booleans()) and n:
            dense[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = data.draw(_WEIGHTS)
        matrix = sparse.csr_matrix(dense)
        items = [f"i{k}" for k in range(n)]
        assert _rejection(items, matrix) == _reference_rejection(items, matrix)
