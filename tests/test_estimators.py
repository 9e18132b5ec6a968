import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve

from rategraph import (
    ConvergenceError,
    ItemGraph,
    OracleResult,
    SolverConfig,
    build_item_graph,
    l0_oracle,
    predict_hcp,
    predict_knn,
    predict_sfr,
    second_derivative,
    sfr_objective,
    sources,
    split_ratings,
)
from rategraph import estimators
from rategraph.evaluation import BoundClass, classify_bound
from rategraph.graph import CsrArrays, _apply
from rategraph.synthetic import tent_ring_dataset
from tests.conftest import analytic_gradient, graph_with_gaps, random_connected_graph, random_observed, smoothed_sum


def dense_harmonic(graph, observed):
    """Independent dense solve of (D - W) x = W x_O on the items an observation reaches.

    Returns the free estimates by name and the set of unreached items.
    """
    w = graph.adjacency.toarray()
    n = graph.item_count
    obs = np.array(sorted(graph.item_index[k] for k in observed))
    reach = np.zeros(n, dtype=bool)
    reach[obs] = True
    while True:
        grown = reach | (w @ reach > 0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    free = np.flatnonzero(reach & ~np.isin(np.arange(n), obs))
    vals = np.array([observed[graph.items[i]] for i in obs])
    lap = np.diag(w.sum(axis=1)) - w
    x = np.linalg.solve(lap[np.ix_(free, free)], w[np.ix_(free, obs)] @ vals)
    expected = {graph.items[i]: float(v) for i, v in zip(free, x)}
    unreached = frozenset(graph.items[i] for i in np.flatnonzero(~reach))
    return expected, unreached


def fd_gradient(graph, values, free_names, config, step=1e-6):
    """Central finite differences of the smoothed sum."""
    idx = sorted(graph.item_index[n] for n in free_names)
    out = np.empty(len(idx))
    for k, i in enumerate(idx):
        up, down = values.copy(), values.copy()
        up[i] += step
        down[i] -= step
        out[k] = (smoothed_sum(graph, up, config) - smoothed_sum(graph, down, config)) / (2 * step)
    return out


def _reference_observed_arrays(graph, observed, bounds=None):
    """The per-item loop _observed_arrays replaced: sort by graph index, check each item in turn."""
    idx = np.empty(len(observed), dtype=np.int64)
    val = np.empty(len(observed))
    for k, (name, rating) in enumerate(sorted(observed.items(), key=lambda kv: graph.item_index.get(kv[0], -1))):
        if name not in graph.item_index:
            raise ValueError(f"observed item {name!r} is not in the graph")
        if not math.isfinite(rating):
            raise ValueError(f"observed rating for {name!r} is not finite")
        if bounds is not None and not (bounds[0] <= rating <= bounds[1]):
            raise ValueError(f"observed rating {rating} for {name!r} outside [{bounds[0]}, {bounds[1]}]")
        idx[k] = graph.item_index[name]
        val[k] = float(rating)
    return idx, val


class TestObservedArrays:
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from([f"v{k}" for k in range(1, 27)] + ["nope", "gone"]),
                st.sampled_from([2.0, 4, 5.5, 9.0, 0.5, 10, math.nan, math.inf, -math.inf, np.float64(3.25)]),
            ),
            max_size=12,
        ),
        bounded=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_item_loop(self, ladder, entries, bounded):
        observed = dict(entries)
        bounds = ladder.bounds if bounded else None
        try:
            want = _reference_observed_arrays(ladder.graph, observed, bounds)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                estimators._observed_arrays(ladder.graph, observed, bounds)
            assert str(got.value) == str(exc)
            return
        idx, val = estimators._observed_arrays(ladder.graph, observed, bounds)
        assert idx.tolist() == want[0].tolist()
        assert val.tolist() == want[1].tolist()


class TestUnknownTarget:
    @pytest.mark.parametrize("predict", [predict_knn, predict_hcp, predict_sfr])
    def test_first_missing_target_named(self, ladder, predict):
        config = (SolverConfig(bounds=ladder.bounds),) if predict is predict_sfr else ()
        with pytest.raises(ValueError, match=r"^target item 'nope' is not in the graph$"):
            predict(ladder.graph, ladder.observed, ["v1", "nope", "gone", "v26"], *config)


class TestPredictKnn:
    def test_square_estimates(self, square):
        rec = predict_knn(square.graph, square.observed, {"B", "D"})
        assert rec.estimates["B"] == pytest.approx(5.0)
        assert rec.estimates["D"] == pytest.approx(3.0)
        assert not rec.abstentions

    def test_ladder_v2_single_observed_neighbor(self, ladder):
        rec = predict_knn(ladder.graph, ladder.observed, {"v2"})
        assert rec.estimates["v2"] == pytest.approx(4.0)

    def test_ladder_v26_abstains(self, ladder):
        rec = predict_knn(ladder.graph, ladder.observed, {"v26"})
        assert rec.abstentions == frozenset({"v26"})
        assert "v26" not in rec.estimates

    def test_hard_constraint_observed_exact(self, ladder):
        rec = predict_knn(ladder.graph, ladder.observed, set(ladder.graph.items))
        for name, val in ladder.observed.items():
            assert rec.estimates[name] == val

    def test_local_bound_property(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(rng, int(rng.integers(3, 15)))
            observed = random_observed(rng, g)
            rec = predict_knn(g, observed, set(g.items))
            for name, est in rec.estimates.items():
                if name in observed:
                    continue
                i = g.item_index[name]
                neigh, _ = g.neighbors(i)
                vals = [observed[g.items[j]] for j in neigh if g.items[j] in observed]
                assert vals, "estimate without observed neighbor"
                assert min(vals) - 1e-12 <= est <= max(vals) + 1e-12

    def test_targets_covered(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng, 8)
        observed = random_observed(rng, g)
        targets = set(g.items)
        rec = predict_knn(g, observed, targets)
        assert set(rec.estimates) | set(rec.abstentions) >= targets

    def test_unknown_target_rejected(self, square):
        with pytest.raises(ValueError, match="target"):
            predict_knn(square.graph, square.observed, {"Z"})


class TestPredictHcp:
    def test_square_exact_thirds(self, square):
        rec = predict_hcp(square.graph, square.observed, {"B", "D"})
        assert rec.estimates["B"] == pytest.approx(13 / 3, abs=1e-9)
        assert rec.estimates["D"] == pytest.approx(11 / 3, abs=1e-9)

    def test_ladder_against_dense_oracle(self, ladder):
        cases = [(ladder.graph, ladder.observed)]
        for seed in range(40):
            rng = np.random.default_rng(900 + seed)
            g = random_connected_graph(rng, int(rng.integers(3, 25)))
            cases.append((g, random_observed(rng, g)))
        # three components and an isolated item; only the first two
        # components hold an observation, so the rest must abstain
        for seed in range(40):
            rng = np.random.default_rng(950 + seed)
            parts = [random_connected_graph(rng, int(rng.integers(2, 12))) for _ in range(3)]
            items = [f"c{c}{name}" for c, part in enumerate(parts) for name in part.items]
            adjacency = sparse.block_diag(
                [part.adjacency for part in parts] + [sparse.csr_matrix((1, 1))], format="csr"
            )
            g = ItemGraph(items + ["alone"], adjacency)
            observed = {}
            for c, part in enumerate(parts[:2]):
                observed.update(
                    {f"c{c}{name}": val for name, val in random_observed(rng, part).items()}
                )
            cases.append((g, observed))
        for g, observed in cases:
            rec = predict_hcp(g, observed, set(g.items))
            expected, unreachable = dense_harmonic(g, observed)
            assert rec.abstentions == unreachable
            assert set(rec.estimates) == set(observed) | set(expected)
            for name, val in expected.items():
                assert rec.estimates[name] == pytest.approx(val, abs=1e-10)

    def test_ladder_matches_expected_values(self, ladder):
        # the fixture's harmonic solution, rounded to one decimal
        expected = {
            "v1": 4.4, "v2": 4.2, "v3": 4.6, "v4": 4.6, "v5": 4.2,
            "v7": 4.8, "v8": 4.8, "v10": 5.0, "v13": 5.0, "v14": 6.0,
            "v17": 6.0, "v19": 6.2, "v20": 6.2, "v22": 6.8, "v23": 6.4,
            "v24": 6.4, "v25": 6.8, "v26": 6.6,
        }
        rec = predict_hcp(ladder.graph, ladder.observed, set(expected))
        for name, shown in expected.items():
            assert rec.estimates[name] == pytest.approx(shown, abs=0.05)

    def test_constant_boundary_extends_constant(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            observed = {name: 3.0 for name in random_observed(rng, g)}
            rec = predict_hcp(g, observed, set(g.items))
            assert not rec.abstentions
            for val in rec.estimates.values():
                assert val == pytest.approx(3.0, abs=1e-9)

    def test_maximum_principle(self):
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            g = random_connected_graph(rng, int(rng.integers(3, 15)))
            observed = random_observed(rng, g)
            rec = predict_hcp(g, observed, set(g.items))
            lo, hi = min(observed.values()), max(observed.values())
            for name, est in rec.estimates.items():
                assert lo - 1e-12 <= est <= hi + 1e-12

    def test_abstains_without_observation_in_component(self):
        from rategraph import ItemGraph

        g = ItemGraph.from_edges(
            ["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)]
        )
        rec = predict_hcp(g, {"a": 2.0}, {"b", "c", "d"})
        assert rec.estimates["b"] == pytest.approx(2.0)
        assert rec.abstentions == frozenset({"c", "d"})

    def test_out_of_graph_observation_rejected(self, square):
        with pytest.raises(ValueError, match="observed"):
            predict_hcp(square.graph, {"nope": 3.0}, {"B"})

    def test_relaxation_path_matches_direct_solve(self, ladder):
        # the iterative solve against a sparse LU solve of the same reduced
        # Laplacian, on the ladder and on a weighted ring with chords long
        # enough to take many CG iterations
        rng = np.random.default_rng(7)
        n = 300
        rows = np.concatenate([np.arange(n), rng.integers(0, n, size=n // 10)])
        cols = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, size=n // 10)])
        keep = rows != cols
        w = sparse.coo_matrix(
            (rng.uniform(0.2, 1.0, size=keep.sum()), (rows[keep], cols[keep])), shape=(n, n)
        ).tocsr()
        ring = ItemGraph([f"r{k}" for k in range(n)], (w + w.T).tocsr())
        ring_observed = {f"r{k}": float(rng.uniform(1.0, 5.0)) for k in (0, 97, 211)}
        for g, observed in [(ladder.graph, ladder.observed), (ring, ring_observed)]:
            relaxed = predict_hcp(g, observed, set(g.items))
            obs = np.array(sorted(g.item_index[k] for k in observed))
            free = np.setdiff1d(np.arange(g.item_count), obs)
            vals = np.array([observed[g.items[i]] for i in obs])
            lap = (sparse.diags(g.degree) - g.adjacency).tocsc()
            direct = spsolve(lap[free][:, free], g.adjacency[free][:, obs] @ vals)
            for i, val in zip(free, direct):
                assert relaxed.estimates[g.items[i]] == pytest.approx(val, abs=1e-8)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_cg_cap_reports_nonconvergence(self, ladder, monkeypatch):
        # no residual is within a negative tolerance, so the solve runs into
        # its cap; on the way the residual underflows to zero, and the NaN
        # steps that follow must end in the error, not in a result
        monkeypatch.setattr(estimators, "_CG_REL_TOL", -1.0)
        with pytest.raises(ConvergenceError, match="harmonic CG solve did not reach"):
            predict_hcp(ladder.graph, ladder.observed, {"v1"})

    def test_reduces_to_knn_on_fully_observed_neighborhoods(self):
        # when the unobserved items form an independent set, every harmonic
        # equation decouples into a plain observed-neighbor average
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            g = random_connected_graph(rng, int(rng.integers(4, 14)))
            hidden: list[int] = []
            blocked: set[int] = set()
            for i in rng.permutation(g.item_count):
                if int(i) not in blocked:
                    hidden.append(int(i))
                    blocked.update(int(j) for j in g.neighbors(int(i))[0])
                    blocked.add(int(i))
            observed = {
                g.items[i]: float(rng.uniform(1, 5))
                for i in range(g.item_count)
                if i not in set(hidden)
            }
            if not observed:
                continue
            targets = {g.items[i] for i in hidden}
            knn = predict_knn(g, observed, targets)
            hcp = predict_hcp(g, observed, targets)
            assert knn.abstentions == hcp.abstentions
            for name in knn.estimates:
                assert knn.estimates[name] == pytest.approx(
                    hcp.estimates[name], abs=1e-10
                ), f"seed {seed}"


class TestSfrObjective:
    def test_constant_vector_is_zero(self, square):
        cfg = SolverConfig(bounds=(1, 9))
        assert sfr_objective(square.graph, np.full(4, 2.0), cfg) == 0.0

    def test_ladder_ground_truth_norm_is_four(self, ladder):
        cfg = SolverConfig(bounds=(1, 9), smoothing_eps=1e-12)
        truth = np.array([ladder.ground_truth[n] for n in ladder.graph.items])
        assert sfr_objective(ladder.graph, truth, cfg) == pytest.approx(4.0, abs=1e-4)

    def test_square_harmonic_norm_sixteen_thirds(self, square):
        cfg = SolverConfig(bounds=(1, 9), smoothing_eps=1e-12)
        g = square.graph
        r = np.empty(4)
        r[g.item_index["A"]] = 5.0
        r[g.item_index["B"]] = 13 / 3
        r[g.item_index["C"]] = 3.0
        r[g.item_index["D"]] = 11 / 3
        assert sfr_objective(g, r, cfg) == pytest.approx(16 / 3, abs=1e-4)

    def test_norm_is_pth_root_of_sum(self, ladder):
        cfg = SolverConfig(bounds=(1, 9))
        truth = np.array([ladder.ground_truth[n] for n in ladder.graph.items])
        norm = sfr_objective(ladder.graph, truth, cfg)
        assert norm == pytest.approx(smoothed_sum(ladder.graph, truth, cfg) ** (1 / cfg.p))


class TestSfrGradient:
    def test_constant_vector_zero_gradient(self, square):
        cfg = SolverConfig(bounds=(1, 9))
        g = analytic_gradient(square.graph, np.full(4, 4.0), ["B", "D"], cfg)
        assert np.all(g == 0.0)

    def test_square_random_matches_finite_differences(self, square):
        cfg = SolverConfig(bounds=(1, 9))
        rng = np.random.default_rng(2)
        for _ in range(5):
            r = rng.uniform(1, 9, 4)
            free = ["B", "D"]
            got = analytic_gradient(square.graph, r, free, cfg)
            ref = fd_gradient(square.graph, r, free, cfg)
            err = np.abs(got - ref) / np.maximum.reduce([np.abs(ref), np.abs(got), np.full_like(ref, 1e-8)])
            assert err.max() < 1e-4

    def test_ladder_at_harmonic_point_matches_fd(self, ladder):
        # free rows sit at grad2 ~ 0 here, deep inside the smoothing cup,
        # where a 1e-6 finite-difference step only measures round-off; the
        # meaningful comparison is absolute+relative per coordinate
        cfg = SolverConfig(bounds=(1, 9))
        g = ladder.graph
        rec = predict_hcp(g, ladder.observed, set(g.items))
        r = np.array([rec.estimates[n] for n in g.items])
        free = [n for n in g.items if n not in ladder.observed]
        got = analytic_gradient(g, r, free, cfg)
        ref = fd_gradient(g, r, free, cfg)
        assert np.all(np.abs(got - ref) <= 1e-4 * np.maximum(np.abs(got), np.abs(ref)) + 1e-6)


class TestPredictSfr:
    def test_ladder_recovery(self, ladder):
        cfg = SolverConfig(bounds=ladder.bounds)
        rec = predict_sfr(ladder.graph, ladder.observed, set(ladder.graph.items), cfg)
        for name, truth in ladder.ground_truth.items():
            assert rec.estimates[name] == pytest.approx(truth, abs=1e-2), name
        # v1 and v26 sit outside the observed range [4, 7]
        assert rec.estimates["v1"] == pytest.approx(2.0, abs=1e-2)
        assert rec.estimates["v26"] == pytest.approx(9.0, abs=1e-2)
        assert rec.diagnostics.source_count == 2

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_source_count_is_sources_above_the_smoothing_floor(self, eps):
        # the objective treats a second derivative at or below its floor as flat, so the count uses that floor
        graph, split = _ring_graph(120, 40, 0.55)
        cfg = SolverConfig(bounds=(1.0, 5.0), smoothing_eps=eps)
        counts = []
        for observed in _bound_users(graph, split, 20):
            rec = predict_sfr(graph, observed, graph.items, cfg)
            # items without an estimate lie in components no observation reaches: zero there adds no source
            full = np.zeros(graph.item_count)
            for name, value in rec.estimates.items():
                full[graph.item_index[name]] = value
            s = second_derivative(graph, full)
            assert rec.diagnostics.source_count == sources(s, cfg.smoothing_eps).size
            counts.append(rec.diagnostics.source_count)
        assert 0 < min(counts)

    def test_ladder_converges_at_the_defaults(self, ladder):
        # each smoothing stage stops on its own tolerance within its share of
        # the default budget, the first (eps = 1) stage included
        cfg = SolverConfig(bounds=ladder.bounds)
        rec = predict_sfr(ladder.graph, ladder.observed, set(ladder.graph.items), cfg)
        assert rec.diagnostics.converged

    def test_constant_observations_stay_constant(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            observed = {name: 4.0 for name in random_observed(rng, g)}
            cfg = SolverConfig(bounds=(1, 5))
            rec = predict_sfr(g, observed, set(g.items), cfg)
            for val in rec.estimates.values():
                assert val == pytest.approx(4.0, abs=1e-9)
            assert rec.diagnostics.converged
            assert rec.diagnostics.final_objective == pytest.approx(0.0, abs=1e-12)

    def test_square_never_worse_than_harmonic_start(self, square):
        cfg = SolverConfig(bounds=square.bounds)
        hcp = predict_hcp(square.graph, square.observed, {"B", "D"})
        warm = np.empty(4)
        g = square.graph
        for name in g.items:
            warm[g.item_index[name]] = square.observed.get(name, hcp.estimates.get(name))
        rec = predict_sfr(g, square.observed, {"B", "D"}, cfg)
        final = np.empty(4)
        for name in g.items:
            final[g.item_index[name]] = rec.estimates[name] if name in rec.estimates else warm[g.item_index[name]]
        assert smoothed_sum(g, final, cfg) <= smoothed_sum(g, warm, cfg) + 1e-6

    def test_hard_constraint_and_box(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            g = random_connected_graph(rng, int(rng.integers(4, 12)))
            observed = random_observed(rng, g)
            cfg = SolverConfig(bounds=(1, 5))
            rec = predict_sfr(g, observed, set(g.items), cfg)
            for name, val in observed.items():
                assert rec.estimates[name] == val
            for val in rec.estimates.values():
                assert 1.0 - 1e-12 <= val <= 5.0 + 1e-12

    def test_abstentions_match_hcp(self):
        from rategraph import ItemGraph

        g = ItemGraph.from_edges(
            ["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)]
        )
        cfg = SolverConfig(bounds=(1, 5))
        rec = predict_sfr(g, {"a": 2.0}, {"b", "c", "d"}, cfg)
        assert rec.abstentions == frozenset({"c", "d"})

    def test_out_of_bounds_observation_rejected(self, square):
        cfg = SolverConfig(bounds=(1, 5))
        with pytest.raises(ValueError, match="outside"):
            predict_sfr(square.graph, {"A": 9.0, "C": 3.0}, {"B"}, cfg)

    def test_exhausted_budget_reported_as_not_converged(self, ladder):
        cfg = SolverConfig(bounds=ladder.bounds, max_iterations=7)
        rec = predict_sfr(ladder.graph, ladder.observed, set(ladder.graph.items), cfg)
        assert rec.diagnostics.iterations_used == 7
        assert not rec.diagnostics.converged

    def test_converged_requires_every_stage(self, ladder, monkeypatch):
        # only the first smoothing stage runs out of its budget; the last one
        # converging must not mask it
        real = estimators._stage_budget

        def first_stage_gets_one(config, n_stages, stage, used):
            return 1 if stage == 0 else real(config, n_stages, stage, used)

        monkeypatch.setattr(estimators, "_stage_budget", first_stage_gets_one)
        cfg = SolverConfig(bounds=ladder.bounds)
        flags = []
        start = estimators._sfr_start(ladder.graph, ladder.observed, cfg)
        want = _reference_descent(start, *_walk_pair(ladder.graph), cfg, flags)
        assert len(flags) > 1 and not flags[0] and flags[-1]
        rec = predict_sfr(ladder.graph, ladder.observed, set(ladder.graph.items), cfg)
        assert rec.diagnostics.iterations_used == want[1]
        assert not rec.diagnostics.converged


def _ring_graph(n_users, n_items, density):
    """A tent-ring training graph and its split, as the benchmark rings build them."""
    split = split_ratings(tent_ring_dataset(2024, n_users, n_items, density), 0.8, seed=1)
    return build_item_graph(split.train, threshold=0.9, min_support=3), split


def _bound_users(graph, split, count):
    """The first ``count`` users, in sorted order, with a higher or lower test record, and their observations."""
    bound = (BoundClass.HIGHER, BoundClass.LOWER)
    users = sorted({r.user_id for r in split.test if r.item_id in graph.item_index
                    and classify_bound(r, split.train, graph) in bound})[:count]
    train = split.train
    for user in users:
        rated = train.user_ratings(train.user_index[user])
        yield {train.items[i]: r for i, r in rated.items() if train.items[i] in graph.item_index}


def _walk_matrix(graph):
    """D^-1 W with zero rows for degree-0 items, built as a scipy matrix apart from the fused operator."""
    inv = np.zeros(graph.item_count)
    nz = graph.degree > 0
    inv[nz] = 1.0 / graph.degree[nz]
    p = sparse.diags(inv) @ graph.adjacency
    p = p.tocsr()
    p.sort_indices()
    return p


def _walk_pair(graph):
    """P and P^T as sorted scipy CSR matrices."""
    p_mat = _walk_matrix(graph)
    pt_mat = p_mat.T.tocsr()
    pt_mat.sort_indices()
    return p_mat, pt_mat


# -- the SPG stage as it was written before it ran on the fused P - I arrays:
# scipy matrices, a product and a subtraction per second derivative, a copy
# per trial and np.clip. Each column of the block must match it bit for bit.


def _reference_phi(s, p, eps):
    t = s * s
    t += eps * eps
    t **= 0.5 * p
    t -= eps**p
    return t


def _reference_phi_grad(s, p, eps):
    t = s * s
    t += eps * eps
    t **= 0.5 * p - 1.0
    t *= p * s
    return t


def _reference_smoothed_sum(p_mat, vec, rows, p, eps):
    s = p_mat @ vec
    s -= vec
    return s, float(_reference_phi(s[rows], p, eps).sum())


def _reference_spg_stage(x, free_idx, rows, p_mat, pt_mat, config, eps, budget, rel_tol):
    c_l, c_h = config.bounds
    p = config.p
    if rows.size == x.size:
        rows = slice(None)
    u = np.zeros(x.size)

    def gradient(s):
        u[rows] = _reference_phi_grad(s[rows], p, eps)
        g = pt_mat @ u
        g -= u
        return g[free_idx]

    s, obj = _reference_smoothed_sum(p_mat, x, rows, p, eps)
    g = gradient(s)
    alpha = estimators._INITIAL_STEP
    iters = 0
    while iters < budget:
        iters += 1
        x_free = x[free_idx]
        d = np.clip(x_free - alpha * g, c_l, c_h)
        d -= x_free
        if not np.count_nonzero(d):
            return x, iters, True
        lam = 1.0
        for _ in range(estimators._MAX_BACKTRACKS):
            cand = x.copy()
            cand[free_idx] = np.clip(x_free + lam * d, c_l, c_h)
            s, obj_cand = _reference_smoothed_sum(p_mat, cand, rows, p, eps)
            if obj_cand < obj:
                break
            lam *= estimators._BACKTRACK_FACTOR
        else:
            return x, iters, True
        g_new = gradient(s)
        step = cand[free_idx] - x_free
        y = g_new - g
        sy = step @ y
        if sy > 0:
            bb = step @ step / sy if iters % 2 else sy / (y @ y)
            alpha = min(max(bb, estimators._MIN_STEP), estimators._MAX_STEP)
        else:
            alpha = estimators._INITIAL_STEP
        drop = obj - obj_cand
        x, obj, g = cand, obj_cand, g_new
        if drop < rel_tol * max(abs(obj), 1e-300):
            return x, iters, True
    return x, iters, False


def _reference_descent(start, p_mat, pt_mat, config, flags=None):
    """The smoothing continuation over the reference stage: each stage an even share of the iterations left.

    Returns ``(x, iterations, converged)``; ``flags``, if given, gets each stage's ``converged``.
    """
    stages = estimators._eps_schedule(config.smoothing_eps)
    x, used, converged = start.warm, 0, True
    for stage, eps in enumerate(stages):
        budget = estimators._stage_budget(config, len(stages), stage, used)
        if budget is None:
            return x, used, False
        x, iters, stage_converged = _reference_spg_stage(
            x, start.free_idx, start.rows, p_mat, pt_mat, config, eps, budget, estimators._OBJECTIVE_REL_TOL
        )
        used += iters
        converged = converged and stage_converged
        if flags is not None:
            flags.append(stage_converged)
    return x, used, converged


def _objective(op, vec, rows, cfg):
    """The smoothed sum at ``vec`` over ``rows``, as the descent evaluates it."""
    eps = cfg.smoothing_eps
    return estimators._smoothed_sums(op, vec[:, None], eps * eps, eps**cfg.p, cfg.p, [rows])[2][0]


class TestEpsSchedule:
    """The smoothing continuation steps tenfold from one rating unit down to ``smoothing_eps``."""

    @pytest.mark.parametrize(
        "eps, stages",
        [
            (1.0, [1.0]),
            (2.5, [2.5]),
            (1e-6, [1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]),
            (SolverConfig(bounds=(1.0, 5.0)).smoothing_eps, [1.0, 0.1, 1e-2]),
        ],
        ids=["one", "above-one", "seven-stages", "default"],
    )
    def test_stages(self, eps, stages):
        got = estimators._eps_schedule(eps)
        assert got == pytest.approx(stages, rel=1e-12)
        assert got[-1] == eps


class TestSpgStage:
    """Properties of one smoothing stage of the descent, checked on :func:`_spg_stage` at the case's smoothing
    with the whole budget for every column (TestSpgBlock holds the whole continuation to the reference), on
    random graphs with a degree-0 item (so every user's objective rows skip items) and sometimes an
    unobserved component, from the warm start or a random point of the box. In the box (1.3, 4.7), unlike
    (1, 5), x + lambda d often rounds past a bound."""

    @staticmethod
    def _case(seed):
        """A graph, a config and one to three starts of a block, each with a free item."""
        rng = np.random.default_rng(seed)
        graph, observed = graph_with_gaps(rng, int(rng.integers(3, 14)), bool(rng.integers(2)))
        lo, hi = (1.0, 5.0) if rng.uniform() < 0.5 else (1.3, 4.7)
        eps = float(rng.choice([1.0, 1e-2, 1e-6]))
        cfg = SolverConfig(bounds=(lo, hi), smoothing_eps=eps, max_iterations=300)
        starts = []
        for obs in [observed] + [random_observed(rng, graph) for _ in range(int(rng.integers(3)))]:
            start = estimators._sfr_start(graph, {name: lo + (r - 1) * (hi - lo) / 4 for name, r in obs.items()}, cfg)
            if rng.uniform() < 0.5:
                start.warm[start.free_idx] = rng.uniform(lo, hi, start.free_idx.size)
            if start.free_idx.size:
                starts.append(start)
        return graph, cfg, starts

    @staticmethod
    def _stage(graph, cfg, starts, block=None):
        """One stage at the case's smoothing over a block of the starts, rows passed as the descent passes them."""
        n = graph.item_count
        if block is None:
            block = np.stack([start.warm for start in starts], axis=1)
        rows = [start.rows if start.rows.size < n else None for start in starts]
        return estimators._spg_stage(block, [start.free_idx for start in starts], rows, graph, cfg,
                                     cfg.smoothing_eps, [cfg.max_iterations] * len(starts))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_pins_observations_keeps_the_box_and_never_ends_above_its_start(self, seed):
        graph, cfg, starts = self._case(seed)
        op = graph.second_difference_operators()[0]
        fixed = [np.setdiff1d(np.arange(graph.item_count), start.free_idx) for start in starts]
        trials = []
        real = estimators._apply

        def recording(arrays, vecs):
            if arrays is op:
                trials.append(vecs.copy())
            return real(arrays, vecs)

        def pinned_and_boxed(vec, k):
            return vec[fixed[k]].tobytes() == starts[k].warm[fixed[k]].tobytes() and np.all(
                (vec[starts[k].free_idx] >= cfg.bounds[0]) & (vec[starts[k].free_idx] <= cfg.bounds[1]))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_apply", recording)
            got = self._stage(graph, cfg, starts)
        # every vector the block evaluates keeps some start's observed entries bit for bit and its free ones
        # inside the box; columns leave the block in any order, so a column is matched by its observed entries
        assert len(trials) >= max(iters for _, iters, _ in got)
        for block in trials:
            for vec in block.T:
                assert any(pinned_and_boxed(vec, k) for k in range(len(starts)))
        for k, (start, (out, iters, _)) in enumerate(zip(starts, got)):
            assert 1 <= iters <= 300
            assert pinned_and_boxed(out, k)
            assert _objective(op, out, start.rows, cfg) <= _objective(op, start.warm, start.rows, cfg)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_loop(self, seed):
        graph, cfg, starts = self._case(seed)
        before = [start.warm.tobytes() for start in starts]
        block = np.stack([start.warm for start in starts], axis=1)
        got = self._stage(graph, cfg, starts, block)
        p_mat, pt_mat = _walk_pair(graph)
        for start, mine in zip(starts, got):
            want = _reference_spg_stage(start.warm, start.free_idx, start.rows, p_mat, pt_mat, cfg,
                                        cfg.smoothing_eps, cfg.max_iterations, estimators._OBJECTIVE_REL_TOL)
            assert mine[0].tobytes() == want[0].tobytes()
            assert mine[1:] == want[1:]
        assert [start.warm.tobytes() for start in starts] == before
        assert block.tobytes() == np.stack([start.warm for start in starts], axis=1).tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_two_runs_agree(self, seed):
        graph, cfg, starts = self._case(seed)
        first = self._stage(graph, cfg, starts)
        second = self._stage(graph, cfg, starts)
        assert [(x.tobytes(), *rest) for x, *rest in first] == [(x.tobytes(), *rest) for x, *rest in second]

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_gradient_exits_at_once(self, seed, monkeypatch):
        # a path with one power-of-two weight has walk weights of exactly 1 and
        # 1/2, so a constant vector has a zero second derivative and gradient
        rng = np.random.default_rng(seed)
        items = [f"i{k}" for k in range(int(rng.integers(3, 12)))]
        weight = float(rng.choice([0.25, 0.5, 1.0]))
        graph = ItemGraph.from_edges(items, [(a, b, weight) for a, b in zip(items, items[1:])])
        cfg = SolverConfig(bounds=(1, 5))
        level = float(rng.choice([1.0, 3.5, 5.0]))
        observed = {name: level for name in random_observed(rng, graph)}
        start = estimators._sfr_start(graph, observed, cfg)
        op = graph.second_difference_operators()[0]
        calls = 0
        real = estimators._apply

        def counting(arrays, vecs):
            nonlocal calls
            calls += arrays is op
            return real(arrays, vecs)

        monkeypatch.setattr(estimators, "_apply", counting)
        [(out, iters, converged)] = estimators._spg_block([start], graph, cfg)
        # each stage evaluates its start and one trial, which equals it, and ends after one iteration
        stages = len(estimators._eps_schedule(cfg.smoothing_eps))
        assert (iters, converged, calls) == (stages, True, 2 * stages)
        assert out.tobytes() == start.warm.tobytes()

    @pytest.mark.parametrize(
        "make",
        [lambda n: np.zeros(n - 1), lambda n: np.zeros(n, dtype=np.float32), lambda n: np.zeros((n, 1))],
        ids=["short", "float32", "column"],
    )
    def test_rejects_a_start_of_the_wrong_length_or_dtype(self, ladder, make):
        n = ladder.graph.item_count
        cfg = SolverConfig(bounds=(1, 9))
        good = estimators._sfr_start(ladder.graph, ladder.observed, cfg)
        bad = estimators._SfrStart(make(n), np.arange(2), np.arange(n))
        with pytest.raises(ValueError, match=f"float64 vector of length {n}"):
            estimators._spg_block([good, bad], ladder.graph, cfg)


def _reference_predictions(graph, users, cfg):
    """predict_sfr for each observed map, every item a target, with the descent run by the reference continuation."""
    p_mat, pt_mat = _walk_pair(graph)
    out = []
    for observed in users:
        start = estimators._sfr_start(graph, observed, cfg)
        # a start with no free item has nothing to descend
        descent = _reference_descent(start, p_mat, pt_mat, cfg) if start.free_idx.size else (start.warm, 0, True)
        out.append(predict_sfr(graph, observed, list(graph.items), cfg, _descent=(start, descent)))
    return out


def _block_predictions(graph, users, cfg, size):
    """predict_sfr for each observed map, with the descents of each ``size`` users run as one block, as evaluate runs them."""
    out = []
    for b in range(0, len(users), size):
        block = users[b:b + size]
        starts = [estimators._sfr_start(graph, observed, cfg) for observed in block]
        out += [predict_sfr(graph, observed, list(graph.items), cfg, _descent=descent)
                for observed, descent in zip(block, zip(starts, estimators._spg_block(starts, graph, cfg)))]
    return out


def _assert_same_recovery(got, want):
    assert sorted(got.estimates) == sorted(want.estimates)
    assert np.array([got.estimates[k] for k in sorted(got.estimates)]).tobytes() == \
        np.array([want.estimates[k] for k in sorted(want.estimates)]).tobytes()
    assert got.abstentions == want.abstentions
    assert got.diagnostics == want.diagnostics


class TestPredictSfrMatchesReference:
    """predict_sfr on the reference continuation, alone and in blocks of ten: the same bytes."""

    @pytest.mark.parametrize("shape", [(120, 40, 0.55), (400, 200, 0.3)], ids=["ring120", "ring400"])
    def test_first_bound_users_of_the_bench_rings(self, shape):
        graph, split = _ring_graph(*shape)
        cfg = SolverConfig(bounds=(1.0, 5.0))
        p_mat = _walk_pair(graph)[0]
        users = list(_bound_users(graph, split, 30))
        blocked = _block_predictions(graph, users, cfg, 10)
        wanted = _reference_predictions(graph, users, cfg)
        for observed, in_block, want in zip(users, blocked, wanted):
            got = predict_sfr(graph, observed, list(graph.items), cfg)
            _assert_same_recovery(got, want)
            _assert_same_recovery(in_block, want)
            # the final objective, recomputed from the estimates with P @ x - x
            solved = np.zeros(graph.item_count, dtype=bool)
            vec = np.zeros(graph.item_count)
            for name, value in got.estimates.items():
                solved[graph.item_index[name]] = True
                vec[graph.item_index[name]] = value
            rows = np.flatnonzero(solved & (graph.degree > 0))
            total = _reference_smoothed_sum(p_mat, vec, rows, cfg.p, cfg.smoothing_eps)[1]
            assert np.float64(got.diagnostics.final_objective).tobytes() == np.float64(total ** (1 / cfg.p)).tobytes()


class TestSpgBlock:
    """Descents run as a block, each equal to predict_sfr on the reference continuation byte for byte, on
    random graphs with a degree-0 item (which makes every user's objective rows skip it) or a second
    component, users who observe them or not, a fully observed user and one with no free item, observations
    on a bound and at +0.0 and -0.0, boxes with a bound at +0.0 or -0.0, and budgets that run out in the middle of a
    block."""

    @given(seed=st.integers(0, 2**32 - 1), max_iterations=st.sampled_from([3, 7, 25, 10_000]))
    @settings(max_examples=100, deadline=None)
    # free values that come to rest on a bound of -0.0
    @example(seed=3, max_iterations=10_000)
    @example(seed=67, max_iterations=10_000)
    @example(seed=138, max_iterations=25)
    def test_matches_the_reference(self, seed, max_iterations):
        rng = np.random.default_rng(seed)
        core = random_connected_graph(rng, int(rng.integers(3, 12)))
        items = list(core.items)
        edges = [(core.items[i], core.items[j], w) for i, j, w in core.edges()]
        if rng.uniform() < 0.3:
            items.append("lone")
        if rng.uniform() < 0.5:
            items += ["j0", "j1", "j2"]
            edges += [("j0", "j1", 0.6), ("j1", "j2", 0.3)]
        graph = ItemGraph.from_edges(items, edges)
        extra = [name for name in items if name not in core.item_index]
        users = []
        for _ in range(int(rng.integers(2, 7))):
            observed = random_observed(rng, core)
            # most users also rate the extra items, so that their objective covers every item but "lone"
            if extra and rng.uniform() < 0.7:
                observed.update({name: float(rng.uniform(1, 5)) for name in extra if name != "j2"})
            users.append(observed)
        users.insert(int(rng.integers(len(users) + 1)), {name: float(rng.uniform(1, 5)) for name in items})
        # every core item observed, the rest unobserved: degree-0 or unreached, so no item is free
        users.insert(int(rng.integers(len(users) + 1)), {name: float(rng.uniform(1, 5)) for name in core.items})
        zero = float(rng.choice([0.0, -0.0]))
        lo, hi = [(1.0, 5.0), (1.3, 4.7), (-2.0, 2.0), (zero, 5.0), (-5.0, zero)][int(rng.integers(5))]
        # a rating r of 1..5 scaled into the box; some land on a bound, and at 0 with either sign where the
        # box holds it
        special = [lo, hi] + ([0.0, -0.0] if lo <= 0 <= hi else [])
        users = [
            {name: float(rng.choice(special)) if rng.uniform() < 0.2 else lo + (r - 1) * (hi - lo) / 4
             for name, r in observed.items()}
            for observed in users
        ]
        cfg = SolverConfig(bounds=(lo, hi), max_iterations=max_iterations)
        blocked = _block_predictions(graph, users, cfg, int(rng.integers(2, len(users) + 1)))
        for got, want in zip(blocked, _reference_predictions(graph, users, cfg)):
            _assert_same_recovery(got, want)

    def test_hands_the_kernels_c_ordered_blocks(self, monkeypatch):
        # columns leave the block as their stages end; the blocks left behind must stay C-ordered, the
        # layout the kernels read, or graph._apply copies each one before its product
        graph, split = _ring_graph(120, 40, 0.55)
        users = list(_bound_users(graph, split, 10))
        layouts = []
        real = estimators._apply

        def recording(arrays, vecs):
            layouts.append((vecs.shape[1] if vecs.ndim == 2 else 1, vecs.flags.c_contiguous))
            return real(arrays, vecs)

        monkeypatch.setattr(estimators, "_apply", recording)
        cfg = SolverConfig(bounds=(1.0, 5.0))
        estimators._spg_block([estimators._sfr_start(graph, observed, cfg) for observed in users], graph, cfg)
        # some kernel calls come after a column has left and while at least two remain
        assert any(1 < width < len(users) for width, _ in layouts)
        assert all(contiguous for _, contiguous in layouts)

    def test_start_without_free_item_returns_its_warm_start(self, ladder, monkeypatch):
        # every item observed: nothing is free, so the start never enters a stage, alone or in a mixed block
        cfg = SolverConfig(bounds=(1, 9))
        graph = ladder.graph
        full = estimators._sfr_start(graph, {name: 1.0 + k % 9 for k, name in enumerate(graph.items)}, cfg)
        free = estimators._sfr_start(graph, ladder.observed, cfg)
        assert full.free_idx.size == 0 and free.free_idx.size
        [(alone_x, *alone)] = estimators._spg_block([free], graph, cfg)
        widths = []
        real = estimators._apply

        def recording(arrays, vecs):
            widths.append(vecs.shape[1] if vecs.ndim == 2 else 1)
            return real(arrays, vecs)

        monkeypatch.setattr(estimators, "_apply", recording)
        [(x, *rest)] = estimators._spg_block([full], graph, cfg)
        assert (x.tobytes(), rest, widths) == (full.warm.tobytes(), [0, True], [])
        (x0, *rest0), (x, *rest), (x2, *rest2) = estimators._spg_block([free, full, free], graph, cfg)
        assert (x.tobytes(), rest) == (full.warm.tobytes(), [0, True])
        assert max(widths) == 2
        # the columns beside it descend as they do alone
        assert x0.tobytes() == x2.tobytes() == alone_x.tobytes()
        assert rest0 == rest2 == alone


def _with_signed_zeros(rng, vec):
    """``vec`` with about a quarter of its entries set to +0.0 and a quarter to -0.0."""
    vec = vec.copy()
    pick = rng.uniform(size=vec.size)
    vec[pick < 0.25] = 0.0
    vec[pick > 0.75] = -0.0
    return vec


def _reference_sfr_gradient(graph, values, free, config):
    """The sfr gradient as it was written on scipy matrices: P^T @ u - u at the free items."""
    free_idx = np.array(sorted(graph.item_index[name] for name in free), dtype=np.int64)
    p_mat, pt_mat = _walk_pair(graph)
    defined = graph.degree > 0
    vec = np.where(defined, values, 0.0)
    s = p_mat @ vec - vec
    u = np.zeros(graph.item_count)
    u[defined] = _reference_phi_grad(s[defined], config.p, config.smoothing_eps)
    g = pt_mat @ u - u
    return g[free_idx]


class TestSecondDifferenceOperators:
    """The cached P - I arrays equal ``P @ x - x``, their transpose ``P.T @ u - u``, bit for bit.

    So do the second derivatives computed from them: :func:`second_derivative`
    and the source count of :func:`predict_sfr`.
    """

    @staticmethod
    def _check(graph, rng, observed_sets):
        op, op_t = graph.second_difference_operators()
        p_mat = _walk_matrix(graph)
        defined = graph.degree > 0
        for _ in range(3):
            x = _with_signed_zeros(rng, rng.normal(size=graph.item_count) * 10.0 ** rng.integers(-8, 8))
            assert _apply(op, x).tobytes() == (p_mat @ x - x).tobytes()
            assert _apply(op_t, x).tobytes() == (p_mat.T @ x - x).tobytes()
            safe = np.where(defined, x, 0.0)
            want = np.where(defined, p_mat @ safe - safe, np.nan)
            assert second_derivative(graph, x).tobytes() == want.tobytes()
        for x in (np.zeros(graph.item_count), -np.zeros(graph.item_count)):
            assert _apply(op, x).tobytes() == (p_mat @ x - x).tobytes()
            assert _apply(op_t, x).tobytes() == (p_mat.T @ x - x).tobytes()
        cfg = SolverConfig(bounds=(1.0, 5.0))
        for observed in observed_sets:
            rec = predict_sfr(graph, observed, graph.items, cfg)
            # the count as it was made before: P @ x - x on the estimates, zero off the objective's rows
            rows = np.zeros(graph.item_count, dtype=bool)
            vec = np.zeros(graph.item_count)
            for name, value in rec.estimates.items():
                rows[graph.item_index[name]] = True
                vec[graph.item_index[name]] = value
            rows &= defined
            vec = np.where(rows, vec, 0.0)
            s = p_mat @ vec - vec
            assert rec.diagnostics.source_count == int(np.sum(np.abs(s[rows]) > cfg.smoothing_eps))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_graphs_with_gaps(self, seed):
        rng = np.random.default_rng(seed)
        graph, observed = graph_with_gaps(rng, int(rng.integers(2, 12)), bool(rng.integers(2)))
        assert np.any(graph.degree == 0)
        self._check(graph, rng, [observed])

    @pytest.mark.parametrize("shape", [(120, 40, 0.55), (400, 200, 0.3)], ids=["ring120", "ring400"])
    def test_bench_rings(self, shape):
        graph, split = _ring_graph(*shape)
        self._check(graph, np.random.default_rng(7), _bound_users(graph, split, 10))

    def test_diagonal_last_read_only_and_cached(self, ladder):
        ops = ladder.graph.second_difference_operators()
        assert ladder.graph.second_difference_operators() is ops
        for op in ops:
            last = op.indptr[1:] - 1
            assert op.indices[last].tolist() == list(range(ladder.graph.item_count))
            assert np.all(op.data[last] == -1.0)
            assert not any(arr.flags.writeable for arr in op)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sfr_gradient_matches_scipy_matrices(self, seed):
        rng = np.random.default_rng(seed)
        graph, observed = graph_with_gaps(rng, int(rng.integers(2, 12)), bool(rng.integers(2)))
        cfg = SolverConfig(bounds=(1, 5), smoothing_eps=float(rng.choice([1.0, 1e-2, 1e-6])))
        values = _with_signed_zeros(rng, rng.uniform(1, 5, graph.item_count))
        free = [name for name in graph.items if name not in observed]
        got = analytic_gradient(graph, values, free, cfg)
        assert got.tobytes() == _reference_sfr_gradient(graph, values, free, cfg).tobytes()

    @pytest.mark.parametrize("shape", [(120, 40, 0.55), (400, 200, 0.3)], ids=["ring120", "ring400"])
    def test_sfr_gradient_on_bench_rings(self, shape):
        graph, split = _ring_graph(*shape)
        cfg = SolverConfig(bounds=(1.0, 5.0))
        rng = np.random.default_rng(3)
        for observed in _bound_users(graph, split, 5):
            values = rng.uniform(1, 5, graph.item_count)
            free = [name for name in graph.items if name not in observed]
            assert analytic_gradient(graph, values, free, cfg).tobytes() == \
                _reference_sfr_gradient(graph, values, free, cfg).tobytes()


_CLIP_FLOATS = st.floats(width=64) | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


class TestClip:
    """``estimators._clip`` is the ufunc behind ``np.clip``: the same values, NaN and signed zeros included."""

    @given(
        values=st.lists(_CLIP_FLOATS, max_size=20),
        bounds=st.tuples(_CLIP_FLOATS, _CLIP_FLOATS).filter(lambda b: b[0] < b[1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_np_clip(self, values, bounds):
        vec = np.array(values, dtype=np.float64)
        want = np.clip(vec, *bounds)
        assert estimators._clip(vec, *bounds).tobytes() == want.tobytes()
        # the block passes its bounds as 0-d arrays
        assert estimators._clip(vec, *map(np.array, bounds)).tobytes() == want.tobytes()
        estimators._clip(vec, *bounds, out=vec)
        assert vec.tobytes() == want.tobytes()


@st.composite
def _csr_and_vector(draw, block=False):
    """A square float64 CSR matrix, possibly with empty rows and unsorted column
    indices, and a float64 vector of matching length with any float values, or
    with ``block`` an (n x k) block of them."""
    n = draw(st.integers(1, 12))
    indptr, indices = [0], []
    for _ in range(n):
        row = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        indices += row
        indptr.append(len(indices))
    data = draw(st.lists(st.floats(width=64, allow_nan=False, allow_infinity=False),
                         min_size=len(indices), max_size=len(indices)))
    mat = sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(n, n),
    )
    shape = (n, draw(st.integers(1, 6))) if block else (n,)
    size = int(np.prod(shape))
    vec = np.array(draw(st.lists(st.floats(width=64), min_size=size, max_size=size)), dtype=np.float64)
    return mat, vec.reshape(shape)


def _graph_matrices(graph):
    return [graph.adjacency, *_walk_pair(graph)]


def _arrays(mat):
    return CsrArrays(mat.indptr, mat.indices, mat.data)


class TestMatvec:
    """``graph._apply`` must equal scipy's ``mat @ vec`` bit for bit, on a vector and on each column of a block."""

    @given(case=_csr_and_vector())
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_on_any_csr(self, case):
        mat, vec = case
        got = _apply(_arrays(mat), vec)
        assert got.dtype == np.float64
        assert got.tobytes() == (mat @ vec).tobytes()

    @given(case=_csr_and_vector(block=True))
    @settings(max_examples=300, deadline=None)
    def test_each_column_of_a_block_equals_scipy(self, case):
        # a NaN's sign and payload depend on the operand order of the addition
        # that meets two NaNs, which the two kernels need not share; every other
        # entry, signed zeros and infinities included, is equal bit for bit
        mat, vecs = case
        got = _apply(_arrays(mat), vecs)
        assert got.shape == vecs.shape and got.dtype == np.float64
        for j in range(vecs.shape[1]):
            want = mat @ vecs[:, j]
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got[:, j]), nan)
            assert got[~nan, j].tobytes() == want[~nan].tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_equals_scipy_on_graphs_with_gaps(self, seed):
        rng = np.random.default_rng(seed)
        graph, _ = graph_with_gaps(rng, int(rng.integers(2, 12)), bool(rng.integers(2)))
        assert np.any(graph.degree == 0)
        for mat in _graph_matrices(graph):
            vec = rng.normal(size=graph.item_count) * 10.0 ** rng.integers(-8, 8)
            assert _apply(_arrays(mat), vec).tobytes() == (mat @ vec).tobytes()
            vecs = rng.normal(size=(graph.item_count, int(rng.integers(2, 9))))
            got = _apply(_arrays(mat), vecs)
            assert all(got[:, j].tobytes() == (mat @ vecs[:, j]).tobytes() for j in range(vecs.shape[1]))

    @pytest.mark.parametrize("shape", [(120, 40, 0.55), (400, 200, 0.3)])
    def test_equals_scipy_on_bench_rings(self, shape):
        graph, _ = _ring_graph(*shape)
        rng = np.random.default_rng(7)
        for mat in _graph_matrices(graph):
            for vec in (np.ones(graph.item_count), rng.uniform(1, 5, graph.item_count)):
                assert _apply(_arrays(mat), vec).tobytes() == (mat @ vec).tobytes()
            # the widths of the benchmark's blocks and of evaluate's
            for k in (9, 64):
                vecs = rng.uniform(1, 5, (graph.item_count, k))
                got = _apply(_arrays(mat), vecs)
                assert all(got[:, j].tobytes() == (mat @ vecs[:, j]).tobytes() for j in range(k))

    @pytest.mark.parametrize(
        "vec",
        [
            np.full(8, np.nan)[:4],  # one short: the next slots hold NaN a kernel would read
            np.zeros(6),
            np.zeros(5, dtype=np.float32),
            np.zeros(5, dtype=np.int64),
            np.zeros((4, 1)),
            np.zeros((5, 2), dtype=np.float32),
            np.zeros((5, 1, 1)),
        ],
        ids=["short", "long", "float32", "int64", "column", "float32 block", "3-d"],
    )
    def test_rejects_wrong_length_or_dtype(self, vec):
        mat = sparse.random(5, 5, density=0.6, format="csr", random_state=0)
        with pytest.raises(ValueError, match="float64 vector of length 5"):
            _apply(_arrays(mat), vec)


def _reference_knn(graph, observed):
    """predict_knn's estimates as they were made on scipy's matrix: ``w @ ind`` and ``w @ vals``."""
    ind, vals = np.zeros(graph.item_count), np.zeros(graph.item_count)
    for name, rating in observed.items():
        ind[graph.item_index[name]] = 1.0
        vals[graph.item_index[name]] = rating
    w = graph.adjacency
    with np.errstate(invalid="ignore"):
        est = (w @ vals) / (w @ ind)
    return {**{graph.items[i]: float(est[i]) for i in np.flatnonzero(~np.isnan(est))}, **observed}


class TestGraphProductsMatchScipy:
    """The estimators' products with the graph, made from its raw arrays, equal the scipy formulations they
    replaced bit for bit: predict_knn's two products with W and l0_oracle's dense P - I."""

    @staticmethod
    def _check_knn(graph, observed):
        rec = predict_knn(graph, observed, graph.items)
        want = _reference_knn(graph, observed)
        assert {k: v.hex() for k, v in rec.estimates.items()} == {k: v.hex() for k, v in want.items()}
        assert rec.abstentions == frozenset(graph.items) - want.keys()

    @staticmethod
    def _check_dense(graph, observed):
        # the oracle's dense matrix is the one n x n array it allocates
        zeros, made = np.zeros, []
        n = graph.item_count

        def spy(shape, *args, **kwargs):
            out = zeros(shape, *args, **kwargs)
            if shape == (n, n):
                made.append(out)
            return out

        with pytest.MonkeyPatch.context() as m:
            m.setattr(np, "zeros", spy)
            l0_oracle(graph, observed, (1.0, 5.0), max_sources=0)
        op = graph.second_difference_operators()[0]
        want = sparse.csr_matrix((op.data, op.indices, op.indptr), shape=(n, n)).toarray()
        assert len(made) == 1 and made[0].tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_graphs_with_gaps(self, seed):
        rng = np.random.default_rng(seed)
        graph, observed = graph_with_gaps(rng, int(rng.integers(2, 12)), bool(rng.integers(2)))
        assert np.any(graph.degree == 0)
        self._check_knn(graph, observed)
        self._check_dense(graph, observed)

    @pytest.mark.parametrize("shape", [(120, 40, 0.55), (400, 200, 0.3)], ids=["ring120", "ring400"])
    def test_bench_rings(self, shape):
        graph, split = _ring_graph(*shape)
        users = list(_bound_users(graph, split, 10))
        for observed in users:
            self._check_knn(graph, observed)
        self._check_dense(graph, users[0])


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0},
            {"p": 1.0},
            {"smoothing_eps": 0.0},
            {"max_iterations": 0},
            {"bounds": (5, 1)},
            # NaN fails every comparison, so a check written as `value <= 0` lets it through
            {"smoothing_eps": math.nan},
            {"smoothing_eps": math.inf},
            {"max_iterations": math.nan},
            {"max_iterations": math.inf},
            # a float budget is shared out among the stages in fractions, and True ran as 1
            {"max_iterations": 2.5},
            {"max_iterations": 10.0},
            {"max_iterations": True},
            {"max_iterations": np.bool_(True)},
            {"max_iterations": "7"},
        ],
    )
    def test_validation(self, kwargs):
        base = {"bounds": (1, 5)}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SolverConfig(**base)

    def test_fractional_budget_named(self):
        with pytest.raises(ValueError, match=r"^max_iterations must be an integer, got 2\.5$"):
            SolverConfig(bounds=(1, 5), max_iterations=2.5)

    @pytest.mark.parametrize("kind", [int, np.int32, np.int64, np.uint16])
    def test_integer_budgets_accepted(self, ladder, kind):
        cfg = SolverConfig(bounds=ladder.bounds, max_iterations=kind(7))
        rec = predict_sfr(ladder.graph, ladder.observed, set(ladder.graph.items), cfg)
        assert rec.diagnostics.iterations_used == 7

    def test_frozen(self):
        cfg = SolverConfig(bounds=(1, 5))
        with pytest.raises(FrozenInstanceError):
            cfg.p = 0.25

    def test_four_settings(self):
        names = [f.name for f in fields(SolverConfig)]
        assert names == ["bounds", "p", "smoothing_eps", "max_iterations"]


class TestL0Oracle:
    def test_ladder_minimum_is_two_with_ground_truth(self, ladder):
        res = l0_oracle(ladder.graph, ladder.observed, ladder.bounds, max_sources=3)
        assert res.min_source_count == 2
        match = [s for s in res.solutions if s.sources == frozenset({"v1", "v26"})]
        assert match, "expected the {v1, v26} completion"
        sol = match[0]
        assert sol.residual < 1e-8
        for name, truth in ladder.ground_truth.items():
            assert sol.values[name] == pytest.approx(truth, abs=1e-8)

    def test_square_feasible_source_sets(self, square):
        res = l0_oracle(square.graph, square.observed, square.bounds, max_sources=2)
        assert res.min_source_count == 2
        got = {tuple(sorted(s.sources)) for s in res.solutions}
        assert got == {("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")}
        by_sources = {tuple(sorted(s.sources)): s for s in res.solutions}
        ac = by_sources[("A", "C")]
        assert ac.values["B"] == pytest.approx(13 / 3, abs=1e-9)
        assert ac.values["D"] == pytest.approx(11 / 3, abs=1e-9)
        ad = by_sources[("A", "D")]
        assert ad.values["B"] == pytest.approx(3.0, abs=1e-9)
        assert ad.values["D"] == pytest.approx(1.0, abs=1e-9)

    def test_square_excludes_ab(self, square):
        # sources {A, B} force B = -1, outside [1, 9]
        res = l0_oracle(square.graph, square.observed, square.bounds, max_sources=2)
        assert ("A", "B") not in {tuple(sorted(s.sources)) for s in res.solutions}

    def test_fully_observed_flat_function_needs_no_sources(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(rng, 6)
        observed = {name: 3.0 for name in g.items}
        res = l0_oracle(g, observed, (1, 5), max_sources=2)
        assert res.min_source_count == 0
        assert len(res.solutions) == 1

    def test_infeasible_reported_not_raised(self, square):
        res = l0_oracle(square.graph, square.observed, square.bounds, max_sources=1)
        assert isinstance(res, OracleResult)
        assert res.min_source_count is None
        assert res.solutions == []

    def test_enumeration_guard(self):
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 60)
        with pytest.raises(ValueError, match="guard"):
            l0_oracle(g, {g.items[0]: 3.0}, (1, 5), max_sources=5)

    def test_recovers_planted_source_count(self):
        # a lone source cannot exist on a connected graph (degree-weighted
        # second derivatives sum to zero), so the smallest nontrivial plant
        # is a source pair
        k = 2
        recovered = 0
        for seed in range(12):
            rng = np.random.default_rng(700 + seed)
            n = int(rng.integers(5, 10))
            g = random_connected_graph(rng, n)
            source_idx = sorted(rng.choice(n, size=k, replace=False).tolist())
            pins = {g.items[i]: float(rng.uniform(1.5, 4.5)) for i in source_idx}
            full = predict_hcp(g, pins, set(g.items)).estimates
            vec = np.array([full[name] for name in g.items])
            second = second_derivative(g, vec)
            if set(np.flatnonzero(np.abs(second) > 1e-6)) != set(source_idx):
                continue  # degenerate plant (a pinned node came out flat)
            observed = {name: full[name] for name in g.items if g.item_index[name] not in source_idx}
            spread = max(observed.values()) - min(observed.values())
            if spread < 0.1:
                continue  # constant observations admit a source-free completion
            res = l0_oracle(g, observed, (1, 5), max_sources=2)
            assert res.min_source_count == k, f"seed {seed}"
            assert any(
                s.sources == frozenset(g.items[i] for i in source_idx) for s in res.solutions
            )
            recovered += 1
        assert recovered >= 8
