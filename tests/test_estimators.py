import itertools
import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
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
    ladder_toy_26,
    predict_hcp,
    predict_knn,
    predict_sfr,
    second_derivative,
    sfr_gradient,
    sfr_objective,
    split_ratings,
)
from rategraph import estimators
from rategraph.synthetic import tent_ring_dataset
from tests.conftest import random_connected_graph, random_observed


def smoothed_sum(graph, values, config):
    """Independent evaluation of the objective the gradient differentiates."""
    field = second_derivative(graph, values)
    s = field.values[field.defined]
    eps, p = config.smoothing_eps, config.p
    return float(np.sum((s * s + eps * eps) ** (p / 2) - eps**p))


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
        g = sfr_gradient(square.graph, np.full(4, 4.0), ["B", "D"], cfg)
        assert np.all(g == 0.0)

    def test_square_random_matches_finite_differences(self, square):
        cfg = SolverConfig(bounds=(1, 9))
        rng = np.random.default_rng(2)
        for _ in range(5):
            r = rng.uniform(1, 9, 4)
            free = ["B", "D"]
            got = sfr_gradient(square.graph, r, free, cfg)
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
        got = sfr_gradient(g, r, free, cfg)
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
        # only the first smoothing stage fails; the last one converging must
        # not mask it
        real = estimators._pgd_stage
        flags = []

        def first_stage_fails(*args):
            x, iters, converged = real(*args)
            flags.append(converged and len(flags) > 0)
            return x, iters, flags[-1]

        monkeypatch.setattr(estimators, "_pgd_stage", first_stage_fails)
        cfg = SolverConfig(bounds=ladder.bounds)
        rec = predict_sfr(ladder.graph, ladder.observed, set(ladder.graph.items), cfg)
        assert len(flags) > 1 and flags[-1]
        assert not rec.diagnostics.converged

    def test_multi_start_is_deterministic(self, square, monkeypatch):
        monkeypatch.setattr(estimators, "_RESTART_SEED", 5)
        cfg = SolverConfig(bounds=square.bounds, multi_start=3)
        a = predict_sfr(square.graph, square.observed, {"B", "D"}, cfg)
        b = predict_sfr(square.graph, square.observed, {"B", "D"}, cfg)
        assert a.estimates == b.estimates

    def test_multi_start_never_loses_to_single_start(self, ladder, monkeypatch):
        monkeypatch.setattr(estimators, "_RESTART_SEED", 2)
        single = SolverConfig(bounds=ladder.bounds)
        multi = SolverConfig(bounds=ladder.bounds, multi_start=3)
        one = predict_sfr(ladder.graph, ladder.observed, set(ladder.graph.items), single)
        many = predict_sfr(ladder.graph, ladder.observed, set(ladder.graph.items), multi)
        assert many.diagnostics.final_objective <= one.diagnostics.final_objective + 1e-9
        for name, truth in ladder.ground_truth.items():
            assert many.estimates[name] == pytest.approx(truth, abs=1e-2)


def _reference_pgd_stage(x, free_idx, rows, p_mat, pt_mat, config, eps, budget, rel_tol):
    """One-trial-at-a-time projected gradient descent, kept as the reference.

    Every trial clips the full gradient step, evaluates a clipped trial
    exactly and an unclipped one first on the linear model of the second
    derivative; the solver must take exactly the same steps.
    """
    c_l, c_h = config.bounds
    p = config.p
    n = x.size

    def smoothed_sum(vec):
        s = p_mat @ vec - vec
        return s, float(np.sum(estimators._phi(s[rows], p, eps)))

    s, obj = smoothed_sum(x)
    iters = 0
    converged = False
    while iters < budget:
        iters += 1
        u = np.zeros(n)
        u[rows] = estimators._phi_grad(s[rows], p, eps)
        g = (pt_mat @ u - u)[free_idx]
        if not np.any(g):
            converged = True
            break
        delta = np.zeros(n)
        delta[free_idx] = g
        m_delta = p_mat @ delta - delta
        step = estimators._INITIAL_STEP
        accepted = False
        for _ in range(estimators._MAX_BACKTRACKS):
            raw = x[free_idx] - step * g
            cand_free = np.clip(raw, c_l, c_h)
            clipped = not np.array_equal(raw, cand_free)
            if clipped:
                cand = x.copy()
                cand[free_idx] = cand_free
                s_cand, obj_cand = smoothed_sum(cand)
            else:
                s_cand = s - step * m_delta
                obj_cand = float(np.sum(estimators._phi(s_cand[rows], p, eps)))
            if obj_cand < obj:
                if not clipped:
                    cand = x.copy()
                    cand[free_idx] = cand_free
                    s_cand, obj_cand = smoothed_sum(cand)
                    if not obj_cand < obj:
                        step *= estimators._BACKTRACK_FACTOR
                        continue
                accepted = True
                break
            step *= estimators._BACKTRACK_FACTOR
        if not accepted:
            converged = True
            break
        drop = obj - obj_cand
        x, s, obj = cand, s_cand, obj_cand
        if drop < rel_tol * max(abs(obj), 1e-300):
            converged = True
            break
    return x, iters, converged


def _graph_with_gaps(rng, n, unobserved_component):
    """Random connected graph on n items plus a degree-0 item and, if asked, a 3-item second component.

    Observations fall on the connected part and sometimes on the degree-0
    item, so neither that item nor the second component is a row of the
    objective.
    """
    core = random_connected_graph(rng, n)
    items = list(core.items) + ["lone"]
    edges = [(core.items[i], core.items[j], w) for i, j, w in core.edges()]
    if unobserved_component:
        items += ["j0", "j1", "j2"]
        edges += [("j0", "j1", 0.6), ("j1", "j2", 0.3)]
    observed = random_observed(rng, core)
    if rng.uniform() < 0.5:
        observed["lone"] = float(rng.uniform(1, 5))
    return ItemGraph.from_edges(items, edges), observed


def _ring_graph(n_users, n_items, density):
    """A tent-ring training graph and its training ratings, as the benchmark rings build them."""
    split = split_ratings(tent_ring_dataset(2024, n_users, n_items, density), 0.8, seed=1)
    return build_item_graph(split.train, threshold=0.9, min_support=3), split.train


_STOCK_STEPS = (estimators._INITIAL_STEP, estimators._BACKTRACK_FACTOR)
_ODD_STEPS = (0.37, 0.3)


def _use_step_rule(monkeypatch, first, factor):
    """Make the line search start at ``first`` and shrink by ``factor``, for the solver and the reference."""
    monkeypatch.setattr(estimators, "_INITIAL_STEP", first)
    monkeypatch.setattr(estimators, "_BACKTRACK_FACTOR", factor)
    monkeypatch.setattr(estimators, "_STEP_LADDER", estimators._step_ladder(first, factor))


def _bit_identity_cases():
    """Criterion-6-style random graphs, the ladder, one non-default step rule,
    graphs whose rows are a strict subset of the items, and one tent-ring user.

    Each case is (graph, observed, config, (initial step, backtrack factor)).
    """
    cases = []
    for seed in range(200):
        rng = np.random.default_rng(40_000 + seed)
        g = random_connected_graph(rng, int(rng.integers(3, 16)))
        cases.append((g, random_observed(rng, g), SolverConfig(bounds=(1, 5)), _STOCK_STEPS))
    fix = ladder_toy_26()
    cases.append((fix.graph, fix.observed, SolverConfig(bounds=fix.bounds), _STOCK_STEPS))
    cases.append((fix.graph, fix.observed, SolverConfig(bounds=fix.bounds), _ODD_STEPS))
    for seed in range(10):
        rng = np.random.default_rng(41_000 + seed)
        g = random_connected_graph(rng, int(rng.integers(3, 16)))
        cases.append((g, random_observed(rng, g), SolverConfig(bounds=(1, 5)), _ODD_STEPS))
    for seed in range(20):
        rng = np.random.default_rng(42_000 + seed)
        g, observed = _graph_with_gaps(rng, int(rng.integers(3, 16)), seed % 2 == 1)
        cases.append((g, observed, SolverConfig(bounds=(1, 5)), _STOCK_STEPS))
    graph, train = _ring_graph(120, 40, 0.55)
    user = int(np.random.default_rng(43_000).integers(len(train.users)))
    observed = {train.items[i]: r for i, r in train.user_ratings(user).items()}
    cases.append((graph, observed, SolverConfig(bounds=(1, 5)), _STOCK_STEPS))
    return cases


class TestPgdStageBitIdentity:
    def test_matches_one_trial_at_a_time_reference(self, monkeypatch):
        fast_stage = estimators._pgd_stage
        on_bound = 0
        row_subsets = 0

        def counting_reference(x, free_idx, rows, *args):
            nonlocal on_bound, row_subsets
            c_l, c_h = args[2].bounds
            on_bound += int(np.sum((x[free_idx] == c_l) | (x[free_idx] == c_h)))
            row_subsets += rows.size < x.size
            return _reference_pgd_stage(x, free_idx, rows, *args)

        for g, obs, cfg, steps in _bit_identity_cases():
            _use_step_rule(monkeypatch, *steps)
            monkeypatch.setattr(estimators, "_pgd_stage", fast_stage)
            got = predict_sfr(g, obs, set(g.items), cfg)
            monkeypatch.setattr(estimators, "_pgd_stage", counting_reference)
            ref = predict_sfr(g, obs, set(g.items), cfg)
            assert got.estimates == ref.estimates
            assert got.abstentions == ref.abstentions
            assert got.diagnostics == ref.diagnostics
        # the pinned-coordinate path must actually be exercised: some stage
        # starts with a free coordinate already on a bound
        assert on_bound > 0
        # and some stages must leave items out of the objective's rows
        assert row_subsets > 0


class TestPgdStagePinnedCoordinate:
    """A free coordinate on a bound whose gradient points out of the box is
    dropped from the step: one step takes the same trial, after as many exact
    objective evaluations, as with that coordinate fixed."""

    def test_step_and_exact_evaluations_match_the_fixed_coordinate(self, monkeypatch):
        cfg = SolverConfig(bounds=(1, 5))
        real = estimators._smoothed_sum
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(estimators, "_smoothed_sum", counting)

        def one_step(graph, x, free_idx, eps):
            nonlocal calls
            calls = 0
            p_mat, pt_mat = graph.random_walk_matrix(), graph.random_walk_matrix_t()
            rows = np.arange(graph.item_count)
            x_new, _, _ = estimators._pgd_stage(x, free_idx, rows, p_mat, pt_mat, cfg, eps, 1, cfg.objective_rel_tol)
            return x_new, calls

        cases = screened_out = 0
        for seed in range(80):
            rng = np.random.default_rng(44_000 + seed)
            graph = random_connected_graph(rng, int(rng.integers(4, 10)))
            n = graph.item_count
            # nearly flat, so small second derivatives make the first trials overshoot
            flat = rng.uniform(4.9, 5.0, n)
            free_idx = np.sort(rng.choice(n, size=int(rng.integers(2, n)), replace=False))
            for j, eps in itertools.product(free_idx, (0.1, 1e-3)):
                x = flat.copy()
                x[j] = 5.0
                s = graph.random_walk_matrix() @ x - x
                u = estimators._phi_grad(s, cfg.p, eps)
                g = graph.random_walk_matrix_t() @ u - u
                if g[j] >= 0:
                    continue  # pushed into the box, so the coordinate moves
                rest = free_idx[free_idx != j]
                pinned, n_pinned = one_step(graph, x, free_idx, eps)
                fixed, n_fixed = one_step(graph, x, rest, eps)
                assert pinned.tobytes() == fixed.tobytes()
                assert n_pinned == n_fixed
                cases += 1
                # ladder position of the accepted trial; every earlier trial
                # would be evaluated exactly if the pinned coordinate clipped it
                trials = np.clip(x[rest] - estimators._STEP_LADDER * g[rest], 1, 5)
                k = next((k for k, t in enumerate(trials) if np.array_equal(t, fixed[rest])), None)
                if k is not None:
                    screened_out += (k + 1) - (n_fixed - 1)
        assert cases > 20
        # the screen must have spared some exact evaluations, or a stage that
        # kept the pinned coordinate would pass too
        assert screened_out > 0


@st.composite
def _csr_and_vector(draw):
    """A float64 CSR matrix, possibly with empty rows and unsorted column
    indices, and a float64 vector of matching length with any float values."""
    m = draw(st.integers(0, 12))
    n = draw(st.integers(1, 12))
    indptr, indices = [0], []
    for _ in range(m):
        row = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        indices += row
        indptr.append(len(indices))
    data = draw(st.lists(st.floats(width=64, allow_nan=False, allow_infinity=False),
                         min_size=len(indices), max_size=len(indices)))
    mat = sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(m, n),
    )
    vec = np.array(draw(st.lists(st.floats(width=64), min_size=n, max_size=n)), dtype=np.float64)
    return mat, vec


def _graph_matrices(graph):
    return [graph.adjacency, graph.random_walk_matrix(), graph.random_walk_matrix_t()]


class TestMatvec:
    """``_matvec`` must equal scipy's ``mat @ vec`` bit for bit."""

    @given(case=_csr_and_vector())
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_on_any_csr(self, case):
        mat, vec = case
        got = estimators._matvec(mat, vec)
        assert got.dtype == np.float64
        assert got.tobytes() == (mat @ vec).tobytes()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_equals_scipy_on_graphs_with_gaps(self, seed):
        rng = np.random.default_rng(seed)
        graph, _ = _graph_with_gaps(rng, int(rng.integers(2, 12)), bool(rng.integers(2)))
        assert np.any(graph.degree == 0)
        for mat in _graph_matrices(graph):
            vec = rng.normal(size=graph.item_count) * 10.0 ** rng.integers(-8, 8)
            assert estimators._matvec(mat, vec).tobytes() == (mat @ vec).tobytes()

    @pytest.mark.parametrize("shape", [(120, 40, 0.55), (400, 200, 0.3)])
    def test_equals_scipy_on_bench_rings(self, shape):
        graph, _ = _ring_graph(*shape)
        rng = np.random.default_rng(7)
        for mat in _graph_matrices(graph):
            for vec in (np.ones(graph.item_count), rng.uniform(1, 5, graph.item_count)):
                assert estimators._matvec(mat, vec).tobytes() == (mat @ vec).tobytes()

    @pytest.mark.parametrize(
        "vec",
        [
            np.full(8, np.nan)[:4],  # one short: the next slots hold NaN a kernel would read
            np.zeros(6),
            np.zeros(5, dtype=np.float32),
            np.zeros(5, dtype=np.int64),
            np.zeros((5, 1)),
        ],
        ids=["short", "long", "float32", "int64", "column"],
    )
    def test_rejects_wrong_length_or_dtype(self, vec):
        mat = sparse.random(3, 5, density=0.6, format="csr", random_state=0)
        with pytest.raises(ValueError, match="float64 vector of length 5"):
            estimators._matvec(mat, vec)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0},
            {"p": 1.0},
            {"smoothing_eps": 0.0},
            {"max_iterations": 0},
            {"objective_rel_tol": 0.0},
            {"source_tolerance": 0.0},
            {"multi_start": 0},
            {"bounds": (5, 1)},
        ],
    )
    def test_validation(self, kwargs):
        base = {"bounds": (1, 5)}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SolverConfig(**base)

    def test_frozen(self):
        cfg = SolverConfig(bounds=(1, 5))
        with pytest.raises(FrozenInstanceError):
            cfg.p = 0.25

    def test_seven_settings(self):
        names = [f.name for f in fields(SolverConfig)]
        assert names == [
            "bounds", "p", "smoothing_eps", "max_iterations", "objective_rel_tol", "source_tolerance", "multi_start",
        ]


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
            field = second_derivative(g, vec, source_tolerance=1e-6)
            if set(field.sources()) != set(source_idx):
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
