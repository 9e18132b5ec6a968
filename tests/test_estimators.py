import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from rategraph import (
    ConvergenceError,
    ItemGraph,
    OracleResult,
    SolverConfig,
    l0_oracle,
    ladder_toy_26,
    predict_hcp,
    predict_knn,
    predict_sfr,
    second_derivative,
    sfr_gradient,
    sfr_objective,
)
from rategraph import estimators
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

    def test_multi_start_is_deterministic(self, square):
        cfg = SolverConfig(bounds=square.bounds, multi_start=3, multi_start_seed=5)
        a = predict_sfr(square.graph, square.observed, {"B", "D"}, cfg)
        b = predict_sfr(square.graph, square.observed, {"B", "D"}, cfg)
        assert a.estimates == b.estimates

    def test_multi_start_never_loses_to_single_start(self, ladder):
        single = SolverConfig(bounds=ladder.bounds)
        multi = SolverConfig(bounds=ladder.bounds, multi_start=3, multi_start_seed=2)
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
        step = config.initial_step
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
                        step *= config.backtrack_factor
                        continue
                accepted = True
                break
            step *= config.backtrack_factor
        if not accepted:
            converged = True
            break
        drop = obj - obj_cand
        x, s, obj = cand, s_cand, obj_cand
        if drop < rel_tol * max(abs(obj), 1e-300):
            converged = True
            break
    return x, iters, converged


def _bit_identity_cases():
    """Criterion-6-style random graphs, the ladder, and one non-default step rule."""
    cases = []
    for seed in range(200):
        rng = np.random.default_rng(40_000 + seed)
        g = random_connected_graph(rng, int(rng.integers(3, 16)))
        cases.append((g, random_observed(rng, g), SolverConfig(bounds=(1, 5))))
    fix = ladder_toy_26()
    cases.append((fix.graph, fix.observed, SolverConfig(bounds=fix.bounds)))
    odd = SolverConfig(bounds=fix.bounds, initial_step=0.37, backtrack_factor=0.3)
    cases.append((fix.graph, fix.observed, odd))
    for seed in range(10):
        rng = np.random.default_rng(41_000 + seed)
        g = random_connected_graph(rng, int(rng.integers(3, 16)))
        odd = SolverConfig(bounds=(1, 5), initial_step=0.37, backtrack_factor=0.3)
        cases.append((g, random_observed(rng, g), odd))
    return cases


class TestPgdStageBitIdentity:
    def test_matches_one_trial_at_a_time_reference(self, monkeypatch):
        cases = _bit_identity_cases()
        fast = [predict_sfr(g, obs, set(g.items), cfg) for g, obs, cfg in cases]
        on_bound = 0

        def counting_reference(x, free_idx, *args):
            nonlocal on_bound
            c_l, c_h = args[3].bounds
            on_bound += int(np.sum((x[free_idx] == c_l) | (x[free_idx] == c_h)))
            return _reference_pgd_stage(x, free_idx, *args)

        monkeypatch.setattr(estimators, "_pgd_stage", counting_reference)
        for (g, obs, cfg), got in zip(cases, fast):
            ref = predict_sfr(g, obs, set(g.items), cfg)
            assert got.estimates == ref.estimates
            assert got.abstentions == ref.abstentions
            assert got.diagnostics == ref.diagnostics
        # the pinned-coordinate path must actually be exercised: some stage
        # starts with a free coordinate already on a bound
        assert on_bound > 0


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0},
            {"p": 1.0},
            {"smoothing_eps": 0.0},
            {"max_iterations": 0},
            {"objective_rel_tol": 0.0},
            {"initial_step": 0.0},
            {"backtrack_factor": 1.0},
            {"source_tolerance": 0.0},
            {"multi_start": 0},
            {"bounds": (5, 1)},
        ],
    )
    def test_validation(self, kwargs):
        base = {"bounds": (1, 5)}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SolverConfig(**base).validate()


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
