"""Per-user rating estimators on an item graph.

Four ways to complete a user's rating function from its observed values:

* ``knn``  - weighted average over *observed* neighbors (classic item-based
  collaborative filtering). Locally bounded: an estimate can never leave the
  range of the observed neighbor ratings it averages.
* ``hcp``  - harmonic interpolation: force the second derivative to vanish
  at every unobserved item and solve the linear system. Globally bounded by
  the maximum principle.
* ``sfr``  - scalar function recovery: minimize the l_p norm (p = 1/2) of
  the second derivative over *all* items, pinning observed ratings and
  clamping to the legal rating range. Not bounded by observations, so true
  local extremes can be recovered.
* ``l0_oracle`` - exhaustive minimal-source search, tractable only on small
  graphs; the exact combinatorial problem the l_p objective approximates.

All estimators are pure functions of (graph, observed, config) and abstain
on items they cannot reach (degree-0 items and components containing no
observation); callers decide how to fill abstentions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Optional

import numpy as np
from scipy import sparse

from .graph import ItemGraph, second_derivative

__all__ = [
    "METHODS",
    "ConvergenceError",
    "SolverConfig",
    "SolverDiagnostics",
    "UserRecovery",
    "OracleSolution",
    "OracleResult",
    "predict_knn",
    "predict_hcp",
    "sfr_objective",
    "sfr_gradient",
    "predict_sfr",
    "l0_oracle",
]

METHODS = ("knn", "hcp", "sfr", "l0_oracle")

# the harmonic CG solve stops once every free second derivative is this
# fraction of the largest observed rating magnitude
_CG_REL_TOL = 1e-12
# line search never halves more than this many times per step
_MAX_BACKTRACKS = 60
# line-search trials screened together; most steps are accepted within the
# first few halvings, so one batch usually decides a step
_SCREEN_CHUNK = 8
# continuation starts smoothing at one rating unit and divides by 10 per stage
_EPS_START = 1.0


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its residual target."""


@dataclass
class SolverConfig:
    """Knobs of the sparse-recovery solver; defaults match the experiments."""

    bounds: tuple[float, float]
    p: float = 0.5
    smoothing_eps: float = 1e-6
    max_iterations: int = 10_000
    objective_rel_tol: float = 1e-8
    initial_step: float = 0.1
    backtrack_factor: float = 0.5
    source_tolerance: float = 1e-3
    # extra perturbed warm starts (the objective is nonconvex); 1 = single start
    multi_start: int = 1
    multi_start_seed: int = 0
    multi_start_noise: float = 0.5

    def validate(self) -> None:
        c_l, c_h = self.bounds
        if not c_l < c_h:
            raise ValueError("bounds must satisfy c_l < c_h")
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        if self.smoothing_eps <= 0:
            raise ValueError("smoothing_eps must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.objective_rel_tol <= 0:
            raise ValueError("objective_rel_tol must be positive")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must lie strictly between 0 and 1")
        if self.source_tolerance <= 0:
            raise ValueError("source_tolerance must be positive")
        if self.multi_start < 1:
            raise ValueError("multi_start must be at least 1")


@dataclass
class SolverDiagnostics:
    iterations_used: int
    final_objective: float
    source_count: int
    converged: bool


@dataclass
class UserRecovery:
    """One user's observed constraints plus the recovered estimates.

    ``estimates`` always carries the observed items at their observed values
    exactly (the hard constraint); ``abstentions`` are requested items no
    estimate exists for. Every requested target is in one or the other.
    """

    observed: dict[str, float]
    estimates: dict[str, float]
    abstentions: frozenset[str]
    method: str
    diagnostics: Optional[SolverDiagnostics] = None


# -- shared helpers -------------------------------------------------------------


def _observed_arrays(
    graph: ItemGraph,
    observed: dict[str, float],
    bounds: Optional[tuple[float, float]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    idx = np.empty(len(observed), dtype=np.int64)
    val = np.empty(len(observed))
    for k, (name, rating) in enumerate(sorted(observed.items(), key=lambda kv: graph.item_index.get(kv[0], -1))):
        if name not in graph.item_index:
            raise ValueError(f"observed item {name!r} is not in the graph")
        if not math.isfinite(rating):
            raise ValueError(f"observed rating for {name!r} is not finite")
        if bounds is not None and not (bounds[0] <= rating <= bounds[1]):
            raise ValueError(
                f"observed rating {rating} for {name!r} outside [{bounds[0]}, {bounds[1]}]"
            )
        idx[k] = graph.item_index[name]
        val[k] = float(rating)
    return idx, val


def _target_indices(graph: ItemGraph, targets: Iterable[str]) -> list[str]:
    names = [str(t) for t in targets]
    for t in names:
        if t not in graph.item_index:
            raise ValueError(f"target item {t!r} is not in the graph")
    return names


def _assemble(
    graph: ItemGraph,
    observed: dict[str, float],
    targets: Iterable[str],
    values: np.ndarray,
    solved: np.ndarray,
    method: str,
    diagnostics: Optional[SolverDiagnostics] = None,
) -> UserRecovery:
    estimates: dict[str, float] = dict(observed)
    abstain: set[str] = set()
    for name in _target_indices(graph, targets):
        if name in observed:
            continue
        i = graph.item_index[name]
        if solved[i]:
            estimates[name] = float(values[i])
        else:
            abstain.add(name)
    return UserRecovery(
        observed=dict(observed),
        estimates=estimates,
        abstentions=frozenset(abstain),
        method=method,
        diagnostics=diagnostics,
    )


def _harmonic_extend(
    graph: ItemGraph,
    obs_idx: np.ndarray,
    obs_val: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve grad2 R = 0 on unobserved items, observed entries fixed.

    Returns (values, solved): NaN outside the solved set, which is the
    observed items plus every positive-degree item whose component contains
    at least one observation. The free values solve the symmetric positive
    definite system (D - W) x = W x_O restricted to that free set, by
    conjugate gradients with the degrees as Jacobi preconditioner. The
    iteration runs on full-length vectors with the free set as a mask, so
    each step costs one product with the adjacency matrix. It stops once
    every free residual divided by its degree, which is the second
    derivative there, is at most ``_CG_REL_TOL`` times the largest observed
    rating magnitude; missing that within the cap raises
    :class:`ConvergenceError`.
    """
    n = graph.item_count
    values = np.full(n, np.nan)
    solved = np.zeros(n, dtype=bool)
    if obs_idx.size == 0:
        return values, solved
    values[obs_idx] = obs_val
    solved[obs_idx] = True

    labels = graph.component_labels()
    n_comp = int(labels.max()) + 1
    obs_mask = np.zeros(n, dtype=bool)
    obs_mask[obs_idx] = True
    comp_observed = np.zeros(n_comp, dtype=bool)
    comp_observed[labels[obs_idx]] = True
    free = (~obs_mask) & comp_observed[labels] & (graph.degree > 0)
    free_idx = np.flatnonzero(free)
    if free_idx.size:
        w, d = graph.adjacency, graph.degree
        mask = free.astype(np.float64)
        inv_d = np.zeros(n)
        inv_d[free_idx] = 1.0 / d[free_idx]
        x = np.zeros(n)
        x[obs_idx] = obs_val
        r = mask * (w @ x)
        z = r * inv_d
        p = z.copy()
        rz = r @ z
        tol = _CG_REL_TOL * float(np.max(np.abs(obs_val)))
        # exact arithmetic ends within m steps; rounding can delay that
        cap = 10 * free_idx.size
        steps = 0
        # a NaN residual fails the test and runs into the cap
        while not np.abs(z).max() <= tol:
            if steps == cap:
                raise ConvergenceError(
                    f"harmonic CG solve did not reach residual {tol:.3g} within {cap} iterations"
                )
            steps += 1
            q = mask * (d * p - w @ p)
            alpha = rz / (p @ q)
            x += alpha * p
            r -= alpha * q
            z = r * inv_d
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        solved[free_idx] = True

        # maximum principle: estimates stay inside the observed range of
        # their component; clip away solver round-off so the property is exact
        comp_min = np.full(n_comp, np.inf)
        comp_max = np.full(n_comp, -np.inf)
        np.minimum.at(comp_min, labels[obs_idx], obs_val)
        np.maximum.at(comp_max, labels[obs_idx], obs_val)
        values[free_idx] = np.clip(
            x[free_idx], comp_min[labels[free_idx]], comp_max[labels[free_idx]]
        )
    return values, solved


# -- kNN and HCP ------------------------------------------------------------------


def predict_knn(
    graph: ItemGraph,
    observed: dict[str, float],
    targets: Iterable[str],
) -> UserRecovery:
    """Weighted average of the user's observed ratings over each target's neighbors.

    Abstains when a target has no observed neighbor (or no neighbors at all).
    """
    obs_idx, obs_val = _observed_arrays(graph, observed)
    n = graph.item_count
    ind = np.zeros(n)
    vals = np.zeros(n)
    ind[obs_idx] = 1.0
    vals[obs_idx] = obs_val
    w = graph.adjacency
    weight_sum = w @ ind
    rating_sum = w @ vals
    solved = weight_sum > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        est = np.where(solved, rating_sum / np.where(solved, weight_sum, 1.0), np.nan)
    return _assemble(graph, observed, targets, est, solved, "knn")


def predict_hcp(
    graph: ItemGraph,
    observed: dict[str, float],
    targets: Iterable[str],
) -> UserRecovery:
    """Harmonic interpolation: grad2 R = 0 at every unobserved item.

    Estimates all unobserved items of a component simultaneously; abstains on
    components with no observation and on degree-0 items.
    """
    obs_idx, obs_val = _observed_arrays(graph, observed)
    values, solved = _harmonic_extend(graph, obs_idx, obs_val)
    return _assemble(graph, observed, targets, values, solved, "hcp")


# -- smoothed l_p objective --------------------------------------------------------
#
# phi(x) = (x^2 + eps^2)^(p/2) - eps^p is the standard smooth surrogate for
# |x|^p: it is zero at zero, tends to |x|^p as eps -> 0, and has derivative
# p*x*(x^2+eps^2)^(p/2-1), which vanishes at 0 instead of diverging like the
# raw |x|^(p-1) would. (The sharper surrogate (sqrt(x^2+eps^2)-eps)^p keeps a
# kink at 0 for p <= 1/2, which freezes descent at any all-flat point.)


def _phi(s: np.ndarray, p: float, eps: float) -> np.ndarray:
    return (s * s + eps * eps) ** (0.5 * p) - eps**p


def _phi_grad(s: np.ndarray, p: float, eps: float) -> np.ndarray:
    return p * s * (s * s + eps * eps) ** (0.5 * p - 1.0)


def _smoothed_sum(
    p_mat: sparse.csr_matrix, vec: np.ndarray, rows: np.ndarray, p: float, eps: float
) -> tuple[np.ndarray, float]:
    """Second derivative s = P vec - vec and the smoothed sum of phi(s) over ``rows``."""
    s = p_mat @ vec - vec
    return s, float(_phi(s[rows], p, eps).sum())


def sfr_objective(graph: ItemGraph, values: np.ndarray, config: SolverConfig) -> float:
    """Smoothed l_p norm of the second derivative of a complete vector.

    Returns (sum_k phi(grad2 R[k]))^(1/p), phi the smoothed |.|^p above.
    The p-th root is monotone in the sum, so optimization minimizes the sum
    and only reports this norm.
    """
    config.validate()
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (graph.item_count,):
        raise ValueError("values must have one entry per item")
    defined = graph.degree > 0
    if not np.all(np.isfinite(values[defined])):
        raise ValueError("values contain non-finite entries on connected items")
    _, total = _smoothed_sum(
        graph.random_walk_matrix(),
        np.where(defined, values, 0.0),
        np.flatnonzero(defined),
        config.p,
        config.smoothing_eps,
    )
    return total ** (1.0 / config.p)


def sfr_gradient(
    graph: ItemGraph,
    values: np.ndarray,
    free: Iterable[str],
    config: SolverConfig,
) -> np.ndarray:
    """Analytic gradient of the smoothed objective *sum* w.r.t. free items.

    ``free`` names unobserved items; the result is ordered by ascending item
    index. Gradient of sum_k phi((P R - R)_k) with P = D^-1 W: chain rule
    through M = P - I gives M^T phi'(s) restricted to the free coordinates.
    """
    config.validate()
    free_idx = np.array(
        sorted(graph.item_index[str(name)] for name in free), dtype=np.int64
    )
    f = second_derivative(graph, values, config.source_tolerance)
    u = np.zeros(graph.item_count)
    u[f.defined] = _phi_grad(f.values[f.defined], config.p, config.smoothing_eps)
    g = graph.random_walk_matrix_t() @ u - u
    return g[free_idx]


# -- scalar function recovery ------------------------------------------------------


def _eps_schedule(eps_final: float) -> list[float]:
    if eps_final >= _EPS_START:
        return [eps_final]
    out = []
    eps = _EPS_START
    while eps > eps_final * (1 + 1e-12):
        out.append(eps)
        eps /= 10.0
    out.append(eps_final)
    return out


def _screened_trials(
    x_free: np.ndarray,
    g: np.ndarray,
    s_rows: np.ndarray,
    m_rows: np.ndarray,
    obj: float,
    ladder: np.ndarray,
    bounds: tuple[float, float],
    p: float,
    eps: float,
) -> Iterator[np.ndarray]:
    """Free coordinates of the line-search trials worth an exact evaluation.

    Trials come in ladder order, the order halving one step at a time tries
    them. A trial that leaves the box is yielded clamped; an unclipped one is
    yielded only when its screen, the linear model s - t * (P d - d) of its
    second derivative, lowers the smoothed sum below ``obj``. The screen is
    computed for ``_SCREEN_CHUNK`` step lengths at once; each row sum equals
    the sum over that one trial bit for bit.
    """
    c_l, c_h = bounds
    for start in range(0, ladder.shape[0], _SCREEN_CHUNK):
        chunk = ladder[start:start + _SCREEN_CHUNK]
        raw = x_free - chunk * g
        clipped = (raw.min(axis=1) < c_l) | (raw.max(axis=1) > c_h)
        screen = _phi(s_rows - chunk * m_rows, p, eps).sum(axis=1)
        for k in range(chunk.shape[0]):
            if clipped[k]:
                yield raw[k].clip(c_l, c_h)
            elif screen[k] < obj:
                yield raw[k]


def _pgd_stage(
    x: np.ndarray,
    free_idx: np.ndarray,
    rows: np.ndarray,
    p_mat: sparse.csr_matrix,
    pt_mat: sparse.csr_matrix,
    config: SolverConfig,
    eps: float,
    budget: int,
    rel_tol: float,
) -> tuple[np.ndarray, int, bool]:
    """Projected gradient descent at one smoothing level.

    Each step walks along the analytic gradient with a backtracking line
    search (halving from ``initial_step`` until the objective decreases) and
    clamps the free coordinates to the rating bounds. Stops when the relative
    objective decrease falls under ``rel_tol``, when no step length decreases
    the objective, or when the iteration budget runs out; ``converged`` is
    False only in the last case. The objective is non-increasing across
    accepted steps by construction. ``rows`` indexes the items whose second
    derivative enters the objective.

    The second derivative is linear in R, so unclipped trial steps are first
    screened on one matvec per direction (see :func:`_screened_trials`), a
    batch of step lengths at a time; the first screened trial whose exact
    objective decreases is accepted. The step ladder is built by repeated
    multiplication, exactly as halving one step at a time builds it.

    A free coordinate that sits on a bound with its gradient pointing out of
    the box would be clamped back onto that bound at every step length, so
    it is dropped from the direction. The trial vectors stay the same, but a
    trial that only such a coordinate would have clipped is now screened
    instead of evaluated exactly. Screen and exact sum differ by rounding
    only, so that can change a decision only for a trial whose objective
    change is itself at rounding level.
    """
    c_l, c_h = config.bounds
    p = config.p
    steps = [config.initial_step]
    for _ in range(_MAX_BACKTRACKS - 1):
        steps.append(steps[-1] * config.backtrack_factor)
    ladder = np.array(steps, dtype=np.float64)[:, None]

    s, obj = _smoothed_sum(p_mat, x, rows, p, eps)
    u = np.zeros(x.size)
    delta = np.zeros(x.size)
    iters = 0
    while iters < budget:
        iters += 1
        u[rows] = _phi_grad(s[rows], p, eps)
        g = (pt_mat @ u - u)[free_idx]
        if not g.any():
            return x, iters, True
        x_free = x[free_idx]
        # pinned on a bound and pushed outward: clamping undoes any step
        g[((x_free == c_l) & (g > 0)) | ((x_free == c_h) & (g < 0))] = 0.0
        delta[free_idx] = g
        m_delta = p_mat @ delta - delta
        trials = _screened_trials(
            x_free, g, s[rows], m_delta[rows], obj, ladder, config.bounds, p, eps
        )
        for cand_free in trials:
            cand = x.copy()
            cand[free_idx] = cand_free
            s_cand, obj_cand = _smoothed_sum(p_mat, cand, rows, p, eps)
            if obj_cand < obj:
                break
        else:
            return x, iters, True
        drop = obj - obj_cand
        x, s, obj = cand, s_cand, obj_cand
        if drop < rel_tol * max(abs(obj), 1e-300):
            return x, iters, True
    return x, iters, False


def _recover(
    warm: np.ndarray,
    free_idx: np.ndarray,
    rows: np.ndarray,
    graph: ItemGraph,
    config: SolverConfig,
) -> tuple[np.ndarray, int, bool]:
    """Continuation loop: anneal the smoothing from one rating unit down.

    At the target smoothing (default 1e-6) the objective has an extremely
    narrow curvature well around every zero of the second derivative, and the
    all-flat harmonic warm start cannot be escaped by descent. Annealing the
    smoothing keeps early stages soft enough for the gradient to reshape the
    solution and late stages sharp enough to pin the sources.

    Reports convergence only if every stage converged within its budget.
    """
    p_mat = graph.random_walk_matrix()
    pt_mat = graph.random_walk_matrix_t()
    stages = _eps_schedule(config.smoothing_eps)
    x = warm.copy()
    used = 0
    converged = True
    for si, eps in enumerate(stages):
        remaining = config.max_iterations - used
        if remaining <= 0:
            converged = False
            break
        budget = max(1, remaining // (len(stages) - si))
        x, iters, stage_converged = _pgd_stage(
            x, free_idx, rows, p_mat, pt_mat, config, eps, budget,
            config.objective_rel_tol,
        )
        used += iters
        converged = converged and stage_converged
    return x, used, converged


def predict_sfr(
    graph: ItemGraph,
    observed: dict[str, float],
    targets: Iterable[str],
    config: SolverConfig,
) -> UserRecovery:
    """Scalar function recovery: minimize the smoothed l_p norm of grad2 R.

    Starts from the harmonic solution, descends with projected gradient
    steps (observed entries never move, free entries clamped to the rating
    bounds after every step), and anneals the smoothing from one rating unit
    down to ``config.smoothing_eps``. If descent somehow ends worse than the
    warm start at the target smoothing, the warm start is returned, so the
    result never loses to harmonic interpolation on the final objective.
    Abstention rules are identical to :func:`predict_hcp`.
    """
    config.validate()
    obs_idx, obs_val = _observed_arrays(graph, observed, config.bounds)
    warm_nan, solved = _harmonic_extend(graph, obs_idx, obs_val)
    obs_mask = np.zeros(graph.item_count, dtype=bool)
    obs_mask[obs_idx] = True
    free_idx = np.flatnonzero(solved & ~obs_mask & (graph.degree > 0))
    row_mask = solved & (graph.degree > 0)
    rows = np.flatnonzero(row_mask)
    warm = np.where(solved, warm_nan, 0.0)
    p_mat = graph.random_walk_matrix()

    def final_objective(vec: np.ndarray) -> float:
        return _smoothed_sum(p_mat, vec, rows, config.p, config.smoothing_eps)[1]

    best = warm
    best_obj = final_objective(warm)
    iterations = 0
    converged = True
    if free_idx.size:
        starts: list[np.ndarray] = [warm]
        if config.multi_start > 1:
            rng = np.random.Generator(np.random.PCG64(config.multi_start_seed))
            for _ in range(config.multi_start - 1):
                perturbed = warm.copy()
                noise = rng.uniform(
                    -config.multi_start_noise, config.multi_start_noise, free_idx.size
                )
                perturbed[free_idx] = np.clip(
                    perturbed[free_idx] + noise, config.bounds[0], config.bounds[1]
                )
                starts.append(perturbed)
        for start in starts:
            x, used, conv = _recover(start, free_idx, rows, graph, config)
            obj = final_objective(x)
            if obj < best_obj:
                best, best_obj, iterations, converged = x, obj, used, conv
            elif start is starts[0]:
                iterations, converged = used, conv

    values = np.where(solved, best, np.nan)
    unsmoothed = second_derivative(graph, np.where(row_mask, best, 0.0), config.source_tolerance)
    masked = np.where(row_mask, unsmoothed.values, 0.0)
    source_count = int(np.sum(np.abs(np.nan_to_num(masked)) > config.source_tolerance))
    diag = SolverDiagnostics(
        iterations_used=iterations,
        final_objective=best_obj ** (1.0 / config.p),
        source_count=source_count,
        converged=converged,
    )
    return _assemble(graph, observed, targets, values, solved, "sfr", diag)


# -- exhaustive minimal-source oracle ----------------------------------------------


@dataclass(frozen=True)
class OracleSolution:
    sources: frozenset[str]
    values: dict[str, float]
    residual: float


@dataclass(frozen=True)
class OracleResult:
    """All feasible completions at the smallest feasible source count.

    ``min_source_count`` is None when nothing feasible exists up to the
    requested cardinality (that outcome is reported, not raised).
    """

    min_source_count: Optional[int]
    solutions: list[OracleSolution] = field(default_factory=list)


def l0_oracle(
    graph: ItemGraph,
    observed: dict[str, float],
    bounds: tuple[float, float],
    max_sources: int,
    residual_tol: float = 1e-8,
) -> OracleResult:
    """Exhaustively solve the exact minimal-source problem on a small graph.

    For k = 0, 1, ..., ``max_sources`` and every k-subset S of candidate
    items, solve the linear system {grad2 R(i) = 0 for i not in S} with the
    observed ratings pinned, in the least-squares sense; a candidate is
    feasible when the residual stays under ``residual_tol`` and every value
    lies within ``bounds`` (up to 1e-9 slack for solver round-off). Returns
    the first k admitting a feasible solution together with *all* feasible
    solutions at that k; ties are not broken.

    Candidates are the positive-degree items of components containing at
    least one observation (both observed and unobserved items may serve as
    sources). Refuses graphs where the subset enumeration would exceed 10^6
    candidates.
    """
    if max_sources < 0:
        raise ValueError("max_sources must be non-negative")
    obs_idx, obs_val = _observed_arrays(graph, observed, bounds)
    labels = graph.component_labels()
    n = graph.item_count
    obs_mask = np.zeros(n, dtype=bool)
    obs_mask[obs_idx] = True
    comp_observed = np.zeros(int(labels.max()) + 1 if n else 1, dtype=bool)
    if obs_idx.size:
        comp_observed[labels[obs_idx]] = True
    active = comp_observed[labels] & (graph.degree > 0)
    candidates = np.flatnonzero(active)
    total = sum(math.comb(candidates.size, k) for k in range(max_sources + 1))
    if total > 1_000_000:
        raise ValueError(
            f"{total} candidate source sets exceed the 10^6 enumeration guard"
        )

    free_idx = np.flatnonzero(active & ~obs_mask)
    eq_rows = candidates  # second derivative is defined exactly on active rows
    m_dense = graph.random_walk_matrix().toarray() - np.eye(n)
    a_full = m_dense[np.ix_(eq_rows, free_idx)]
    rhs_full = -m_dense[np.ix_(eq_rows, obs_idx)] @ obs_val
    row_pos = {int(r): k for k, r in enumerate(eq_rows)}
    c_l, c_h = bounds
    slack = 1e-9

    for k in range(max_sources + 1):
        found: list[OracleSolution] = []
        for subset in combinations(range(candidates.size), k):
            keep = np.ones(eq_rows.size, dtype=bool)
            for s in subset:
                keep[row_pos[int(candidates[s])]] = False
            a = a_full[keep]
            rhs = rhs_full[keep]
            if free_idx.size:
                x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
                residual = float(np.linalg.norm(a @ x - rhs))
            else:
                x = np.empty(0)
                residual = float(np.linalg.norm(rhs))
            if residual >= residual_tol:
                continue
            if x.size and (x.min() < c_l - slack or x.max() > c_h + slack):
                continue
            vec = {graph.items[i]: float(v) for i, v in zip(obs_idx, obs_val)}
            vec.update(
                {graph.items[i]: float(np.clip(v, c_l, c_h)) for i, v in zip(free_idx, x)}
            )
            srcs = frozenset(graph.items[int(candidates[s])] for s in subset)
            found.append(OracleSolution(sources=srcs, values=vec, residual=residual))
        if found:
            return OracleResult(min_source_count=k, solutions=found)
    return OracleResult(min_source_count=None, solutions=[])
