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
from typing import Iterable, Optional

import numpy as np

# np.clip is a Python wrapper around this ufunc and costs about three times
# as much on a vector of a few dozen items; numpy 2 moved it to numpy._core
try:
    from numpy._core.umath import clip as _clip
except ImportError:
    from numpy.core.umath import clip as _clip

from .graph import CsrArrays, ItemGraph, _apply, _defined_values, sources

__all__ = [
    "ConvergenceError",
    "SolverConfig",
    "SolverDiagnostics",
    "UserRecovery",
    "OracleSolution",
    "OracleResult",
    "predict_knn",
    "predict_hcp",
    "sfr_objective",
    "predict_sfr",
    "l0_oracle",
]

# the harmonic CG solve stops once every free second derivative is this
# fraction of the largest observed rating magnitude
_CG_REL_TOL = 1e-12
# the Barzilai-Borwein step is clamped to [_MIN_STEP, _MAX_STEP]; a stage's
# first step, and any step after a move without positive curvature, is 0.1
_INITIAL_STEP = 0.1
_MIN_STEP = 1e-10
_MAX_STEP = 1e10
# the line search halves lambda from 1, at most 60 times per step
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 60
# a stage stops once a step lowers its objective by less than this fraction
_OBJECTIVE_REL_TOL = 1e-8
# continuation starts smoothing at one rating unit and divides by 10 per stage
_EPS_START = 1.0
# l0_oracle counts a source set feasible while its least-squares residual is below this
_RESIDUAL_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its residual target."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings, checked once on construction; defaults match the experiments.

    ``smoothing_eps``, the smoothed surrogate's floor, is the implementation's
    choice (the paper fixes only p = 1/2): 1e-2 was chosen over 1e-6 on
    held-out seeds by ``studies/smoothing_sweep.py``, which gives its rule.
    """

    bounds: tuple[float, float]
    p: float = 0.5
    smoothing_eps: float = 1e-2
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        c_l, c_h = self.bounds
        if not c_l < c_h:
            raise ValueError("bounds must satisfy c_l < c_h")
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        # a float budget would be shared out in fractions, and a bool is not a count
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, (int, np.integer)):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        # the check is `not <range>`, so NaN, which fails every comparison, is rejected too
        if not 0 < self.smoothing_eps < math.inf:
            raise ValueError("smoothing_eps must be positive and finite")


@dataclass
class SolverDiagnostics:
    iterations_used: int
    final_objective: float
    source_count: int
    converged: bool


@dataclass
class UserRecovery:
    """One user's recovered estimates, observed items included.

    ``estimates`` always carries the observed items at their observed values
    exactly (the hard constraint); ``abstentions`` are requested items no
    estimate exists for. Every requested target is in one or the other.
    """

    estimates: dict[str, float]
    abstentions: frozenset[str]
    diagnostics: Optional[SolverDiagnostics] = None


# -- shared helpers -------------------------------------------------------------


def _observed_arrays(
    graph: ItemGraph,
    observed: dict[str, float],
    bounds: Optional[tuple[float, float]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Graph indices of the observed items in ascending order, and their ratings.

    The items are checked in that order, an item missing from the graph
    sorting first (in the map's order): the first error raised is for a
    missing item, else for the lowest-index item whose rating is not finite
    or lies outside ``bounds``.
    """
    index = graph.item_index
    lo, hi = bounds if bounds is not None else (-math.inf, math.inf)
    idx, val = [], []
    for name, rating in sorted(observed.items(), key=lambda kv: index.get(kv[0], -1)):
        i = index.get(name)
        if i is None:
            raise ValueError(f"observed item {name!r} is not in the graph")
        if not math.isfinite(rating):
            raise ValueError(f"observed rating for {name!r} is not finite")
        if not (lo <= rating <= hi):
            raise ValueError(f"observed rating {rating} for {name!r} outside [{lo}, {hi}]")
        idx.append(i)
        val.append(rating)
    return np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64)


def _assemble(
    graph: ItemGraph,
    observed: dict[str, float],
    targets: Iterable[str],
    values: np.ndarray,
    diagnostics: Optional[SolverDiagnostics] = None,
) -> UserRecovery:
    estimates: dict[str, float] = dict(observed)
    abstain: set[str] = set()
    for name in map(str, targets):
        i = graph.item_index.get(name)
        if i is None:
            raise ValueError(f"target item {name!r} is not in the graph")
        if name in observed:
            continue
        if math.isnan(values[i]):
            abstain.add(name)
        else:
            estimates[name] = float(values[i])
    return UserRecovery(
        estimates=estimates,
        abstentions=frozenset(abstain),
        diagnostics=diagnostics,
    )


def _reachable(graph: ItemGraph, obs_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the reachable items, the positive-degree items of the components that hold an observation,
    and of the unobserved ones among them."""
    labels = graph.component_labels()
    # a graph with no items has no labels to take a maximum of
    comp_observed = np.zeros(int(labels.max(initial=-1)) + 1, dtype=bool)
    comp_observed[labels[obs_idx]] = True
    reach = comp_observed[labels] & (graph.degree > 0)
    free = reach.copy()
    free[obs_idx] = False
    return reach, free


def _harmonic_extend(
    graph: ItemGraph,
    obs_idx: np.ndarray,
    obs_val: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve grad2 R = 0 on unobserved items, observed entries fixed.

    Returns the values and :func:`_reachable`'s masks (reach, free). The
    values are NaN outside the solved set, which is the observed items plus
    the reachable ones. The free values solve the symmetric positive
    definite system (D - W) x = W x_O restricted to the free set, by
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
    values[obs_idx] = obs_val
    reach, free = _reachable(graph, obs_idx)
    free_idx = np.flatnonzero(free)
    if free_idx.size:
        w_op, d = graph.adjacency_arrays(), graph.degree
        mask = free.astype(np.float64)
        inv_d = np.zeros(n)
        inv_d[free_idx] = 1.0 / d[free_idx]
        x = np.zeros(n)
        x[obs_idx] = obs_val
        r = mask * _apply(w_op, x)
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
            q = mask * (d * p - _apply(w_op, p))
            alpha = rz / (p @ q)
            x += alpha * p
            r -= alpha * q
            z = r * inv_d
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p

        # maximum principle: estimates stay inside the observed range of
        # their component; clip away solver round-off so the property is exact
        labels = graph.component_labels()
        comp_min = np.full(int(labels.max()) + 1, np.inf)
        comp_max = np.full(comp_min.size, -np.inf)
        np.minimum.at(comp_min, labels[obs_idx], obs_val)
        np.maximum.at(comp_max, labels[obs_idx], obs_val)
        values[free_idx] = np.clip(
            x[free_idx], comp_min[labels[free_idx]], comp_max[labels[free_idx]]
        )
    return values, reach, free


# -- kNN and HCP ------------------------------------------------------------------


def _neighbour_average(graph: ItemGraph, obs_idx: np.ndarray, obs_val: np.ndarray) -> np.ndarray:
    """W vals / W ind: at every item, the weighted average of the observed ratings over its neighbours, NaN where
    no neighbour is observed. At an observed item it is the estimate from the other observations."""
    n = graph.item_count
    ind = np.zeros(n)
    vals = np.zeros(n)
    ind[obs_idx] = 1.0
    vals[obs_idx] = obs_val
    w = graph.adjacency_arrays()
    weight_sum = _apply(w, ind)
    rating_sum = _apply(w, vals)
    # the weights are positive, so both sums are exactly 0.0 where no neighbour is observed, and only there
    with np.errstate(invalid="ignore"):
        return rating_sum / weight_sum


def predict_knn(
    graph: ItemGraph,
    observed: dict[str, float],
    targets: Iterable[str],
) -> UserRecovery:
    """Weighted average of the user's observed ratings over each target's neighbors.

    Abstains when a target has no observed neighbor (or no neighbors at all).
    """
    obs_idx, obs_val = _observed_arrays(graph, observed)
    return _assemble(graph, observed, targets, _neighbour_average(graph, obs_idx, obs_val))


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
    values = _harmonic_extend(graph, obs_idx, obs_val)[0]
    return _assemble(graph, observed, targets, values)


# -- smoothed l_p objective --------------------------------------------------------
#
# phi(x) = (x^2 + eps^2)^(p/2) - eps^p is the standard smooth surrogate for
# |x|^p: it is zero at zero, tends to |x|^p as eps -> 0, and has derivative
# p*x*(x^2+eps^2)^(p/2-1), which vanishes at 0 instead of diverging like the
# raw |x|^(p-1) would. (The sharper surrogate (sqrt(x^2+eps^2)-eps)^p keeps a
# kink at 0 for p <= 1/2, which freezes descent at any all-flat point.)


# The evaluator and the gradient share q = s*s + eps*eps: phi(s) is
# q**(p/2) - eps**p and phi'(s) is q**(p/2 - 1) * (p*s). Each applies the
# same operations to the same operands as those formulas written out, so
# both round exactly as the expressions would.


def _smoothed_sums(
    op: CsrArrays, x: np.ndarray, eps2: float, eps_p: float, p: float, rows: list[Optional[np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Second derivatives s = (P - I) x, q = s*s + eps2, and each column's sum of phi(s) over its rows.

    ``op`` is the first of :meth:`ItemGraph.second_difference_operators` and
    ``x`` an (n x k) block, one vector per column. ``eps2`` and ``eps_p`` are
    the floats eps*eps and eps**p, one smoothing for every column. ``rows``
    holds each column's objective rows, None meaning every item. A column's
    sum is the pairwise sum of its own phi values, gathered to its rows, so
    it does not depend on the other columns, bit for bit; ``s`` and ``q``
    cover every item.
    """
    s = _apply(op, x)
    q = s * s
    q += eps2
    t = q ** (0.5 * p)
    t -= eps_p
    # a C-contiguous row per column, so each sum is the pairwise sum of one vector
    t = np.ascontiguousarray(t.T)
    totals = np.add.reduce(t, axis=1).tolist()
    for j, r in enumerate(rows):
        if r is not None:
            totals[j] = float(np.add.reduce(t[j].take(r)))
    return s, q, totals


def _gradients(op_t: CsrArrays, s: np.ndarray, q: np.ndarray, p: float) -> np.ndarray:
    """(P - I)^T phi'(s) for each column of :func:`_smoothed_sums`' ``s`` and ``q``; overwrites q.

    phi' is taken at every item, off the objective's rows too. At a degree-0
    item of a vector that is 0 there, s is +0.0 and so is phi'; a free item
    and its neighbours are all rows, so the gradient at a free item reads
    phi' at rows only.
    """
    q **= 0.5 * p - 1.0
    q *= p * s
    return _apply(op_t, q)


def sfr_objective(graph: ItemGraph, values: np.ndarray, config: SolverConfig) -> float:
    """Smoothed l_p norm of the second derivative of a complete vector.

    Returns (sum_k phi(grad2 R[k]))^(1/p), phi the smoothed |.|^p above.
    The p-th root is monotone in the sum, so optimization minimizes the sum
    and only reports this norm.
    """
    vec, rows = _defined_values(graph, values)
    op = graph.second_difference_operators()[0]
    eps = config.smoothing_eps
    [total] = _smoothed_sums(op, vec[:, None], eps * eps, eps**config.p, config.p, [rows])[2]
    return total ** (1.0 / config.p)


# -- scalar function recovery ------------------------------------------------------


def _eps_schedule(eps_final: float) -> list[float]:
    out = []
    eps = _EPS_START
    while eps > eps_final * (1 + 1e-12):
        out.append(eps)
        eps /= 10.0
    out.append(eps_final)
    return out


def _stage_budget(config: SolverConfig, n_stages: int, stage: int, used: int) -> Optional[int]:
    """Iterations for ``stage``: an even share of those left, or None when none are left."""
    remaining = config.max_iterations - used
    return max(1, remaining // (n_stages - stage)) if remaining > 0 else None


@dataclass(frozen=True)
class _SfrStart:
    """What :func:`predict_sfr` sets up before descending: the harmonic warm
    start (0 where unsolved), the free items and the rows of the objective,
    which are the solved items but the observed ones of degree 0."""

    warm: np.ndarray
    free_idx: np.ndarray
    rows: np.ndarray


def _sfr_start(graph: ItemGraph, observed: dict[str, float], config: SolverConfig) -> _SfrStart:
    obs_idx, obs_val = _observed_arrays(graph, observed, config.bounds)
    warm, reach, free = _harmonic_extend(graph, obs_idx, obs_val)
    return _SfrStart(np.where(np.isnan(warm), 0.0, warm), np.flatnonzero(free), np.flatnonzero(reach))


def _spg_block(
    starts: list[_SfrStart], graph: ItemGraph, config: SolverConfig
) -> list[tuple[np.ndarray, int, bool]]:
    """The sfr descent of each start, one column of an (n x k) block per start.

    Returns ``(x, iterations, converged)`` per start; a start with no free
    item has nothing to descend and comes back as ``(warm, 0, True)``
    without entering a stage. The descent anneals the smoothing from one
    rating unit down to ``config.smoothing_eps`` (default 1e-2: three stages,
    1, 0.1 and 0.01). At a small target smoothing (1e-6 takes seven stages)
    the objective has an extremely narrow curvature well around every zero
    of the second derivative, and the all-flat harmonic warm start cannot be
    escaped by descent. Annealing keeps early stages soft enough for the
    gradient to reshape the solution and late stages sharp enough to pin
    the sources. Each stage is one :func:`_spg_stage` over the columns that
    have iterations left: each goes on from where its last stage ended, with
    an even share of its own iterations still left. A column with none left
    ends there, and ``converged`` is True only if every stage stopped within
    its share.
    """
    n = graph.item_count
    for st in starts:
        # the kernels trust their sizes; every other array the stages use is made from these
        if st.warm.shape != (n,) or st.warm.dtype != np.float64:
            raise ValueError(f"the descent needs a float64 vector of length {n}, got {st.warm.dtype} {st.warm.shape}")
    stages = _eps_schedule(config.smoothing_eps)
    x = [st.warm for st in starts]
    used = [0] * len(starts)
    converged = [True] * len(starts)
    live = [j for j, st in enumerate(starts) if st.free_idx.size]
    for stage, eps in enumerate(stages):
        budgets = {j: _stage_budget(config, len(stages), stage, used[j]) for j in live}
        for j in live:
            converged[j] = converged[j] and budgets[j] is not None
        live = [j for j in live if budgets[j] is not None]
        if not live:
            break
        # a column's objective rows, or None when they are every item
        rows = [starts[j].rows if starts[j].rows.size < n else None for j in live]
        results = _spg_stage(np.stack([x[j] for j in live], axis=1), [starts[j].free_idx for j in live], rows,
                             graph, config, eps, [budgets[j] for j in live])
        for j, (x_j, iterations, stage_converged) in zip(live, results):
            x[j] = x_j
            used[j] += iterations
            converged[j] = converged[j] and stage_converged
    return list(zip(x, used, converged))


def _spg_stage(
    x: np.ndarray, free: list[np.ndarray], rows: list[Optional[np.ndarray]], graph: ItemGraph,
    config: SolverConfig, eps: float, budgets: list[int],
) -> list[tuple[np.ndarray, int, bool]]:
    """One smoothing stage at ``eps`` for each column of the (n x k) block ``x``.

    Column j descends from ``x[:, j]`` over its free items ``free[j]`` and
    objective rows ``rows[j]`` (None meaning every item) for at most
    ``budgets[j]`` iterations. Returns ``(x, iterations, converged)`` per
    column; ``x`` is not written.

    The stage is spectral projected gradient descent. Each step projects a
    gradient step of length alpha onto the rating box, d = clip(x - alpha g)
    - x over the free items, and halves lambda from 1 until the smoothed sum
    at x + lambda d is below the current one. alpha alternates the two
    Barzilai-Borwein steps of the last accepted move s and its gradient
    change y: s.s / s.y (BB1) after an odd iteration of the stage and
    s.y / y.y (BB2) after an even one, which damps BB1's zig-zag (Dai &
    Fletcher 2005). It is clamped to [1e-10, 1e10], and it is 0.1 at the
    first step and whenever s.y <= 0. A column stops when d is zero (a
    stationary point, which covers a zero gradient), when the relative
    objective decrease falls under 1e-8, when no lambda decreases the
    objective, or when its budget runs out, which alone leaves it
    unconverged; the objective never rises across accepted steps.

    The stage evaluates and differentiates the whole block once, then each
    tick evaluates one trial per column with :func:`_smoothed_sums` and, once
    any column has moved, takes the gradients with :func:`_gradients`. Each
    column keeps its own budget, iteration count, objective, alpha and
    lambda; a column whose trial is refused halves its lambda while the
    others move on, and a column that stops leaves the block, which
    ``np.take`` compacts in C order. A column's result does not depend on the
    others or on the block's width, bit for bit. The element-wise operations
    round the same in any layout, the objectives are summed per column, and
    the Barzilai-Borwein dot products are taken over the column's own
    gathered free items. Trials are clipped against the scalar bounds, as a
    step is defined, and their fixed entries are then copied back from the
    iterate, so those never move; a direction's fixed entries are left as
    they come.
    """
    n, k = x.shape
    out: list = [None] * k
    # the box as 0-d arrays, which numpy's clip ufunc reads faster than floats, to the same bytes
    c_l, c_h = (np.array(b, dtype=np.float64) for b in config.bounds)
    op, op_t = graph.second_difference_operators()
    p = config.p
    eps2, eps_p = eps * eps, eps**p
    # per-column state; numpy scalars and masks cost more than they save here
    user = list(range(k))
    free, rows, budget = list(free), list(rows), list(budgets)
    iters = [1] * k
    alpha = [_INITIAL_STEP] * k
    lam = [1.0] * k
    tries = [0] * k

    x = x.copy()
    s, q, obj = _smoothed_sums(op, x, eps2, eps_p, p, rows)
    g = _gradients(op_t, s, q, p)
    fixed = np.ones((n, k), dtype=bool)
    for j, free_idx in enumerate(free):
        fixed[free_idx, j] = False
    trial = np.empty((n, k))
    # each column's free entries in the flattened block, in ascending item order
    flat = [free_idx * k + j for j, free_idx in enumerate(free)]
    d = None
    while True:
        if d is None:
            # d = clip(x - alpha g) - x, made again only once a column has moved; only its
            # free entries count, since the trial's fixed entries are copied from x.
            # numpy scales by a float about twice as fast as by an array of one
            d = g * (alpha[0] if k == 1 else np.array(alpha))
            np.subtract(x, d, out=d)
            _clip(d, c_l, c_h, out=d)
            d -= x
        # x + d, or x + lambda d once a column has halved lambda
        np.add(x, d * (lam[0] if k == 1 else np.array(lam)) if lam.count(1.0) < k else d, out=trial)
        _clip(trial, c_l, c_h, out=trial)
        np.putmask(trial, fixed, x)
        s, q, totals = _smoothed_sums(op, trial, eps2, eps_p, p, rows)

        moved = []
        ended = {}
        for j in range(k):
            if totals[j] < obj[j]:
                moved.append(j)
            elif tries[j] == 0 and not np.count_nonzero(d.take(flat[j])):
                # a zero direction: the stage is at a stationary point
                ended[j] = True
            elif tries[j] + 1 == _MAX_BACKTRACKS:
                ended[j] = True
            else:
                tries[j] += 1
                lam[j] *= _BACKTRACK_FACTOR
        if moved:
            d = None
            g_new = _gradients(op_t, s, q, p)
            step, dg = trial - x, g_new - g
            for j in moved:
                step_j, dg_j = step.take(flat[j]), dg.take(flat[j])
                sy = step_j.dot(dg_j)
                if sy > 0:
                    # BB1 after an odd iteration of the stage, BB2 after an even one
                    bb = step_j.dot(step_j) / sy if iters[j] % 2 else sy / dg_j.dot(dg_j)
                    alpha[j] = min(max(bb, _MIN_STEP), _MAX_STEP)
                else:
                    alpha[j] = _INITIAL_STEP
                drop = obj[j] - totals[j]
                obj[j] = totals[j]
                if drop < _OBJECTIVE_REL_TOL * max(abs(obj[j]), 1e-300):
                    ended[j] = True
                elif iters[j] == budget[j]:
                    ended[j] = False
                else:
                    iters[j] += 1
                    lam[j], tries[j] = 1.0, 0
            # the moved columns take their trial and its gradient; the others keep theirs
            x, trial, g, g_new = trial, x, g_new, g
            if len(moved) < k:
                for j in set(range(k)).difference(moved):
                    x[:, j] = trial[:, j]
                    g[:, j] = g_new[:, j]
        if ended:
            for j, stage_converged in ended.items():
                out[user[j]] = (x[:, j].copy(), iters[j], stage_converged)
            keep = [j for j in range(k) if j not in ended]
            if not keep:
                return out
            for col in (user, free, rows, budget, iters, obj, alpha, lam, tries):
                col[:] = [col[j] for j in keep]
            x, g, fixed = (np.take(a, keep, axis=1) for a in (x, g, fixed))
            k = len(keep)
            trial = np.empty((n, k))
            flat = [free_idx * k + j for j, free_idx in enumerate(free)]
            d = None


def predict_sfr(
    graph: ItemGraph,
    observed: dict[str, float],
    targets: Iterable[str],
    config: SolverConfig,
    *,
    _descent: Optional[tuple[_SfrStart, tuple[np.ndarray, int, bool]]] = None,
) -> UserRecovery:
    """Scalar function recovery: minimize the smoothed l_p norm of grad2 R.

    Starts from the harmonic solution, descends with spectral projected
    gradient steps (alternating Barzilai-Borwein step lengths; observed
    entries never move, free entries stay inside the rating bounds), and
    anneals the smoothing from one rating unit down to
    ``config.smoothing_eps``. If descent somehow ends worse than the warm
    start at the target smoothing, the warm start is returned, so the result
    never loses to harmonic interpolation on the final objective.
    Abstention rules are identical to :func:`predict_hcp`.

    The descent is :func:`_spg_block`, here on this user's start alone.
    ``_descent`` is private to :func:`rategraph.evaluation.evaluate`: this
    user's start and its column of a block of users.
    """
    if _descent is None:
        start = _sfr_start(graph, observed, config)
        _descent = start, _spg_block([start], graph, config)[0]
    start, (x, iterations, converged) = _descent
    op = graph.second_difference_operators()[0]
    eps = config.smoothing_eps

    def final_objective(vec: np.ndarray) -> tuple[np.ndarray, float]:
        s, _, [total] = _smoothed_sums(op, vec[:, None], eps * eps, eps**config.p, config.p, [start.rows])
        return s[start.rows, 0], total

    best = start.warm
    best_s, best_obj = final_objective(best)
    s, obj = final_objective(x)
    if obj < best_obj:
        best, best_s, best_obj = x, s, obj

    # the observed targets, the only solved items that need not be rows, are not read from values
    values = np.full(graph.item_count, np.nan)
    values[start.rows] = best[start.rows]
    diag = SolverDiagnostics(
        iterations_used=iterations,
        final_objective=best_obj ** (1.0 / config.p),
        # a row's second derivative reads only items that are rows themselves
        source_count=sources(best_s, eps).size,
        converged=converged,
    )
    return _assemble(graph, observed, targets, values, diag)


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
) -> OracleResult:
    """Exhaustively solve the exact minimal-source problem on a small graph.

    For k = 0, 1, ..., ``max_sources`` and every k-subset S of candidate
    items, solve the linear system {grad2 R(i) = 0 for i not in S} with the
    observed ratings pinned, in the least-squares sense; a candidate is
    feasible when the residual stays under a fixed 1e-8 and every value
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
    n = graph.item_count
    active, free = _reachable(graph, obs_idx)
    candidates = np.flatnonzero(active)
    total = sum(math.comb(candidates.size, k) for k in range(max_sources + 1))
    if total > 1_000_000:
        raise ValueError(
            f"{total} candidate source sets exceed the 10^6 enumeration guard"
        )

    free_idx = np.flatnonzero(free)
    eq_rows = candidates  # second derivative is defined exactly on active rows; row s is candidate s
    op = graph.second_difference_operators()[0]
    # each entry of P - I is stored once, so setting it equals toarray's sum of it from 0
    m_dense = np.zeros((n, n))
    m_dense[np.repeat(np.arange(n), np.diff(op.indptr)), op.indices] = op.data
    a_full = m_dense[np.ix_(eq_rows, free_idx)]
    rhs_full = -m_dense[np.ix_(eq_rows, obs_idx)] @ obs_val
    c_l, c_h = bounds
    slack = 1e-9

    for k in range(max_sources + 1):
        found: list[OracleSolution] = []
        for subset in combinations(range(candidates.size), k):
            keep = np.ones(eq_rows.size, dtype=bool)
            keep[list(subset)] = False
            a = a_full[keep]
            rhs = rhs_full[keep]
            if free_idx.size:
                x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
                residual = float(np.linalg.norm(a @ x - rhs))
            else:
                x = np.empty(0)
                residual = float(np.linalg.norm(rhs))
            if residual >= _RESIDUAL_TOL:
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
