"""Evaluation harness for the rating-bound problem.

Classifies test examples by where their true rating sits relative to the
same user's observed neighbor ratings, scores each estimator with RMSE on
the bound-problem classes, reports how much of the total squared error the
bound examples carry, and runs the empirical exam of the vanishing-second-
derivative assumption.
"""

from __future__ import annotations

import enum
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from math import ceil
from typing import IO, Iterator, Optional, Sequence

import numpy as np

from .data import RatingMatrix, RatingRecord, Split
from .estimators import ConvergenceError, SolverConfig, SolverDiagnostics, _neighbour_average, _sfr_start, _spg_block
from .estimators import predict_hcp, predict_knn, predict_sfr
from .graph import CsrArrays, ItemGraph, _apply

__all__ = [
    "BoundClass",
    "UnknownItemError",
    "EvaluationReport",
    "Histogram",
    "classify_bound",
    "evaluate",
    "examine_linearity",
]


class UnknownItemError(KeyError):
    """A test record names an item the graph does not contain."""


class BoundClass(enum.Enum):
    HIGHER = "higher"
    LOWER = "lower"
    NEITHER = "neither"
    UNCLASSIFIABLE = "unclassifiable"


def classify_bound(
    test_record: RatingRecord,
    train: RatingMatrix,
    graph: ItemGraph,
) -> BoundClass:
    """Compare a test rating with the user's training ratings on its neighbors.

    Strictly greater than all of them -> HIGHER, strictly less -> LOWER,
    otherwise NEITHER; UNCLASSIFIABLE when the user rated no neighbor of the
    item in training. A pure function of the record, so permuting the test
    set never changes a record's class.
    """
    user = train.user_index.get(test_record.user_id)
    rated = {} if user is None else train.user_ratings(user)
    return _classify(test_record, _on_graph(rated, train, graph), graph)


def _on_graph(rated: dict[int, float], train: RatingMatrix, graph: ItemGraph) -> dict[int, float]:
    """A user's training map keyed by graph index, in record order, without the items off the graph.

    The one place where the rating matrix's item numbering meets the graph's.
    """
    pairs = ((graph.item_index.get(train.items[i]), r) for i, r in rated.items())
    return {g: r for g, r in pairs if g is not None}


def _classify(test_record: RatingRecord, on_graph: dict[int, float], graph: ItemGraph) -> BoundClass:
    """:func:`classify_bound` given the user's :func:`_on_graph` map, empty for a user without training ratings."""
    if test_record.item_id not in graph.item_index:
        raise UnknownItemError(test_record.item_id)
    neigh, _ = graph.neighbors(graph.item_index[test_record.item_id])
    neighbor_ratings = [on_graph[j] for j in neigh.tolist() if j in on_graph]
    if not neighbor_ratings:
        return BoundClass.UNCLASSIFIABLE
    if test_record.rating > max(neighbor_ratings):
        return BoundClass.HIGHER
    if test_record.rating < min(neighbor_ratings):
        return BoundClass.LOWER
    return BoundClass.NEITHER


# -- report -------------------------------------------------------------------


@dataclass
class EvaluationReport:
    """Bound-problem statistics, per-method RMSE, and solver diagnostics.

    ``rmse`` maps method -> {"all", "higher", "lower"} -> value or None when
    the class set is empty; counts accompany every RMSE. Error contributions
    are squared-residual sums of the kNN predictor over all classified test
    examples, one per class, so the four classes sum to the total exactly.

    ``truth_tsv`` holds the rows of ``rmse.tsv`` below its header, one
    ``method, bound_class, truth, count, rmse`` line per row, ``truth`` the
    row's key string: tent-ring ratings make one row per bound record, and
    one string is under a quarter of the size of those rows as tuples.
    :attr:`rmse_by_truth` parses it back on each read; a float's ``repr``
    reads back as the same float.
    """

    n_test: int
    n_classified: int
    n_unknown_items: int
    class_counts: dict[str, int]
    class_fractions: dict[str, float]
    rmse: dict[str, dict[str, Optional[float]]]
    rmse_counts: dict[str, dict[str, int]]
    error_contribution: Optional[dict[str, float]]
    error_contribution_total: Optional[float]
    fallback_counts: dict[str, int]
    solver_stats: dict[str, dict[str, float]]
    truth_tsv: str

    @property
    def rmse_by_truth(self) -> list[dict[str, object]]:
        """The rows of ``rmse.tsv`` as dicts, parsed from ``truth_tsv`` on each read."""
        rows = (line.split("\t") for line in self.truth_tsv.splitlines())
        return [
            {"method": m, "bound_class": cls, "truth_rating": truth, "count": int(count), "rmse": float(rmse)}
            for m, cls, truth, count, rmse in rows
        ]

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "truth_tsv"}
        payload["rmse_by_truth"] = self.rmse_by_truth
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def rmse_tsv(self) -> str:
        """Flat TSV of per-class RMSE with a truth-rating grouping key."""
        return "method\tbound_class\ttruth_rating\tcount\trmse\n" + self.truth_tsv


def _rmse(residuals: list[float]) -> Optional[float]:
    if not residuals:
        return None
    return float(np.sqrt(np.mean(np.square(residuals))))


@dataclass
class _UserResult:
    """One test user's classified on-graph records, its count of off-graph
    records and what each method made of the records.

    ``estimates[method]`` lines up with ``records``: ``(estimate, is_fallback)``
    where the method scores the record, None where it does not. kNN scores
    every record, since its residuals feed the error-contribution table; hcp
    and sfr score the bound-problem records only, which is what their RMSE
    is reported on. Abstentions fall back to the user's training mean, then
    the global training mean.
    """

    user_id: str
    records: list[tuple[RatingRecord, BoundClass]] = field(default_factory=list)
    n_unknown: int = 0
    estimates: dict[str, list[Optional[tuple[float, bool]]]] = field(default_factory=dict)
    sfr_diag: Optional[SolverDiagnostics] = None


_BOUND = (BoundClass.HIGHER, BoundClass.LOWER)


@contextmanager
def _naming(user_id: str, method: str) -> Iterator[None]:
    """Re-raise a solver failure naming the user and the estimator it stopped."""
    try:
        yield
    except ConvergenceError as exc:
        raise ConvergenceError(f"user {user_id!r}, {method}: {exc}") from exc


# most users whose sfr descents share one block (see _EvalContext.run_block).
# On a 2-core host, full sfr evaluations of the bench rings took 1.17 s and
# 8.0 s one user at a time, 0.46 s and 4.2 s in blocks of 64, and about as
# long in blocks of 128; each column of a block costs n doubles per array.
_BLOCK_USERS = 64


@dataclass(frozen=True)
class _EvalContext:
    """Everything a per-user prediction reads, shared by all users of a run."""

    graph: ItemGraph
    train: RatingMatrix
    users: list[tuple[str, list[RatingRecord]]]
    methods: tuple[str, ...]
    config: SolverConfig
    global_mean: float

    def _inputs(self, user_pos: int) -> tuple[_UserResult, dict[str, float], float]:
        """A user's result with its records classified, its observed ratings on the graph and its
        fallback estimate, all from one read of the user's training map."""
        graph, train = self.graph, self.train
        user_id, records = self.users[user_pos]
        user = train.user_index.get(user_id)
        rated = {} if user is None else train.user_ratings(user)
        on_graph = _on_graph(rated, train, graph)
        result = _UserResult(user_id)
        for rec in records:
            try:
                result.records.append((rec, _classify(rec, on_graph, graph)))
            except UnknownItemError:
                result.n_unknown += 1
        if not rated:
            return result, {}, self.global_mean
        observed = {graph.items[g]: r for g, r in on_graph.items()}
        return result, observed, float(np.mean(list(rated.values())))

    def run_block(self, positions: Sequence[int]) -> list[_UserResult]:
        """Score the users at ``positions``, running their sfr descents as one block.

        Every estimator is still called once per user it scores, in the order
        of ``positions``; :func:`predict_sfr` receives the user's set-up and
        its column of the block's descent, so it only scores the result.
        """
        graph, config = self.graph, self.config
        inputs = [self._inputs(pos) for pos in positions]
        bound = [[cls in _BOUND for _, cls in result.records] for result, _, _ in inputs]
        starts = []
        for (result, observed, _), is_bound in zip(inputs, bound):
            if "sfr" in self.methods and any(is_bound):
                with _naming(result.user_id, "sfr"):
                    starts.append(_sfr_start(graph, observed, config))
        descents = zip(starts, _spg_block(starts, graph, config))
        for (result, observed, fallback), is_bound in zip(inputs, bound):
            for method in self.methods:
                scores = [True] * len(is_bound) if method == "knn" else is_bound
                targets = {rec.item_id for (rec, _), s in zip(result.records, scores) if s}
                est: dict[str, float] = {}
                if targets:
                    with _naming(result.user_id, method):
                        if method == "knn":
                            est = predict_knn(graph, observed, targets).estimates
                        elif method == "hcp":
                            est = predict_hcp(graph, observed, targets).estimates
                        else:
                            recovery = predict_sfr(graph, observed, targets, config, _descent=next(descents))
                            est, result.sfr_diag = recovery.estimates, recovery.diagnostics
                result.estimates[method] = [
                    ((est[rec.item_id], False) if rec.item_id in est else (fallback, True)) if s else None
                    for (rec, _), s in zip(result.records, scores)
                ]
        return [result for result, _, _ in inputs]


# Set once in each pool worker by the pool initializer, never in the parent.
# Under fork the initializer's argument is inherited without pickling; under
# forkserver and spawn it is pickled once per worker, not once per task.
_WORKER_CTX: Optional[_EvalContext] = None


def _init_worker(ctx: _EvalContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _run_block_in_worker(positions: Sequence[int]) -> list[_UserResult]:
    assert _WORKER_CTX is not None, "pool worker started without _init_worker"
    return _WORKER_CTX.run_block(positions)


def evaluate(
    methods: Sequence[str],
    split: Split,
    graph: ItemGraph,
    config: SolverConfig,
    jobs: int = 1,
    predictions_out: Optional[IO[str]] = None,
) -> EvaluationReport:
    """Score estimators on the bound-problem test examples.

    The graph must have been built from ``split.train`` only, and
    ``config.bounds`` must be the training ratings' bounds. Test records
    naming items outside the graph are counted and excluded. Per-user work is
    independent; with ``jobs`` > 1 it fans out over processes, and results
    are aggregated in user order so the report is identical for any ``jobs``
    and any multiprocessing start method. A :class:`ConvergenceError` names
    the user and the estimator that failed; a pool starts no block once
    one has failed, and raises the first failure in user order.

    When ``predictions_out`` is given, every prediction is dumped as
    ``user,item,estimate,method,is_fallback`` lines.
    """
    if not methods:
        raise ValueError("no method given (choose from knn, hcp and sfr)")
    for m in methods:
        if m not in ("knn", "hcp", "sfr"):
            raise ValueError(f"unknown method {m!r}")
        if methods.count(m) > 1:
            raise ValueError(f"method {m!r} is listed twice")
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    train = split.train
    # sfr keeps its estimates in the solver's box, which must be the one the ratings lie in
    if tuple(config.bounds) != train.bounds:
        raise ValueError(f"solver bounds {tuple(config.bounds)} differ from the ratings' bounds {train.bounds}")

    # each test user's records, in user order; _EvalContext._inputs classifies them
    by_user: dict[str, list[RatingRecord]] = {}
    for rec in split.test:
        by_user.setdefault(rec.user_id, []).append(rec)
    users = sorted(by_user.items())
    global_mean = train.global_mean() if train.n_ratings else (sum(train.bounds) / 2.0)

    ctx = _EvalContext(graph, train, users, tuple(methods), config, global_mean)
    # with jobs > 1, blocks small enough that every worker gets one
    size = max(1, min(_BLOCK_USERS, ceil(len(users) / jobs)))
    blocks = [range(start, min(start + size, len(users))) for start in range(0, len(users), size)]
    # no more workers than blocks: a forking pool starts all of its workers at the first submit
    workers = min(jobs, len(blocks))
    if workers > 1:
        # here, so jobs=1 never loads multiprocessing
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(ctx,)) as pool:
            # one block per worker at a time, and none once a block has failed: pool.map would queue
            # blocks ahead, and the executor runs every block it has queued
            futures = []
            for block in blocks:
                running = [future for future in futures if not future.done()]
                if len(running) == workers:
                    wait(running, return_when=FIRST_COMPLETED)
                if any(future.done() and future.exception() for future in futures):
                    break
                futures.append(pool.submit(_run_block_in_worker, block))
            # the blocks started are a prefix, so the first failing block in user order raises here
            results = [result for future in futures for result in future.result()]
    else:
        results = [result for block in blocks for result in ctx.run_block(block)]

    # aggregate in fixed user order so output is schedule-independent
    class_counts = {c.value: 0 for c in BoundClass}
    by_truth: dict[tuple[str, str, str], list[float]] = {}
    fallback_counts = {m: 0 for m in methods}
    knn_sq: dict[str, float] = {c.value: 0.0 for c in BoundClass}
    for result in results:
        for _, cls in result.records:
            class_counts[cls.value] += 1
        for method in methods:
            for (rec, cls), entry in zip(result.records, result.estimates[method]):
                if entry is None:
                    continue
                est, is_fb = entry
                residual = est - rec.rating
                if is_fb:
                    fallback_counts[method] += 1
                if method == "knn":
                    knn_sq[cls.value] += residual * residual
                if cls in _BOUND:
                    truth_key = format(rec.rating, "g")
                    by_truth.setdefault((method, cls.value, truth_key), []).append(residual)
                    by_truth.setdefault((method, cls.value, "all"), []).append(residual)
                    by_truth.setdefault((method, "all", "all"), []).append(residual)
                if predictions_out is not None:
                    predictions_out.write(f"{result.user_id},{rec.item_id},{est!r},{method},{int(is_fb)}\n")

    contribution = {**knn_sq, "total": sum(knn_sq.values())} if "knn" in methods else None

    # a class's "all" group holds its residuals in aggregation order
    groups = ("all", BoundClass.HIGHER.value, BoundClass.LOWER.value)
    rmse = {m: {k: _rmse(by_truth.get((m, k, "all"), [])) for k in groups} for m in methods}
    rmse_counts = {m: {k: len(by_truth.get((m, k, "all"), [])) for k in groups} for m in methods}
    # rows sort by the key strings, so "10" lists before "9.5"; a group is never empty, so every rmse is a float
    truth_tsv = "".join(
        f"{m}\t{cls}\t{truth}\t{len(res)}\t{_rmse(res)!r}\n"
        for (m, cls, truth), res in sorted(by_truth.items())
    )
    solver_stats: dict[str, dict[str, float]] = {}
    diags = [result.sfr_diag for result in results if result.sfr_diag is not None]
    if diags:
        solver_stats["sfr"] = {
            "users_solved": float(len(diags)),
            "mean_iterations": float(np.mean([d.iterations_used for d in diags])),
            "mean_final_objective": float(np.mean([d.final_objective for d in diags])),
            "mean_source_count": float(np.mean([d.source_count for d in diags])),
            "converged_fraction": sum(bool(d.converged) for d in diags) / len(diags),
        }

    n_classified = sum(class_counts.values())
    fractions = {
        c.value: (class_counts[c.value] / n_classified if n_classified else 0.0)
        for c in BoundClass
    }
    return EvaluationReport(
        n_test=len(split.test),
        n_classified=n_classified,
        n_unknown_items=sum(result.n_unknown for result in results),
        class_counts=class_counts,
        class_fractions=fractions,
        rmse=rmse,
        rmse_counts=rmse_counts,
        error_contribution=contribution,
        error_contribution_total=contribution["total"] if contribution else None,
        fallback_counts=fallback_counts,
        solver_stats=solver_stats,
        truth_tsv=truth_tsv,
    )


# -- linearity exam -------------------------------------------------------------


@dataclass
class Histogram:
    """Fixed-width histogram with overflow bins at both ends.

    Interior bins have width 0.25 and are centered on multiples of 0.25
    across [-4, 4], so the bin containing zero is symmetric around it; the
    two overflow bins absorb anything beyond +-4.125.
    """

    edges: np.ndarray
    counts: np.ndarray

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())

    @property
    def zero_bin(self) -> int:
        return int(np.searchsorted(self.edges, 0.0))

    def to_tsv(self) -> str:
        lines = ["bin_left\tbin_right\tcount"]
        lefts = np.concatenate(([-np.inf], self.edges))
        rights = np.concatenate((self.edges, [np.inf]))
        for left, right, count in zip(lefts, rights, self.counts):
            lines.append(f"{left:g}\t{right:g}\t{int(count)}")
        return "\n".join(lines) + "\n"


_BIN_WIDTH = 0.25
_BIN_SPAN = 4.0


def examine_linearity(
    ratings: RatingMatrix,
    graph: ItemGraph,
    coverage: float = 0.9,
    min_neighbor_ratings: int = 5,
) -> Histogram:
    """Empirical second-derivative samples where they are directly computable.

    For every (user, item) pair where the user rated the item, rated at
    least ``coverage`` of its neighbors and at least ``min_neighbor_ratings``
    of them, emit the drift: knn's estimate of the item from the user's
    other ratings minus the rating. If the vanishing-second-derivative
    assumption holds, the samples pile up near zero.
    """
    if not (0 < coverage <= 1):
        raise ValueError("coverage must lie in (0, 1]")
    if min_neighbor_ratings < 1:
        raise ValueError("min_neighbor_ratings must be positive")
    edges = np.arange(-_BIN_SPAN - _BIN_WIDTH / 2, _BIN_SPAN + _BIN_WIDTH, _BIN_WIDTH)
    counts = np.zeros(edges.size + 1, dtype=np.int64)

    w = graph.adjacency_arrays()
    neighbor_count = np.diff(w.indptr)
    ones = CsrArrays(w.indptr, w.indices, np.ones(w.data.size))

    n = graph.item_count
    for user in range(ratings.n_users):
        on_graph = _on_graph(ratings.user_ratings(user), ratings, graph)
        idx = np.fromiter(on_graph, np.int64, len(on_graph))
        val = np.fromiter(on_graph.values(), np.float64, len(on_graph))
        ind = np.zeros(n)
        ind[idx] = 1.0
        m = _apply(ones, ind)[idx]
        total = neighbor_count[idx]
        sampled = (total > 0) & (m >= min_neighbor_ratings) & (m >= coverage * total)
        drift = _neighbour_average(graph, idx, val)[idx[sampled]] - val[sampled]
        counts += np.bincount(np.searchsorted(edges, drift, side="right"), minlength=counts.size)
    return Histogram(edges=edges, counts=counts)
