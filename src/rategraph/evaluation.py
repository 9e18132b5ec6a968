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
from dataclasses import dataclass, field
from math import ceil
from typing import IO, Optional, Sequence

import numpy as np

from .data import RatingMatrix, RatingRecord, Split
from .estimators import SolverConfig, SolverDiagnostics, _sfr_descents, predict_hcp, predict_knn, predict_sfr
from .graph import ItemGraph

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
    return _classify(test_record, None if user is None else train.user_ratings(user), train, graph)


def _classify(
    test_record: RatingRecord,
    rated: Optional[dict[int, float]],
    train: RatingMatrix,
    graph: ItemGraph,
) -> BoundClass:
    """:func:`classify_bound` given the user's training map, None for a user without training ratings."""
    if test_record.item_id not in graph.item_index:
        raise UnknownItemError(test_record.item_id)
    if rated is None:
        return BoundClass.UNCLASSIFIABLE
    neigh, _ = graph.neighbors(graph.item_index[test_record.item_id])
    # graph and train keep independent item index spaces; map through names
    train_items = map(train.item_index.get, map(graph.items.__getitem__, neigh.tolist()))
    neighbor_ratings = [rated[ti] for ti in train_items if ti in rated]
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
    the class set is empty; counts accompany every RMSE. Error contribution
    shares are squared-residual fractions of the kNN predictor over all
    classified test examples, so the four classes sum to the total exactly.

    ``truth_rows`` holds one ``(method, bound_class, truth, count, rmse)``
    tuple per row of ``rmse.tsv``, ``truth`` None for the "all" group; a
    tuple is a fraction of the size of the dict :attr:`rmse_by_truth` builds
    from it, and tent-ring ratings make one row per bound record.
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
    truth_rows: list[tuple[str, str, Optional[float], int, Optional[float]]] = field(default_factory=list)

    @property
    def rmse_by_truth(self) -> list[dict[str, object]]:
        """The rows of ``rmse.tsv`` as dicts, built from ``truth_rows`` on each read."""
        return [
            {"method": m, "bound_class": cls, "truth_rating": _truth_key(truth), "count": count, "rmse": rmse}
            for m, cls, truth, count, rmse in self.truth_rows
        ]

    def to_json(self) -> str:
        payload = {
            "n_test": self.n_test,
            "n_classified": self.n_classified,
            "n_unknown_items": self.n_unknown_items,
            "class_counts": self.class_counts,
            "class_fractions": self.class_fractions,
            "rmse": self.rmse,
            "rmse_counts": self.rmse_counts,
            "error_contribution": self.error_contribution,
            "error_contribution_total": self.error_contribution_total,
            "fallback_counts": self.fallback_counts,
            "solver_stats": self.solver_stats,
            "rmse_by_truth": self.rmse_by_truth,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def rmse_tsv(self) -> str:
        """Flat TSV of per-class RMSE with a truth-rating grouping key."""
        lines = ["method\tbound_class\ttruth_rating\tcount\trmse"]
        for m, cls, truth, count, rmse in self.truth_rows:
            rendered = "" if rmse is None else repr(rmse)
            lines.append(f"{m}\t{cls}\t{_truth_key(truth)}\t{count}\t{rendered}")
        return "\n".join(lines) + "\n"


def _truth_key(truth: Optional[float]) -> str:
    """A truth rating as its report key: six significant digits, or "all"."""
    return "all" if truth is None else format(truth, "g")


def _rmse(residuals: list[float]) -> Optional[float]:
    if not residuals:
        return None
    return float(np.sqrt(np.mean(np.square(residuals))))


@dataclass
class _UserTask:
    """A user's test records on the graph, their classes, and how many of the user's records name items off it."""

    user_id: str
    records: list[RatingRecord]
    classes: list[BoundClass]
    n_unknown: int = 0


@dataclass
class _UserResult:
    task: _UserTask
    predictions: dict[str, dict[str, tuple[float, bool]]]
    sfr_diag: Optional[SolverDiagnostics] = None


def _bound_items(task: _UserTask) -> set[str]:
    return {rec.item_id for rec, cls in zip(task.records, task.classes) if cls in (BoundClass.HIGHER, BoundClass.LOWER)}


def _method_predictions(
    graph: ItemGraph,
    task: _UserTask,
    observed: dict[str, float],
    methods: Sequence[str],
    config: SolverConfig,
    fallback: float,
    sfr_descent: Optional[tuple] = None,
) -> _UserResult:
    """Per-method {item: (estimate, is_fallback)} for one user.

    kNN covers every test item (its residuals feed the error-contribution
    table); hcp/sfr cover the bound-problem items only, which is what their
    RMSE is reported on. Abstentions fall back to the user's training mean,
    then the global training mean. ``sfr_descent`` is passed on to
    :func:`predict_sfr` as its private ``_descent``.
    """
    bound_items = _bound_items(task)
    all_items = {rec.item_id for rec in task.records}
    result = _UserResult(task, predictions={})
    for method in methods:
        targets = all_items if method == "knn" else bound_items
        if not targets:
            result.predictions[method] = {}
            continue
        if method == "knn":
            rec = predict_knn(graph, observed, targets)
        elif method == "hcp":
            rec = predict_hcp(graph, observed, targets)
        elif method == "sfr":
            rec = predict_sfr(graph, observed, targets, config, _descent=sfr_descent)
        else:
            raise ValueError(f"unknown method {method!r}")
        got: dict[str, tuple[float, bool]] = {}
        for item in targets:
            if item in rec.estimates:
                got[item] = (rec.estimates[item], False)
            else:
                got[item] = (fallback, True)
        if method == "sfr":
            result.sfr_diag = rec.diagnostics
        result.predictions[method] = got
    return result


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

    def _inputs(self, user_pos: int) -> tuple[_UserTask, dict[str, float], float]:
        """A user's classified task, observed ratings on the graph and fallback estimate.

        Reads the user's training map once, both to classify the user's test
        records and to take its observations.
        """
        graph, train = self.graph, self.train
        user_id, records = self.users[user_pos]
        user = train.user_index.get(user_id)
        rated = None if user is None else train.user_ratings(user)
        task = _UserTask(user_id, [], [])
        for rec in records:
            try:
                cls = _classify(rec, rated, train, graph)
            except UnknownItemError:
                task.n_unknown += 1
                continue
            task.records.append(rec)
            task.classes.append(cls)
        if rated is None:
            return task, {}, self.global_mean
        observed = {train.items[i]: r for i, r in rated.items() if train.items[i] in graph.item_index}
        return task, observed, float(np.mean(list(rated.values()))) if rated else self.global_mean

    def run_block(self, positions: Sequence[int]) -> list[tuple[int, _UserResult]]:
        """Score the users at ``positions``, running their sfr descents as one block.

        Every estimator is still called once per user, in the order of
        ``positions``; :func:`predict_sfr` receives the user's set-up and the
        block's descent, so it only scores the result.
        """
        inputs = [self._inputs(pos) for pos in positions]
        descents: list[Optional[tuple]] = [None] * len(inputs)
        if "sfr" in self.methods:
            scored = [k for k, (task, _, _) in enumerate(inputs) if _bound_items(task)]
            for k, descent in zip(scored, _sfr_descents(self.graph, [inputs[k][1] for k in scored], self.config)):
                descents[k] = descent
        return [
            (pos, _method_predictions(self.graph, task, observed, self.methods, self.config, fallback, descent))
            for pos, (task, observed, fallback), descent in zip(positions, inputs, descents)
        ]


# Set once in each pool worker by the pool initializer, never in the parent.
# Under fork the initializer's argument is inherited without pickling; under
# forkserver and spawn it is pickled once per worker, not once per task.
_WORKER_CTX: Optional[_EvalContext] = None


def _init_worker(ctx: _EvalContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _run_block_in_worker(positions: Sequence[int]) -> list[tuple[int, _UserResult]]:
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

    The graph must have been built from ``split.train`` only. Test records
    naming items outside the graph are counted and excluded. Per-user work is
    independent; with ``jobs`` > 1 it fans out over processes, and results
    are aggregated in user order so the report is identical for any ``jobs``
    and any multiprocessing start method.

    When ``predictions_out`` is given, every prediction is dumped as
    ``user,item,estimate,method,is_fallback`` lines.
    """
    for m in methods:
        if m not in ("knn", "hcp", "sfr"):
            raise ValueError(f"unknown method {m!r}")
    train = split.train

    # each test user's records, in user order; _EvalContext._inputs classifies them
    by_user: dict[str, list[RatingRecord]] = {}
    for rec in split.test:
        by_user.setdefault(rec.user_id, []).append(rec)
    users = sorted(by_user.items())
    global_mean = train.global_mean() if train.n_ratings else (sum(train.bounds) / 2.0)

    ctx = _EvalContext(graph, train, users, tuple(methods), config, global_mean)
    # with jobs > 1, blocks small enough that every worker gets one
    size = max(1, min(_BLOCK_USERS, ceil(len(users) / max(1, jobs))))
    blocks = [range(start, min(start + size, len(users))) for start in range(0, len(users), size)]
    results: dict[int, _UserResult] = {}
    if jobs > 1 and len(users) > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so jobs=1 never loads multiprocessing
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            for block in pool.map(_run_block_in_worker, blocks):
                results.update(block)
    else:
        for block in blocks:
            results.update(ctx.run_block(block))

    # aggregate in fixed user order so output is schedule-independent
    n_unknown = 0
    class_counts = {c.value: 0 for c in BoundClass}
    by_truth: dict[tuple[str, str, str], list[float]] = {}
    fallback_counts = {m: 0 for m in methods}
    contribution: Optional[dict[str, float]] = None
    knn_sq: dict[str, float] = {c.value: 0.0 for c in BoundClass}
    sfr_iters: list[float] = []
    sfr_objectives: list[float] = []
    sfr_sources: list[float] = []
    sfr_converged = 0
    sfr_users = 0

    for pos in range(len(users)):
        user_result = results[pos]
        task = user_result.task
        n_unknown += task.n_unknown
        for cls in task.classes:
            class_counts[cls.value] += 1
        diag = user_result.sfr_diag
        if diag is not None:
            sfr_users += 1
            sfr_iters.append(float(diag.iterations_used))
            sfr_objectives.append(float(diag.final_objective))
            sfr_sources.append(float(diag.source_count))
            sfr_converged += bool(diag.converged)
        for method in methods:
            got = user_result.predictions[method]
            for rec, cls in zip(task.records, task.classes):
                entry = got.get(rec.item_id)
                if entry is None:
                    continue
                est, is_fb = entry
                residual = est - rec.rating
                if is_fb:
                    fallback_counts[method] += 1
                if method == "knn":
                    knn_sq[cls.value] += residual * residual
                if cls in (BoundClass.HIGHER, BoundClass.LOWER):
                    truth_key = _truth_key(rec.rating)
                    by_truth.setdefault((method, cls.value, truth_key), []).append(residual)
                    by_truth.setdefault((method, cls.value, "all"), []).append(residual)
                    by_truth.setdefault((method, "all", "all"), []).append(residual)
                if predictions_out is not None:
                    predictions_out.write(
                        f"{task.user_id},{rec.item_id},{est!r},{method},{int(is_fb)}\n"
                    )

    if "knn" in methods:
        total_sq = sum(knn_sq.values())
        contribution = dict(knn_sq)
        contribution["total"] = total_sq

    # a class's "all" group holds its residuals in aggregation order
    groups = ("all", BoundClass.HIGHER.value, BoundClass.LOWER.value)
    rmse = {m: {k: _rmse(by_truth.get((m, k, "all"), [])) for k in groups} for m in methods}
    rmse_counts = {m: {k: len(by_truth.get((m, k, "all"), [])) for k in groups} for m in methods}
    # rows sort by the key strings, so "10" lists before "9.5"; a key parses
    # back to a float that formats to the same key
    truth_rows = [
        (m, cls, None if truth == "all" else float(truth), len(res), _rmse(res))
        for (m, cls, truth), res in sorted(by_truth.items())
    ]
    solver_stats: dict[str, dict[str, float]] = {}
    if sfr_users:
        solver_stats["sfr"] = {
            "users_solved": float(sfr_users),
            "mean_iterations": float(np.mean(sfr_iters)),
            "mean_final_objective": float(np.mean(sfr_objectives)),
            "mean_source_count": float(np.mean(sfr_sources)),
            "converged_fraction": sfr_converged / sfr_users,
        }

    n_classified = sum(class_counts.values())
    fractions = {
        c.value: (class_counts[c.value] / n_classified if n_classified else 0.0)
        for c in BoundClass
    }
    return EvaluationReport(
        n_test=len(split.test),
        n_classified=n_classified,
        n_unknown_items=n_unknown,
        class_counts=class_counts,
        class_fractions=fractions,
        rmse=rmse,
        rmse_counts=rmse_counts,
        error_contribution=contribution,
        error_contribution_total=contribution["total"] if contribution else None,
        fallback_counts=fallback_counts,
        solver_stats=solver_stats,
        truth_rows=truth_rows,
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
    of them, emit the drift: the weighted average of the user's neighbor
    ratings minus the rating itself. If the vanishing-second-derivative
    assumption holds, the samples pile up near zero.
    """
    if not (0 < coverage <= 1):
        raise ValueError("coverage must lie in (0, 1]")
    if min_neighbor_ratings < 1:
        raise ValueError("min_neighbor_ratings must be positive")
    edges = np.arange(-_BIN_SPAN - _BIN_WIDTH / 2, _BIN_SPAN + _BIN_WIDTH, _BIN_WIDTH)
    counts = np.zeros(edges.size + 1, dtype=np.int64)

    w = graph.adjacency
    binary = w.copy()
    binary.data = np.ones_like(binary.data)
    neighbor_count = np.asarray(binary.sum(axis=1)).ravel()

    n = graph.item_count
    for user in range(ratings.n_users):
        rated = ratings.user_ratings(user)
        ind = np.zeros(n)
        vals = np.zeros(n)
        item_ids: list[int] = []
        for item_idx, r in rated.items():
            name = ratings.items[item_idx]
            g = graph.item_index.get(name)
            if g is None:
                continue
            ind[g] = 1.0
            vals[g] = r
            item_ids.append(g)
        if not item_ids:
            continue
        rated_neighbor_cnt = binary @ ind
        weight_sum = w @ ind
        rating_sum = w @ vals
        for g in item_ids:
            m = rated_neighbor_cnt[g]
            total = neighbor_count[g]
            if total == 0 or m < min_neighbor_ratings or m < coverage * total:
                continue
            drift = rating_sum[g] / weight_sum[g] - vals[g]
            counts[np.searchsorted(edges, drift, side="right")] += 1
    return Histogram(edges=edges, counts=counts)
