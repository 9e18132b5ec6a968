"""Output checks, computed apart from the library with numpy and scipy.

Every check compares the library's output with an independent computation
or with a property the method must have; none compares with a stored copy
of earlier output. Failures are collected as messages, not raised, so one
run reports all of them.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.sparse.csgraph import connected_components

HIGHER, LOWER, NEITHER, UNCLASSIFIABLE = "higher", "lower", "neither", "unclassifiable"
BOUND = (HIGHER, LOWER)


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def read_rows(path) -> list[tuple[str, str, float]]:
    """The ratings file's records, read with plain string splitting."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[1:]:
        user, item, rating = line.split(",")
        rows.append((user, item, float(rating)))
    return rows


def _triples(records) -> list[tuple[str, str, float]]:
    return [(r.user_id, r.item_id, r.rating) for r in records]


def check_parse_and_split(ck: Checks, rows, matrix, split, fraction: float) -> None:
    ck.expect(_triples(matrix.records()) == rows, "parsed records differ from the ratings file")
    train, test = _triples(split.train.records()), _triples(split.test)
    ck.expect(len(test) == round((1 - fraction) * len(rows)), f"test set has {len(test)} records")
    ck.expect(Counter(train) + Counter(test) == Counter(rows), "train + test is not the parsed record set")
    train_keys = {(u, i) for u, i, _ in train}
    ck.expect(not any((u, i) in train_keys for u, i, _ in test), "a (user, item) pair is in train and test")


class TrainView:
    """Dense user x item training ratings (NaN = unrated), columns in graph order."""

    def __init__(self, train, graph):
        self.graph = graph
        users = sorted({r.user_id for r in train.records()})
        self.row = {u: k for k, u in enumerate(users)}
        self.r = np.full((len(users), graph.item_count), np.nan)
        for rec in train.records():
            self.r[self.row[rec.user_id], graph.item_index[rec.item_id]] = rec.rating
        adj = graph.adjacency
        self.indptr, self.indices = adj.indptr, adj.indices

    def observed(self, user: str) -> dict[str, float]:
        vals = self.r[self.row[user]]
        return {self.graph.items[j]: float(vals[j]) for j in np.flatnonzero(~np.isnan(vals))}

    def classify(self, user: str, item: str, rating: float) -> str | None:
        """Bound class of one test record; None when the graph lacks the item."""
        gi = self.graph.item_index.get(item)
        if gi is None:
            return None
        if user not in self.row:
            return UNCLASSIFIABLE
        neigh = self.indices[self.indptr[gi]:self.indptr[gi + 1]]
        vals = self.r[self.row[user], neigh]
        vals = vals[~np.isnan(vals)]
        if vals.size == 0:
            return UNCLASSIFIABLE
        if rating > vals.max():
            return HIGHER
        if rating < vals.min():
            return LOWER
        return NEITHER


def check_pearson(ck: Checks, view: TrainView, threshold: float, min_support: int, rng, n_pairs: int) -> None:
    """Sampled item pairs: edge presence and weight from a Pearson over co-raters."""
    graph = view.graph
    n = graph.item_count
    adj = graph.adjacency.tocoo()
    edges = [(int(i), int(j)) for i, j in zip(adj.row, adj.col) if i < j]
    pairs = [tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(n_pairs)]
    pairs += [edges[k] for k in rng.choice(len(edges), min(n_pairs, len(edges)), replace=False)]
    weight = dict(zip(zip(adj.row.tolist(), adj.col.tolist()), adj.data.tolist()))
    for a, b in pairs:
        co = ~np.isnan(view.r[:, a]) & ~np.isnan(view.r[:, b])
        x, y = view.r[co, a], view.r[co, b]
        corr = None
        if co.sum() >= min_support and np.ptp(x) > 0 and np.ptp(y) > 0:
            corr = float(np.corrcoef(x, y)[0, 1])
        got = weight.get((a, b))
        if corr is not None and abs(corr - threshold) < 1e-9:
            continue  # too close to the threshold to call
        want_edge = corr is not None and corr > threshold
        ck.expect(want_edge == (got is not None), f"edge {graph.items[a]}-{graph.items[b]}: present={got is not None}, Pearson {corr}")
        if want_edge and got is not None:
            ck.expect(abs(got - corr) <= 1e-9, f"edge {graph.items[a]}-{graph.items[b]}: weight {got} != Pearson {corr}")


def parse_predictions(text: str) -> dict[tuple[str, str], tuple[float, bool]]:
    out = {}
    for line in text.splitlines():
        user, item, est, _method, fallback = line.split(",")
        out[(user, item)] = (float(est), fallback == "1")
    return out


def bound_results(ck: Checks, method: str, preds, test, classes, reported_rmse) -> set[str]:
    """RMSE recomputed from the predictions; returns users with a missing or fallback bound estimate."""
    failed, residuals = set(), []
    for rec, cls in zip(test, classes):
        if cls not in BOUND:
            continue
        est = preds.get((rec.user_id, rec.item_id))
        if est is None or est[1]:
            failed.add(rec.user_id)
            continue
        residuals.append(est[0] - rec.rating)
        if method == "knn":
            below = est[0] < rec.rating if cls == HIGHER else est[0] > rec.rating
            ck.expect(below, f"knn estimate {est[0]} for {cls} record {rec.user_id}/{rec.item_id} (truth {rec.rating}) is not inside the observed range")
    rmse = math.sqrt(sum(r * r for r in residuals) / len(residuals)) if residuals else None
    ck.expect(
        rmse is not None and reported_rmse is not None and abs(rmse - reported_rmse) <= 1e-9 * rmse,
        f"{method}: reported bound RMSE {reported_rmse}, recomputed {rmse}",
    )
    return failed


def solution(graph, recovery) -> np.ndarray:
    x = np.full(graph.item_count, np.nan)
    for name, v in recovery.estimates.items():
        x[graph.item_index[name]] = v
    return x


def _expected_solved(graph, observed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_comp, labels = connected_components(graph.adjacency, directed=False)
    obs = np.zeros(graph.item_count, dtype=bool)
    obs[[graph.item_index[i] for i in observed]] = True
    reached = np.zeros(n_comp, dtype=bool)
    reached[labels[obs]] = True
    degree = np.asarray(graph.adjacency.sum(axis=1)).ravel()
    return obs | (reached[labels] & (degree > 0)), obs, labels


def _second_derivative(graph, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    w = graph.adjacency
    degree = np.asarray(w.sum(axis=1)).ravel()
    filled = np.where(np.isnan(x), 0.0, x)
    return (w @ filled)[rows] / degree[rows] - x[rows]


def smoothed_objective(graph, x: np.ndarray, solved: np.ndarray, p: float, eps: float) -> float:
    degree = np.asarray(graph.adjacency.sum(axis=1)).ravel()
    s = _second_derivative(graph, x, solved & (degree > 0))
    return float(np.sum((s * s + eps * eps) ** (p / 2) - eps**p))


def check_hcp(ck: Checks, graph, user: str, observed, recovery) -> np.ndarray:
    x = solution(graph, recovery)
    solved, obs, labels = _expected_solved(graph, observed)
    ck.expect(np.array_equal(~np.isnan(x), solved), f"hcp {user}: solved items differ from the components reached")
    free = solved & ~obs
    resid = _second_derivative(graph, x, free)
    ck.expect(resid.size == 0 or np.max(np.abs(resid)) <= 1e-8, f"hcp {user}: harmonic residual {np.max(np.abs(resid), initial=0.0)}")
    for comp in np.unique(labels[obs]):
        in_comp = solved & (labels == comp)
        lo, hi = x[obs & in_comp].min(), x[obs & in_comp].max()
        vals = x[in_comp]
        ck.expect(vals.min() >= lo and vals.max() <= hi, f"hcp {user}: values leave the observed range [{lo}, {hi}]")
    return x


def check_sfr(ck: Checks, graph, user: str, observed, recovery, x_hcp: np.ndarray, config) -> None:
    x = solution(graph, recovery)
    solved, _, _ = _expected_solved(graph, observed)
    ck.expect(np.array_equal(~np.isnan(x), solved), f"sfr {user}: solved items differ from the components reached")
    ck.expect(all(recovery.estimates[i] == v for i, v in observed.items()), f"sfr {user}: an observed rating moved")
    c_l, c_h = config.bounds
    vals = x[solved]
    ck.expect(vals.min() >= c_l and vals.max() <= c_h, f"sfr {user}: values leave the rating box")
    end = smoothed_objective(graph, x, solved, config.p, config.smoothing_eps)
    start = smoothed_objective(graph, x_hcp, solved, config.p, config.smoothing_eps)
    ck.expect(end <= start * (1 + 1e-9) + 1e-12, f"sfr {user}: objective {end} above its harmonic start {start}")
