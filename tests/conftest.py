import re
from typing import Optional

import numpy as np
import pytest

from rategraph import ItemGraph, RatingMatrix, ladder_toy_26, second_derivative, square_toy
from rategraph.estimators import _gradients, _smoothed_sums

# -- acceptance reporting: one status line per criterion, plus detail lines
# recorded by the tests themselves, printed after the run

_ACCEPTANCE_DETAIL: list[str] = []
# (order, label, node id) -> PASS, SKIP or FAIL
_ACCEPTANCE_STATUS: dict[tuple[int, str, str], str] = {}
_ACCEPTANCE_ROW = re.compile(r"TestCriterion(\d+)|TestSeedPanel")


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_DETAIL.append(line)


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    m = _ACCEPTANCE_ROW.search(report.nodeid)
    if not m:
        return
    # the seed panel holds criterion 7's ordering at held-out seeds, so its row follows criterion 7's
    order, label = (int(m.group(1)), f"criterion {m.group(1)}") if m.group(1) else (7, "seed panel")
    if report.when == "call" or (report.when == "setup" and report.skipped):
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _ACCEPTANCE_STATUS[(order, label, report.nodeid)] = status


def pytest_terminal_summary(terminalreporter, exitstatus):
    if not _ACCEPTANCE_STATUS:
        return
    terminalreporter.section("acceptance criteria")
    for (_, label, nodeid), status in sorted(_ACCEPTANCE_STATUS.items()):
        terminalreporter.line(f"{label}: {status}  [{nodeid.split('::')[-1]}]")
    for line in _ACCEPTANCE_DETAIL:
        terminalreporter.line(line)


@pytest.fixture(scope="session")
def square():
    return square_toy()


@pytest.fixture(scope="session")
def ladder():
    return ladder_toy_26()


def random_connected_graph(rng: np.random.Generator, n: int) -> ItemGraph:
    """Random connected weighted graph on n nodes (spanning tree + extras)."""
    items = [f"i{k}" for k in range(n)]
    edges = []
    seen = set()
    for k in range(1, n):
        j = int(rng.integers(0, k))
        seen.add((j, k))
        edges.append((items[j], items[k], float(rng.uniform(0.2, 1.0))))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (a, b) in seen:
            continue
        seen.add((a, b))
        edges.append((items[a], items[b], float(rng.uniform(0.2, 1.0))))
    return ItemGraph.from_edges(items, edges)


def random_observed(rng: np.random.Generator, graph: ItemGraph, lo=1.0, hi=5.0):
    """Random nonempty proper subset of items with random in-bounds ratings."""
    n = graph.item_count
    k = int(rng.integers(1, n))
    idx = rng.choice(n, size=k, replace=False)
    return {graph.items[i]: float(rng.uniform(lo, hi)) for i in sorted(idx)}


def graph_with_gaps(rng, n, unobserved_component):
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


def random_rating_matrix(
    rng: np.random.Generator,
    n_users: int,
    n_items: int,
    density: float = 0.5,
    bounds=(1.0, 5.0),
    integer: bool = True,
) -> RatingMatrix:
    lo, hi = bounds
    users, items, ratings = [], [], []
    for u in range(n_users):
        for i in range(n_items):
            if rng.uniform() < density:
                r = float(rng.integers(int(lo), int(hi) + 1)) if integer else float(rng.uniform(lo, hi))
                users.append(f"u{u}")
                items.append(f"m{i}")
                ratings.append(r)
    return RatingMatrix.from_ids(bounds, users, items, ratings)


def pearson_similarity(
    ratings_i: dict[str, float],
    ratings_j: dict[str, float],
    min_support: int = 3,
) -> Optional[float]:
    """Pearson correlation between two items over their co-rating users.

    Returns None when fewer than ``min_support`` users rated both items, or
    when either co-rated sub-vector is constant (the correlation is
    undefined there, which is not the same thing as zero). The tests hold
    ``build_item_graph``'s blocked scan equal to this pairwise reference.
    """
    if min_support < 2:
        raise ValueError("min_support must be at least 2")
    shared = ratings_i.keys() & ratings_j.keys()
    n = len(shared)
    if n < min_support:
        return None
    x = np.array([ratings_i[u] for u in sorted(shared)])
    y = np.array([ratings_j[u] for u in sorted(shared)])
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    num = n * float(x @ y) - float(x.sum()) * float(y.sum())
    var_x = n * float(x @ x) - float(x.sum()) ** 2
    var_y = n * float(y @ y) - float(y.sum()) ** 2
    if var_x <= 0 or var_y <= 0:
        return None
    r = num / np.sqrt(var_x * var_y)
    return float(min(1.0, max(-1.0, r)))


def smoothed_sum(graph: ItemGraph, values: np.ndarray, config) -> float:
    """Independent evaluation of the objective the gradient differentiates."""
    s = second_derivative(graph, values)
    s = s[~np.isnan(s)]
    eps, p = config.smoothing_eps, config.p
    return float(np.sum((s * s + eps * eps) ** (p / 2) - eps**p))


def analytic_gradient(graph: ItemGraph, values: np.ndarray, free, config) -> np.ndarray:
    """Gradient of the smoothed objective's sum at the ``free`` items, in index order, from sfr's own evaluator."""
    free_idx = sorted(graph.item_index[name] for name in free)
    vec = np.where(graph.degree > 0, values, 0.0)
    op, op_t = graph.second_difference_operators()
    eps = config.smoothing_eps
    s, q, _ = _smoothed_sums(op, vec[:, None], eps * eps, eps**config.p, config.p, [None])
    return _gradients(op_t, s, q, config.p)[free_idx, 0]
