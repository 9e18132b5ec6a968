import re

import numpy as np
import pytest

from rategraph import ItemGraph, RatingMatrix, ladder_toy_26, square_toy

# -- acceptance reporting: one status line per criterion, plus detail lines
# recorded by the tests themselves, printed after the run

_ACCEPTANCE_DETAIL: list[str] = []
_ACCEPTANCE_STATUS: dict[tuple[int, str], str] = {}


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_DETAIL.append(line)


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    m = re.search(r"TestCriterion(\d+)", report.nodeid)
    if not m:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _ACCEPTANCE_STATUS[(int(m.group(1)), report.nodeid)] = status


def pytest_terminal_summary(terminalreporter, exitstatus):
    if not _ACCEPTANCE_STATUS:
        return
    terminalreporter.section("acceptance criteria")
    for (crit, nodeid), status in sorted(_ACCEPTANCE_STATUS.items()):
        terminalreporter.line(f"criterion {crit}: {status}  [{nodeid.split('::')[-1]}]")
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
