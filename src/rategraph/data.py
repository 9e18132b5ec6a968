"""Rating dataset ingestion, reproducible splitting, and analytic toy fixtures.

User and item identifiers are opaque strings mapped to dense indices in
first-occurrence order; they are never interpreted as numbers. Timestamps
are parsed for format validation and then discarded, since nothing here
consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional

import numpy as np
from scipy import sparse

from .graph import ItemGraph

__all__ = [
    "RatingParseError",
    "RatingRecord",
    "RatingMatrix",
    "Split",
    "ToyFixture",
    "parse_ratings",
    "split_ratings",
    "write_ratings_csv",
    "write_test_manifest",
    "square_toy",
    "ladder_toy_26",
]


class RatingParseError(ValueError):
    """Parse failure carrying the 1-based line number of the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class RatingRecord:
    user_id: str
    item_id: str
    rating: float
    timestamp: Optional[int] = None


class RatingMatrix:
    """Sparse user x item observed ratings with a legal rating range.

    Entries are kept in insertion order; indices are assigned on first
    occurrence, so parsing the same file always produces the same layout.
    Instances are treated as immutable once built.
    """

    def __init__(self, bounds: tuple[float, float]):
        c_l, c_h = float(bounds[0]), float(bounds[1])
        if not c_l < c_h:
            raise ValueError("bounds must satisfy c_l < c_h")
        self.bounds: tuple[float, float] = (c_l, c_h)
        self.users: list[str] = []
        self.items: list[str] = []
        self.user_index: dict[str, int] = {}
        self.item_index: dict[str, int] = {}
        self._u: list[int] = []
        self._i: list[int] = []
        self._r: list[float] = []
        self._seen: set[tuple[int, int]] = set()
        # lazy per-user view
        self._by_user: Optional[list[dict[int, float]]] = None

    # -- construction ----------------------------------------------------------

    def _intern_user(self, user_id: str) -> int:
        k = self.user_index.get(user_id)
        if k is None:
            k = len(self.users)
            self.user_index[user_id] = k
            self.users.append(user_id)
        return k

    def _intern_item(self, item_id: str) -> int:
        k = self.item_index.get(item_id)
        if k is None:
            k = len(self.items)
            self.item_index[item_id] = k
            self.items.append(item_id)
        return k

    def add(self, user_id: str, item_id: str, rating: float) -> None:
        c_l, c_h = self.bounds
        if not (c_l <= rating <= c_h):
            raise ValueError(f"rating {rating} outside [{c_l}, {c_h}]")
        u = self._intern_user(user_id)
        i = self._intern_item(item_id)
        if (u, i) in self._seen:
            raise ValueError(f"duplicate rating for user {user_id!r}, item {item_id!r}")
        self._seen.add((u, i))
        self._u.append(u)
        self._i.append(i)
        self._r.append(float(rating))
        self._by_user = None

    # -- accessors ---------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_ratings(self) -> int:
        return len(self._r)

    def __len__(self) -> int:
        return len(self._r)

    def records(self) -> Iterator[RatingRecord]:
        for u, i, r in zip(self._u, self._i, self._r):
            yield RatingRecord(self.users[u], self.items[i], r)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self._u, dtype=np.int64),
            np.asarray(self._i, dtype=np.int64),
            np.asarray(self._r, dtype=np.float64),
        )

    def user_ratings(self, user_idx: int) -> dict[int, float]:
        """Item-index -> rating map for one user."""
        if self._by_user is None:
            by_user: list[dict[int, float]] = [dict() for _ in range(self.n_users)]
            for u, i, r in zip(self._u, self._i, self._r):
                by_user[u][i] = r
            self._by_user = by_user
        return self._by_user[user_idx]

    def user_item_matrix(self) -> sparse.csr_matrix:
        u, i, r = self.arrays()
        return sparse.csr_matrix((r, (u, i)), shape=(self.n_users, self.n_items))

    def global_mean(self) -> float:
        if not self._r:
            raise ValueError("empty rating matrix has no mean")
        return float(np.mean(self._r))

    def equals(self, other: "RatingMatrix") -> bool:
        return (
            self.bounds == other.bounds
            and self.users == other.users
            and self.items == other.items
            and self._u == other._u
            and self._i == other._i
            and self._r == other._r
        )


@dataclass(frozen=True)
class Split:
    """Disjoint train/test partition of one dataset."""

    train: RatingMatrix
    test: list[RatingRecord]
    fraction: float
    seed: int


def parse_ratings(
    stream: IO[str],
    format: str,
    bounds: tuple[float, float],
) -> RatingMatrix:
    """Parse a ratings stream into a RatingMatrix.

    ``format`` is ``movielens_dat`` (``user::item::rating::timestamp``, no
    header) or ``csv`` (header ``user,item,rating[,timestamp]``). Malformed
    lines, out-of-range ratings and duplicate (user, item) pairs raise
    :class:`RatingParseError` naming the 1-based line number.
    """
    if format not in ("movielens_dat", "csv"):
        raise ValueError(f"unknown format {format!r}")
    matrix = RatingMatrix(bounds)
    lines = iter(enumerate(stream, start=1))

    if format == "csv":
        header = next(lines, None)
        if header is not None:
            lineno, text = header
            cols = [c.strip() for c in text.rstrip("\n").split(",")]
            if cols[:3] != ["user", "item", "rating"]:
                raise RatingParseError(lineno, f"bad csv header {text.rstrip()!r}")

    for lineno, raw in lines:
        line = raw.rstrip("\n")
        if not line:
            continue
        if format == "movielens_dat":
            parts = line.split("::")
        else:
            parts = line.split(",")
        if len(parts) not in (3, 4):
            raise RatingParseError(lineno, f"expected 3 or 4 fields, got {len(parts)}")
        user_id, item_id = parts[0], parts[1]
        if not user_id or not item_id:
            raise RatingParseError(lineno, "empty user or item id")
        try:
            rating = float(parts[2])
        except ValueError:
            raise RatingParseError(lineno, f"bad rating {parts[2]!r}") from None
        if len(parts) == 4 and parts[3]:
            try:
                int(parts[3])
            except ValueError:
                raise RatingParseError(lineno, f"bad timestamp {parts[3]!r}") from None
        try:
            matrix.add(user_id, item_id, rating)
        except ValueError as exc:
            raise RatingParseError(lineno, str(exc)) from None
    return matrix


def split_ratings(matrix: RatingMatrix, fraction: float, seed: int) -> Split:
    """Deterministic train/test split.

    Records are permuted with numpy's PCG64 generator seeded by ``seed``
    (a documented, portable algorithm), and the first
    ``round((1 - fraction) * n)`` of the permutation become the test set.
    Identical inputs therefore yield bit-identical splits on any platform.
    """
    if not (0 < fraction < 1):
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = matrix.n_ratings
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    n_test = int(round((1 - fraction) * n))
    test_pos = set(perm[:n_test].tolist())

    train = RatingMatrix(matrix.bounds)
    test: list[RatingRecord] = []
    for pos, rec in enumerate(matrix.records()):
        if pos in test_pos:
            test.append(rec)
        else:
            train.add(rec.user_id, rec.item_id, rec.rating)
    return Split(train=train, test=test, fraction=fraction, seed=seed)


def write_ratings_csv(matrix: RatingMatrix, stream: IO[str]) -> None:
    """CSV serialization that round-trips exactly through parse_ratings."""
    stream.write("user,item,rating\n")
    for rec in matrix.records():
        stream.write(f"{rec.user_id},{rec.item_id},{rec.rating!r}\n")


def write_test_manifest(test: Iterable[RatingRecord], stream: IO[str]) -> None:
    """One `user,item,rating` line per test record, for exact replay."""
    for rec in test:
        stream.write(f"{rec.user_id},{rec.item_id},{rec.rating!r}\n")


# -- analytic toy fixtures ------------------------------------------------------


@dataclass(frozen=True)
class ToyFixture:
    """A hand-built network with an observed set and (optionally) full truth."""

    graph: ItemGraph
    observed: dict[str, float]
    bounds: tuple[float, float]
    ground_truth: Optional[dict[str, float]]
    notes: str


def square_toy() -> ToyFixture:
    """Four items on a 4-cycle: A-B, C-D, A-C, B-D, uniform weight 1.

    A (5 stars) and C (3 stars) are observed; B and D wait prediction.
    There is no unique completion: several two-source assignments fit the
    observations, e.g. harmonic interpolation gives B=13/3, D=11/3, while
    sources at A and D give B=3, D=1.
    """
    items = ("A", "B", "C", "D")
    edges = [("A", "B", 1.0), ("C", "D", 1.0), ("A", "C", 1.0), ("B", "D", 1.0)]
    graph = ItemGraph.from_edges(items, edges)
    return ToyFixture(
        graph=graph,
        observed={"A": 5.0, "C": 3.0},
        bounds=(1.0, 9.0),
        ground_truth=None,
        notes=(
            "4-cycle demo of the rating bound problem; multiple minimal-source "
            "completions exist, so no single ground truth is designated."
        ),
    )


def ladder_toy_26() -> ToyFixture:
    """The 26-item ladder network with two interest centers.

    Bottom node v1 (rating 2) joins four columns whose rows carry ratings
    3..8; top node v26 (rating 9) caps them. Middle columns are rung-cross
    linked at every row. The ground-truth rating function has vanishing
    second derivative everywhere except v1 (+1) and v26 (-1). Eight interior
    ratings are observed, all within [4, 7] - the true extremes at v1 and
    v26 lie outside the observed range.
    """
    names = tuple(f"v{k}" for k in range(1, 27))
    row_of = {1: 2.0, 26: 9.0}
    # columns bottom-to-top: (v2 v6 v10 v14 v18 v22), (v3 v7 v11 v15 v19 v23),
    # (v4 v8 v12 v16 v20 v24), (v5 v9 v13 v17 v21 v25); row ratings 3..8
    columns = [
        [2, 6, 10, 14, 18, 22],
        [3, 7, 11, 15, 19, 23],
        [4, 8, 12, 16, 20, 24],
        [5, 9, 13, 17, 21, 25],
    ]
    for col in columns:
        for level, node in enumerate(col):
            row_of[node] = 3.0 + level

    edges: list[tuple[str, str, float]] = []

    def link(a: int, b: int) -> None:
        edges.append((f"v{a}", f"v{b}", 1.0))

    for col in columns:
        link(1, col[0])
        for a, b in zip(col, col[1:]):
            link(a, b)
        link(col[-1], 26)
    for a, b in [(3, 4), (7, 8), (11, 12), (15, 16), (19, 20), (23, 24)]:
        link(a, b)

    graph = ItemGraph.from_edges(names, edges)
    ground_truth = {f"v{k}": row_of[k] for k in range(1, 27)}
    observed = {f"v{k}": ground_truth[f"v{k}"] for k in (6, 9, 11, 12, 15, 16, 18, 21)}
    return ToyFixture(
        graph=graph,
        observed=observed,
        bounds=(1.0, 9.0),
        ground_truth=ground_truth,
        notes=(
            "26-item ladder; sources only at v1 and v26, both outside the "
            "observed rating range [4, 7]."
        ),
    )
