"""Rating dataset ingestion, reproducible splitting, and analytic toy fixtures.

User and item identifiers are opaque strings mapped to dense indices in
first-occurrence order; they are never interpreted as numbers. Timestamps
are parsed for format validation and then discarded, since nothing here
consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .graph import ItemGraph

__all__ = [
    "RatingParseError",
    "RatingRecord",
    "RatingMatrix",
    "Split",
    "ToyFixture",
    "parse_ratings",
    "split_ratings",
    "write_test_manifest",
    "square_toy",
    "ladder_toy_26",
]


class RatingParseError(ValueError):
    """Parse failure carrying the 1-based line number of the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class RatingRecord(NamedTuple):
    user_id: str
    item_id: str
    rating: float


# lines parsed, or records turned into RatingRecords, per step; bounds the
# Python objects alive at once
_CHUNK = 4096


class RatingMatrix:
    """Sparse user x item observed ratings with a legal rating range.

    Ratings are stored as three columns in record order: int64 user and
    item indices into the ``users`` and ``items`` name lists, and float64
    ratings. Every matrix is built by this constructor, which checks the
    whole columns at once: each rating lies in ``bounds`` and each
    (user, item) pair occurs once. :meth:`from_ids` interns string ids in
    first-occurrence order, so parsing the same file always produces the
    same layout. Instances are immutable; the columns are read-only.
    """

    def __init__(
        self,
        bounds: tuple[float, float],
        users: Sequence[str] = (),
        items: Sequence[str] = (),
        user_col: ArrayLike = (),
        item_col: ArrayLike = (),
        ratings: ArrayLike = (),
    ):
        self.bounds: tuple[float, float] = _checked_bounds(bounds)
        self.users: list[str] = list(users)
        self.items: list[str] = list(items)
        self.user_index: dict[str, int] = {name: k for k, name in enumerate(self.users)}
        self.item_index: dict[str, int] = {name: k for k, name in enumerate(self.items)}
        if len(self.user_index) != len(self.users) or len(self.item_index) != len(self.items):
            raise ValueError("user and item ids must be unique")
        u = np.array(user_col, dtype=np.int64)
        i = np.array(item_col, dtype=np.int64)
        r = np.array(ratings, dtype=np.float64)
        if not (u.ndim == 1 and u.shape == i.shape == r.shape):
            raise ValueError("user, item and rating columns must be 1-d and of equal length")
        if u.size and not (0 <= u.min() and u.max() < len(self.users)):
            raise ValueError("user index out of range")
        if i.size and not (0 <= i.min() and i.max() < len(self.items)):
            raise ValueError("item index out of range")
        for col in (u, i, r):
            col.flags.writeable = False
        self._u, self._i, self._r = u, i, r
        self._check_records()
        # by-user view (row starts, item column, rating column), made by user_ratings
        self._rows: Optional[tuple[list[int], np.ndarray, np.ndarray]] = None

    @classmethod
    def from_ids(
        cls,
        bounds: tuple[float, float],
        user_ids: Sequence[str],
        item_ids: Sequence[str],
        ratings: ArrayLike,
    ) -> "RatingMatrix":
        """One record per position of the three sequences, ids interned in first-occurrence order."""
        user_index, item_index = _Ids(), _Ids()
        u = _intern(user_ids, user_index)
        i = _intern(item_ids, item_index)
        return cls(bounds, list(user_index), list(item_index), u, i, ratings)

    def _check_records(self) -> None:
        """Raise :class:`_BadRecord` at the first record, in order, that is out of range or a repeat."""
        n = self._r.size
        c_l, c_h = self.bounds
        outside = np.flatnonzero(~((self._r >= c_l) & (self._r <= c_h)))
        first_outside = int(outside[0]) if outside.size else n
        key = self._u * max(1, len(self.items)) + self._i
        order = np.argsort(key, kind="stable")
        # a stable sort keeps equal keys in record order, so every later copy follows its first
        repeats = order[1:][key[order[1:]] == key[order[:-1]]]
        first_repeat = int(repeats.min()) if repeats.size else n
        if first_outside < n and first_outside <= first_repeat:
            rating = float(self._r[first_outside])
            raise _BadRecord(first_outside, f"rating {rating} outside [{c_l}, {c_h}]")
        if first_repeat < n:
            user, item = self.users[self._u[first_repeat]], self.items[self._i[first_repeat]]
            raise _BadRecord(first_repeat, f"duplicate rating for user {user!r}, item {item!r}")

    # -- accessors ---------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_ratings(self) -> int:
        return self._r.size

    def __len__(self) -> int:
        return self._r.size

    def records(self) -> Iterator[RatingRecord]:
        return _records(self, slice(None))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only user index, item index and rating columns."""
        return self._u, self._i, self._r

    def user_ratings(self, user_idx: int) -> dict[int, float]:
        """Item-index -> rating map for one user, in record order; treat it as read-only.

        Maps are cut from a by-user view built on first use.
        """
        if self._rows is None:
            order = np.argsort(self._u, kind="stable")
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(np.bincount(self._u, minlength=self.n_users), out=indptr[1:])
            self._rows = (indptr.tolist(), self._i[order], self._r[order])
        indptr, items, ratings = self._rows
        lo, hi = indptr[user_idx], indptr[user_idx + 1]
        return dict(zip(items[lo:hi].tolist(), ratings[lo:hi].tolist()))

    def global_mean(self) -> float:
        if not self._r.size:
            raise ValueError("empty rating matrix has no mean")
        return float(np.mean(self._r))

    def equals(self, other: "RatingMatrix") -> bool:
        return (
            self.bounds == other.bounds
            and self.users == other.users
            and self.items == other.items
            and np.array_equal(self._u, other._u)
            and np.array_equal(self._i, other._i)
            and np.array_equal(self._r, other._r)
        )


class _BadRecord(ValueError):
    """A record the constructor rejects, with its 0-based position."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


def _checked_bounds(bounds: tuple[float, float]) -> tuple[float, float]:
    c_l, c_h = float(bounds[0]), float(bounds[1])
    if not c_l < c_h:
        raise ValueError("bounds must satisfy c_l < c_h")
    return c_l, c_h


class _Ids(dict):
    """Id -> index map that numbers an id it has not seen when asked for it."""

    def __missing__(self, name: str) -> int:
        self[name] = index = len(self)
        return index


def _intern(ids: Sequence[str], index: _Ids) -> np.ndarray:
    """Index of each id, adding ids new to ``index`` in first-occurrence order."""
    return np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def _reindex(codes: np.ndarray, names: list[str]) -> tuple[np.ndarray, list[str]]:
    """``codes`` renumbered 0.. in first-occurrence order, and the names they keep."""
    first = np.full(len(names), codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    kept = np.flatnonzero(first < codes.size)
    kept = kept[np.argsort(first[kept])]  # first positions are distinct, so any sort gives one order
    renumber = np.empty(len(names), dtype=np.int64)
    renumber[kept] = np.arange(kept.size)
    return renumber[codes], [names[k] for k in kept.tolist()]


def _records(matrix: RatingMatrix, keep: slice | np.ndarray) -> Iterator[RatingRecord]:
    """The records that index ``keep`` selects, in order; ratings as Python floats."""
    u, i, r = (col[keep] for col in matrix.arrays())
    users, items = matrix.users, matrix.items
    for lo in range(0, r.size, _CHUNK):
        hi = lo + _CHUNK
        # tuple.__new__ builds each record in C; the NamedTuple's own __new__ is Python
        fields = zip(map(users.__getitem__, u[lo:hi].tolist()), map(items.__getitem__, i[lo:hi].tolist()),
                     r[lo:hi].tolist())
        yield from map(tuple.__new__, repeat(RatingRecord), fields)


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
    :class:`RatingParseError` naming the 1-based line number of the first
    offending line in file order.
    """
    if format not in ("movielens_dat", "csv"):
        raise ValueError(f"unknown format {format!r}")
    bounds = _checked_bounds(bounds)
    sep = "::" if format == "movielens_dat" else ","
    lines = iter(stream)
    lineno = 1

    if format == "csv":
        text = next(lines, None)
        if text is not None:
            cols = [c.strip() for c in text.rstrip("\n").split(",")]
            if cols[:3] != ["user", "item", "rating"]:
                raise RatingParseError(lineno, f"bad csv header {text.rstrip()!r}")
            lineno += 1

    user_index, item_index = _Ids(), _Ids()
    empty = np.empty(0, dtype=np.int64)
    linenos, user_col, item_col, rating_col = [empty], [empty], [empty], [np.empty(0)]
    malformed: Optional[RatingParseError] = None
    while malformed is None:
        chunk = list(islice(lines, _CHUNK))
        if not chunk:
            break
        numbers, users, items, ratings, malformed = _tokenise(chunk, lineno, sep)
        lineno += len(chunk)
        linenos.append(numbers)
        user_col.append(_intern(users, user_index))
        item_col.append(_intern(items, item_index))
        rating_col.append(np.array(ratings, dtype=np.float64))
    try:
        matrix = RatingMatrix(
            bounds,
            list(user_index),
            list(item_index),
            np.concatenate(user_col),
            np.concatenate(item_col),
            np.concatenate(rating_col),
        )
    except _BadRecord as exc:
        # every record before a malformed line precedes it in the file
        raise RatingParseError(int(np.concatenate(linenos)[exc.position]), str(exc)) from None
    if malformed is not None:
        raise malformed
    return matrix


def _tokenise(
    chunk: list[str], first_lineno: int, sep: str
) -> tuple[np.ndarray, list[str], list[str], list[float], Optional[RatingParseError]]:
    """Line numbers, user ids, item ids and ratings of the records in a chunk of lines.

    Stops at the first malformed line and returns its error instead of
    raising it, so that a bad record earlier in the file can be reported
    first. Timestamps are checked and dropped.
    """
    fields = _fast_fields(chunk, sep)
    if fields is not None:
        return np.arange(first_lineno, first_lineno + len(chunk), dtype=np.int64), *fields, None
    lines = map(str.rstrip, chunk, repeat("\n"))
    numbers, users, items, ratings = [], [], [], []
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line:
            continue
        parts = line.split(sep)
        error = _malformed(lineno, parts)
        if error is not None:
            return np.array(numbers, dtype=np.int64), users, items, ratings, error
        numbers.append(lineno)
        users.append(parts[0])
        items.append(parts[1])
        ratings.append(float(parts[2]))
    return np.array(numbers, dtype=np.int64), users, items, ratings, None


def _fast_fields(chunk: list[str], sep: str) -> Optional[tuple[list[str], list[str], list[float]]]:
    """User ids, item ids and ratings of a chunk of good records of one field count, or None.

    The lines are as a text stream yields them. Their separators are counted
    in one numpy pass over the chunk's text, and the fields cut out of it. A
    blank line, mixed field counts, a bad field or a '\\r' (where a line may
    end without '\\n') gives None: the line-by-line pass locates the error.
    """
    text = "".join(chunk).rstrip("\n")
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    breaks = np.flatnonzero(raw == ord("\n"))
    if "\r" in text or breaks.size != len(chunk) - 1:
        return None
    # a run of m separator characters holds m // len(sep) separators, as str.count and str.split find them
    edges = np.flatnonzero(np.diff(raw == ord(sep[0]), prepend=False, append=False))
    counts = np.bincount(np.searchsorted(breaks, edges[0::2]), np.diff(edges)[0::2] // len(sep), len(chunk))
    k = int(counts[0]) + 1
    if k not in (3, 4) or (counts != k - 1).any():
        return None
    fields = text.replace(sep, "\n").split("\n")
    users, items = fields[0::k], fields[1::k]
    try:
        ratings = list(map(float, fields[2::k]))
        if k == 4:
            list(map(int, filter(None, fields[3::k])))
    except ValueError:
        return None
    return None if "" in users or "" in items else (users, items, ratings)


def _malformed(lineno: int, parts: list[str]) -> Optional[RatingParseError]:
    """The error for one non-blank line's fields, or None if they form a record."""
    if len(parts) not in (3, 4):
        return RatingParseError(lineno, f"expected 3 or 4 fields, got {len(parts)}")
    if not parts[0] or not parts[1]:
        return RatingParseError(lineno, "empty user or item id")
    try:
        float(parts[2])
    except ValueError:
        return RatingParseError(lineno, f"bad rating {parts[2]!r}")
    if len(parts) == 4 and parts[3]:
        try:
            int(parts[3])
        except ValueError:
            return RatingParseError(lineno, f"bad timestamp {parts[3]!r}")
    return None


def split_ratings(matrix: RatingMatrix, fraction: float, seed: int) -> Split:
    """Deterministic train/test split.

    Records are permuted with numpy's PCG64 generator seeded by ``seed``
    (a documented, portable algorithm), and the first
    ``round((1 - fraction) * n)`` of the permutation become the test set.
    Both sides keep file order; the train side interns its ids afresh in
    first-occurrence order. Identical inputs therefore yield bit-identical
    splits on any platform.
    """
    if not (0 < fraction < 1):
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = matrix.n_ratings
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    n_test = int(round((1 - fraction) * n))
    is_test = np.zeros(n, dtype=bool)
    is_test[perm[:n_test]] = True
    test = list(_records(matrix, is_test))
    u, i, r = matrix.arrays()
    keep = ~is_test
    u, users = _reindex(u[keep], matrix.users)
    i, items = _reindex(i[keep], matrix.items)
    train = RatingMatrix(matrix.bounds, users, items, u, i, r[keep])
    return Split(train=train, test=test, fraction=fraction, seed=seed)


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
    )
