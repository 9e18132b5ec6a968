"""Item-item similarity graph and the discrete second-derivative operator.

The graph is an undirected, positively weighted network whose nodes are
items. Edges come from Pearson correlation between item rating columns,
thresholded strictly from above. On such a graph the discrete second
derivative of a per-item value vector R is

    grad2 R[i] = sum_j w(i,j) R[j] / d(i) - R[i],

i.e. the weighted neighbor average minus the node's own value (the negative
of the random-walk Laplacian applied to R). Items with degree zero carry no
second derivative and are excluded from all solves.
"""

from __future__ import annotations

import math
from typing import IO, TYPE_CHECKING, Iterable, NamedTuple, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

if TYPE_CHECKING:  # pragma: no cover
    from .data import RatingMatrix

__all__ = [
    "ItemGraph",
    "build_item_graph",
    "second_derivative",
    "serialize_graph",
    "sources",
]

# Edge weights are quantized to this many decimals so that the TSV edge-list
# serialization (which writes as many) is exactly lossless.
WEIGHT_DECIMALS = 12
# item columns per block of build_item_graph; bounds its dense work arrays
_BLOCK = 512


class ItemGraph:
    """Immutable weighted undirected item network.

    Adjacency is stored in CSR form with sorted neighbor indices, so
    iteration order is deterministic. Construction validates symmetry,
    positive weights and the absence of self-loops; after that the object
    is read-only and safe to share across concurrent solves.
    """

    def __init__(self, items: Iterable[str], matrix: sparse.csr_matrix):
        self.items: tuple[str, ...] = tuple(str(i) for i in items)
        n = len(self.items)
        if matrix.shape != (n, n):
            raise ValueError(f"adjacency shape {matrix.shape} != ({n}, {n})")
        w = matrix.tocsr().astype(np.float64)
        w.sort_indices()
        w.eliminate_zeros()
        self._w = w
        self.item_index: dict[str, int] = {name: k for k, name in enumerate(self.items)}
        if len(self.item_index) != n:
            raise ValueError("duplicate item names")
        # checked before the degree sum, which would warn on a row holding +inf and -inf
        self._validate()
        self.degree: np.ndarray = np.asarray(w.sum(axis=1)).ravel()
        self.degree.setflags(write=False)
        # lazy caches (P - I and its transpose, component labels)
        self._ops: Optional[tuple[CsrArrays, CsrArrays]] = None
        self._labels: Optional[np.ndarray] = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edges(cls, items: Iterable[str], edges: Iterable[tuple[str, str, float]]) -> "ItemGraph":
        """Build from (item_a, item_b, weight) triples, one per undirected edge."""
        items = tuple(str(i) for i in items)
        index = {name: k for k, name in enumerate(items)}
        rows, cols, vals = [], [], []
        seen: set[tuple[int, int]] = set()
        for a, b, w in edges:
            ia, ib = index.get(str(a)), index.get(str(b))
            if ia is None or ib is None:
                raise ValueError(f"edge references undeclared item {a!r} or {b!r}")
            if ia == ib:
                raise ValueError(f"self-loop on item {a!r}")
            key = (min(ia, ib), max(ia, ib))
            if key in seen:
                raise ValueError(f"duplicate edge {a!r}--{b!r}")
            seen.add(key)
            # checked here, since the constructor drops a zero weight before its own check
            if not 0 < float(w) < math.inf:
                raise ValueError(f"edge {a!r}--{b!r} has weight {float(w)!r}; weights must be positive and finite")
            rows += [ia, ib]
            cols += [ib, ia]
            vals += [float(w), float(w)]
        n = len(items)
        m = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return cls(items, m)

    def _validate(self) -> None:
        w = self._w
        # stored entries are nonzero, so any on the diagonal is a self-loop
        if np.any(w.diagonal()):
            raise ValueError("graph has self-loops")
        if w.data.size and w.data.min() <= 0:
            raise ValueError("graph has non-positive edge weights")
        # both sides are sorted CSR, so equal arrays mean W = W^T; a non-finite weight fails here too
        wt = w.T.tocsr()
        same = all(map(np.array_equal, (w.indptr, w.indices, w.data), (wt.indptr, wt.indices, wt.data)))
        if not (same and np.isfinite(w.data).all()):
            raise ValueError("adjacency is not symmetric")

    # -- accessors ------------------------------------------------------------

    @property
    def item_count(self) -> int:
        return len(self.items)

    @property
    def edge_count(self) -> int:
        return self._w.nnz // 2

    @property
    def adjacency(self) -> sparse.csr_matrix:
        return self._w

    def adjacency_arrays(self) -> CsrArrays:
        """W's own CSR arrays for :func:`_apply`, wrapped on each call and not copied."""
        return CsrArrays(self._w.indptr, self._w.indices, self._w.data)

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and weights of node ``i``, sorted by index."""
        lo, hi = self._w.indptr[i], self._w.indptr[i + 1]
        return self._w.indices[lo:hi], self._w.data[lo:hi]

    def edges(self) -> Iterable[tuple[int, int, float]]:
        """Each undirected edge once, as (i, j, w) with i < j, lexicographic."""
        coo = self._w.tocoo()
        for i, j, w in zip(coo.row, coo.col, coo.data):
            if i < j:
                yield int(i), int(j), float(w)

    def second_difference_operators(self) -> tuple[CsrArrays, CsrArrays]:
        """P - I and its transpose as raw CSR arrays, for scipy's ``csr_matvec`` (cached).

        P = D^-1 W is the random-walk matrix, with zero rows at degree-0
        items. Each row holds the row's entries of P (or of P^T) in ascending
        column order and then its diagonal -1. ``csr_matvec`` sums a row from 0
        in stored order, so it ends in ``+ (-1) * x[i]``, which rounds exactly
        as the ``- x[i]`` of ``P @ x - x`` does: the results are equal bit for
        bit. The arrays are read-only.
        """
        if self._ops is None:
            w = self._w
            inv = np.zeros(self.item_count)
            nz = self.degree > 0
            inv[nz] = 1.0 / self.degree[nz]
            # W is symmetric with sorted indices, so P = D^-1 W and P^T = W D^-1
            # are W's own structure with each weight divided by a degree
            row = np.repeat(np.arange(self.item_count), np.diff(w.indptr))
            p = CsrArrays(w.indptr, w.indices, w.data * inv[row])
            pt = CsrArrays(w.indptr, w.indices, w.data * inv[w.indices])
            self._ops = (_minus_identity(p), _minus_identity(pt))
        return self._ops

    def component_labels(self) -> np.ndarray:
        """Connected-component label per node (deterministic numbering)."""
        if self._labels is None:
            n_comp, labels = sparse.csgraph.connected_components(
                self._w, directed=False, return_labels=True
            )
            labels = np.asarray(labels)
            labels.setflags(write=False)
            self._labels = labels
        return self._labels

    def structurally_equal(self, other: "ItemGraph") -> bool:
        same_w = map(np.array_equal, self.adjacency_arrays(), other.adjacency_arrays())
        # equal items give equal shapes
        return self.items == other.items and all(same_w)


class CsrArrays(NamedTuple):
    """A square CSR matrix as the three arrays scipy's kernels take."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _apply(op: CsrArrays, vecs: np.ndarray) -> np.ndarray:
    """``op`` times a vector of n entries, or times each column of an (n x k) block.

    Calls scipy's compiled ``csr_matvec`` on a fresh zero output, which is
    all that ``mat @ vec`` does after its operator dispatch, so the result is
    the same bit for bit. Above one column it calls ``csr_matvecs``, which
    sums each column in the order ``csr_matvec`` sums one vector, so the
    columns are bit-equal to separate products; at one column the block
    kernel costs 1.4-3.8 times as much. The kernels read the block row by
    row, as ``ravel`` lays it out, and trust their sizes, so a vector or
    block of the wrong length or dtype raises here instead of being read
    past its end.
    """
    n = op.indptr.size - 1
    if not (vecs.dtype == np.float64 and vecs.ndim in (1, 2) and vecs.shape[0] == n):
        raise ValueError(
            f"the kernel needs a float64 vector of length {n} or a float64 block of {n} rows,"
            f" got {vecs.dtype} {vecs.shape}"
        )
    out = np.zeros(vecs.shape)
    k = 1 if vecs.ndim == 1 else vecs.shape[1]
    if k == 1:
        _sparsetools.csr_matvec(n, n, op.indptr, op.indices, op.data, vecs.ravel(), out.ravel())
    else:
        _sparsetools.csr_matvecs(n, n, k, op.indptr, op.indices, op.data, vecs.ravel(), out.ravel())
    return out


def _minus_identity(mat: CsrArrays) -> CsrArrays:
    """``mat - I`` for a square CSR matrix with no stored diagonal, each row's -1 stored last."""
    n = mat.indptr.size - 1
    ends = mat.indptr[1:]
    # np.insert puts each value before the given position, so at the end of its row
    indptr = mat.indptr + np.arange(n + 1, dtype=mat.indptr.dtype)
    indices = np.insert(mat.indices, ends, np.arange(n, dtype=mat.indices.dtype))
    data = np.insert(mat.data, ends, -1.0)
    for arr in (indptr, indices, data):
        arr.setflags(write=False)
    return CsrArrays(indptr, indices, data)


def build_item_graph(
    train: "RatingMatrix",
    threshold: float,
    min_support: int = 3,
) -> ItemGraph:
    """Thresholded Pearson item network from a training rating matrix.

    An edge (i, j) is present iff the correlation over co-rating users
    exists (>= min_support co-raters, non-constant sub-vectors) and is
    strictly above ``threshold``; its weight is the correlation. Items
    without qualifying edges remain as isolated degree-0 nodes.

    All item pairs are scanned in blocks of columns, each from co-rating
    sums made by :func:`_dense_product`; the result is identical to the
    tests' pairwise reference, ``pearson_similarity`` in ``tests/conftest.py``.
    """
    if not (0 < threshold < 1):
        raise ValueError("threshold must lie strictly between 0 and 1")
    if min_support < 2:
        raise ValueError("min_support must be at least 2")
    n_items, n_users = train.n_items, train.n_users
    u, i, r = train.arrays()
    block = max(1, min(_BLOCK, n_items))
    # one index dtype for operands and buffers: int32 when every index and offset fits, as scipy picks
    idx = np.int32 if max(r.size, n_users, n_items * block) <= np.iinfo(np.int32).max else np.int64

    def channels(keep: np.ndarray, rows: np.ndarray, cols: np.ndarray, n_rows: int) -> tuple:
        """CSR indptr and indices of entries ``keep`` at ``cols``, row by row, and their values 1, r and r^2."""
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows)))).astype(idx)
        x = r[keep]
        return indptr, cols.astype(idx), (np.ones(x.size), x, x * x)

    # item-major rows with users ascending: the order in which ``@`` sums each product entry
    by_item = np.argsort(i * n_users + u)
    t_ptr, t_ind, (b_t, x_t, x2_t) = channels(by_item, i, u[by_item], n_items)
    by_user = np.argsort(u * n_items + i)
    found = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]
    for lo in range(0, n_items, block):
        hi = min(lo + block, n_items)
        in_block = by_user[(i[by_user] >= lo) & (i[by_user] < hi)]
        j_ptr, j_ind, (b_j, x_j, x2_j) = channels(in_block, u[in_block], i[in_block] - lo, n_users)
        # only rows i < hi can pair with the block (i < j); a product row holds
        # at most hi - lo entries, so one buffer serves every product
        cj, cx = np.empty(hi * (hi - lo), dtype=idx), np.empty(hi * (hi - lo))
        # sum r_j and sum r_j^2 over rows i < lo; on the diagonal square they are the transposes of
        # sum r_i and sum r_i^2, each entry adding the same values over the same users in the same order
        specs = ((b_t, b_j, hi), (x_t, b_j, hi), (x2_t, b_j, hi), (x_t, x_j, hi), (b_t, x_j, lo), (b_t, x2_j, lo))
        n_co, s_i, q_i, c_ij, s_j, q_j = (_dense_product((t_ptr, t_ind, a), (j_ptr, j_ind, b), hi - lo, rows, cj, cx)
                                          for a, b, rows in specs)
        del cj, cx
        s_j = np.concatenate((s_j, s_i[lo:].T))
        q_j = np.concatenate((q_j, q_i[lo:].T))
        # num = n_co*c_ij - s_i*s_j, var = n_co*q - s^2 and corr = num/sqrt(var_i*var_j),
        # the same operations on the same operands, in place
        ok = n_co >= min_support
        for v in (c_ij, q_i, q_j):
            v *= n_co
        c_ij -= np.multiply(s_i, s_j, out=n_co)
        q_i -= np.square(s_i, out=s_i)
        q_j -= np.square(s_j, out=s_j)
        ok &= (q_i > 0) & (q_j > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            c_ij /= np.sqrt(np.multiply(q_i, q_j, out=s_i), out=s_i)
        ok &= np.isfinite(c_ij) & (c_ij > threshold)
        gi, gj = np.nonzero(np.triu(ok, 1 - lo))  # each undirected pair once: global i < j
        found.append((gi, gj + lo, np.round(c_ij[gi, gj], WEIGHT_DECIMALS)))
        del n_co, s_i, s_j, q_i, q_j, c_ij  # before the next block's products

    rows, cols, w = map(np.concatenate, zip(*found))
    m = sparse.csr_matrix((np.concatenate([w, w]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                          shape=(n_items, n_items))
    return ItemGraph(train.items, m)


def _dense_product(a: tuple, b: tuple, n_col: int, rows: int, cj: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """``(A[:rows] @ B).toarray()`` for float64 CSR operands given as ``(indptr, indices, data)``, bit for bit.

    ``B`` has ``n_col`` columns. Calls the compiled kernels that ``@`` and
    ``toarray`` run, so each entry is summed over ``A``'s row in stored order,
    as there, but skips the structure pass that sizes ``@``'s output: a product
    row has at most ``n_col`` entries, so ``cj`` and ``cx`` need ``rows * n_col``
    slots. The kernels trust their sizes and indices and write into those
    buffers, so a wrong size, dtype, layout or index raises here.
    """
    (ap, aj, ax), (bp, bj, bx) = a, b
    idx = aj.dtype
    if not (
        idx in (np.int32, np.int64) and all(v.dtype == idx for v in (ap, bp, bj, cj))
        and ax.dtype == bx.dtype == cx.dtype == np.float64 and cj.flags.writeable and cx.flags.writeable
        and all(v.ndim == 1 and v.flags.c_contiguous for v in (ap, aj, ax, bp, bj, bx, cj, cx))
        and aj.size == ax.size and bj.size == bx.size and 0 <= rows < ap.size and 0 < bp.size
        # the rows used lie in the arrays, A's column indices name rows of B, and B's fall below n_col
        and ap[rows] <= aj.size and bp[-1] <= bj.size
        and aj[:ap[rows]].max(initial=-1) < bp.size - 1 and bj[:bp[-1]].max(initial=-1) < n_col
        and rows * n_col <= min(cj.size, cx.size, np.iinfo(idx).max)
    ):
        raise ValueError(f"product needs float64 CSR arrays of one index dtype and {rows * n_col}-slot buffers")
    cp = np.empty(rows + 1, dtype=idx)
    _sparsetools.csr_matmat(rows, n_col, ap, aj, ax, bp, bj, bx, cp, cj, cx)
    out = np.zeros((rows, n_col))
    _sparsetools.csr_todense(rows, n_col, cp, cj, cx, out)
    return out


def _defined_values(graph: ItemGraph, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A complete vector with 0 at degree-0 items, and the indices of the other items.

    Raises on a vector of the wrong length or one that is not finite where
    the second derivative is defined.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (graph.item_count,):
        raise ValueError("values must have one entry per item")
    defined = graph.degree > 0
    if not np.all(np.isfinite(values[defined])):
        raise ValueError("values contain non-finite entries on connected items")
    return np.where(defined, values, 0.0), np.flatnonzero(defined)


def second_derivative(graph: ItemGraph, values: np.ndarray) -> np.ndarray:
    """Discrete second derivative of a complete per-item vector; NaN at degree-0 items.

    ``values`` must hold one finite number per item with positive degree;
    entries at degree-0 items are ignored.
    """
    safe, _ = _defined_values(graph, values)
    out = _apply(graph.second_difference_operators()[0], safe)
    return np.where(graph.degree > 0, out, np.nan)


def sources(second: np.ndarray, floor: float) -> np.ndarray:
    """Positions whose second derivative exceeds ``floor`` in absolute value: the rating function's sources.

    Callers pass the solver's ``smoothing_eps``, at or below which the smoothed objective treats a
    second derivative as flat. A NaN entry, a degree-0 item, is never a source.
    """
    if not 0 < floor < math.inf:
        raise ValueError(f"source floor must be positive and finite, got {floor!r}")
    return np.flatnonzero(np.abs(np.nan_to_num(second)) > floor)


# -- edge-list TSV serialization ----------------------------------------------
#
# Line format, tab separated:
#   #items<TAB><count>          header: number of nodes
#   #item<TAB><name>            one per node, in index order
#   <item_a><TAB><item_b><TAB><weight>   one per undirected edge, WEIGHT_DECIMALS decimals
#
# The node prolog names every item, isolated ones included; a reader that
# only wants edges can skip the '#' lines. An item id that holds a tab or a
# line break, or starts with '#', is refused before any line is written.


def _breaks_line(text: str) -> bool:
    """Whether ``text`` holds a character that ``str.splitlines`` splits on."""
    return len(f"{text}.".splitlines()) > 1


def serialize_graph(graph: ItemGraph, stream: IO[str]) -> None:
    for name in graph.items:
        if "\t" in name or _breaks_line(name) or name.startswith("#"):
            raise ValueError(
                f"item id {name!r} holds a tab or a line break or starts with '#'; graph.tsv cannot hold it"
            )
    stream.write(f"#items\t{graph.item_count}\n")
    for name in graph.items:
        stream.write(f"#item\t{name}\n")
    for i, j, w in graph.edges():
        stream.write(f"{graph.items[i]}\t{graph.items[j]}\t{w:.{WEIGHT_DECIMALS}f}\n")
