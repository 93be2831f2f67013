"""Shared Euclidean geometry: cached pairwise distances and the exact EMST.

Caches are keyed by Dataset identity (weak references), so a dataset's
distance matrix and minimum spanning tree are computed once and reused by
every index evaluator and optimization run over that dataset.  Every
consumer reads distances through :class:`DistanceProvider`; only this
module decides whether the full matrix is materialized (n <= DENSE_LIMIT)
or each row is computed on demand.
"""

from __future__ import annotations

import os
import threading
import weakref

import numpy as np
from scipy.spatial.distance import cdist

from .dataio import Dataset

#: Largest n for which the full n x n distance matrix is materialized.
DENSE_LIMIT = int(os.environ.get("CVIOPT_DENSE_LIMIT", "4096"))
#: Most cells in one block of rows: distances read at once, or a kernel's
#: temporaries.
_BLOCK_CELLS = 1 << 14

_lock = threading.Lock()
_pairwise_cache: "weakref.WeakKeyDictionary[Dataset, np.ndarray]" = weakref.WeakKeyDictionary()
_emst_cache: "weakref.WeakKeyDictionary[Dataset, tuple]" = weakref.WeakKeyDictionary()


def pairwise(ds: Dataset) -> np.ndarray | None:
    """Full distance matrix for small datasets, None above DENSE_LIMIT."""
    if ds.n > DENSE_LIMIT:
        return None
    with _lock:
        mat = _pairwise_cache.get(ds)
    if mat is None:
        mat = cdist(ds.points, ds.points)
        mat.setflags(write=False)
        with _lock:
            _pairwise_cache[ds] = mat
    return mat


class DistanceProvider:
    """Row access to the pairwise distance matrix, dense or on demand."""

    def __init__(self, ds: Dataset) -> None:
        self._ds = ds
        self._mat = pairwise(ds)

    def rows(self, idx) -> np.ndarray:
        """Distances from points ``idx`` (a slice or an index array) to every point."""
        if self._mat is not None:
            return self._mat[idx]
        return cdist(self._ds.points[idx], self._ds.points)

    def row(self, i: int) -> np.ndarray:
        return self.rows(slice(i, i + 1))[0]

    def cluster_sums(self, labels: np.ndarray, k: int) -> np.ndarray:
        """(n, k) sums of each point's distances to the members of every
        cluster, added in point order.  Rows are read in blocks of at most
        ``_BLOCK_CELLS`` distances, so no n x n temporary is made."""
        n = self._ds.n
        step = max(1, _BLOCK_CELLS // n)
        keys = (np.arange(step)[:, None] * k + labels).ravel()  # (row, cluster) cells
        out = np.empty((n, k))
        for lo in range(0, n, step):
            block = self.rows(slice(lo, lo + step))
            m = len(block)
            out[lo : lo + m] = np.bincount(keys[: m * n], block.ravel(), m * k).reshape(m, k)
        return out

    def sub(self, idx_a: np.ndarray, idx_b: np.ndarray) -> np.ndarray:
        """Distance block between two index sets."""
        if self._mat is not None:
            return self._mat[np.ix_(idx_a, idx_b)]
        return cdist(self._ds.points[idx_a], self._ds.points[idx_b])


def row_blocks(idx: np.ndarray, width: int) -> list[np.ndarray]:
    """``idx`` cut into consecutive pieces whose rows of ``width`` cells
    hold at most ``_BLOCK_CELLS`` cells together."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    return [idx[lo : lo + step] for lo in range(0, len(idx), step)]


def emst(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact Euclidean minimum spanning tree as (u, v, weight) edge arrays.

    Prim's algorithm over distance rows, for every n: O(n^2 d) time and
    O(n) memory besides the rows.  The n - 1 edges have u < v, are sorted
    by (u, v), and weigh the row entry they were chosen by, so duplicate
    points join by zero-weight edges.  Ties go to the lower point index.
    """
    with _lock:
        cached = _emst_cache.get(ds)
    if cached is not None:
        return cached
    dp, n = DistanceProvider(ds), ds.n
    rest = np.arange(1, n)  # points outside the tree, in index order
    near = dp.row(0)[1:].copy()  # their distance to the tree
    via = np.zeros(n - 1, dtype=np.int64)  # the tree point at that distance
    u, v, w = np.empty(n - 1, dtype=np.int64), np.empty(n - 1, dtype=np.int64), np.empty(n - 1)
    for t in range(n - 1):
        i = int(np.argmin(near))
        p = int(rest[i])
        u[t], v[t], w[t] = min(via[i], p), max(via[i], p), near[i]
        rest, near, via = np.delete(rest, i), np.delete(near, i), np.delete(via, i)
        row = dp.row(p)[rest]
        closer = row < near
        near[closer] = row[closer]
        via[closer] = p
    order = np.lexsort((v, u))
    result = (u[order], v[order], w[order])
    for arr in result:
        arr.setflags(write=False)
    with _lock:
        _emst_cache[ds] = result
    return result
