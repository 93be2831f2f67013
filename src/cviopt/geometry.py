"""Shared Euclidean geometry: cached pairwise distances and the exact EMST.

Both are memoised on the Dataset (:meth:`Dataset.cached`), so a dataset's
distance matrix and minimum spanning tree are computed once and reused by
every index evaluator and optimization run over that dataset.  Every
consumer reads distances through :class:`DistanceProvider`; only this
module decides whether the full matrix is materialized (n <= DENSE_LIMIT)
or each row is computed on demand.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.spatial.distance import cdist

from .dataio import Dataset

#: Largest n for which the full n x n distance matrix is materialized.
DENSE_LIMIT = int(os.environ.get("CVIOPT_DENSE_LIMIT", "4096"))
#: Most cells in one block of rows: distances read at once, or a kernel's
#: temporaries.
_BLOCK_CELLS = 1 << 14


def pairwise(ds: Dataset) -> np.ndarray | None:
    """Full distance matrix for small datasets, None above DENSE_LIMIT."""
    if ds.n > DENSE_LIMIT:
        return None
    return ds.cached("pairwise", lambda: _read_only(cdist(ds.points, ds.points)))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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

    def cluster_sums(self, labels: np.ndarray, k: int, points=slice(None)) -> np.ndarray:
        """(len(points), k) sums of the distances of each of ``points`` (by
        default every point) to the members of every cluster, added in
        point order.  Rows are read in blocks of at most ``_BLOCK_CELLS``
        distances, so no n x n temporary is made."""
        n = self._ds.n
        points = np.arange(n)[points]
        step = max(1, _BLOCK_CELLS // n)
        keys = (np.arange(step)[:, None] * k + labels).ravel()  # (row, cluster) cells
        out = np.empty((len(points), k))
        for lo in range(0, len(points), step):
            block = self.rows(points[lo : lo + step])
            m = len(block)
            out[lo : lo + m] = np.bincount(keys[: m * n], block.ravel(), m * k).reshape(m, k)
        return out

    def cluster_maxima(self, labels: np.ndarray, k: int) -> np.ndarray:
        """(n, k) largest distance from each point to a member of every
        cluster (each nonempty), in the row blocks of ``cluster_sums``."""
        n = self._ds.n
        step = max(1, _BLOCK_CELLS // n)
        order = np.argsort(labels, kind="stable")
        starts = np.searchsorted(labels[order], np.arange(k))
        out = np.empty((n, k))
        for lo in range(0, n, step):
            block = self.rows(slice(lo, lo + step))[:, order]
            out[lo : lo + len(block)] = np.maximum.reduceat(block, starts, axis=1)
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
    return ds.cached("emst", lambda: _prim(ds))


def _prim(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dp, n = DistanceProvider(ds), ds.n
    outside = np.ones(n, dtype=bool)  # points not yet in the tree
    outside[0] = False
    near = dp.row(0).copy()  # each point's distance to the tree, +inf once in it
    near[0] = np.inf
    via = np.zeros(n, dtype=np.int64)  # the tree point at that distance
    u, v, w = np.empty(n - 1, dtype=np.int64), np.empty(n - 1, dtype=np.int64), np.empty(n - 1)
    for t in range(n - 1):
        p = int(np.argmin(near))
        u[t], v[t], w[t] = min(via[p], p), max(via[p], p), near[p]
        outside[p] = False
        near[p] = np.inf
        row = dp.row(p)
        closer = (row < near) & outside
        np.copyto(near, row, where=closer)
        np.copyto(via, p, where=closer)
    order = np.lexsort((v, u))
    return tuple(_read_only(arr[order]) for arr in (u, v, w))
