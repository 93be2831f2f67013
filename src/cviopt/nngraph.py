"""Exact M-nearest-neighbour structure and its symmetrized edge set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc
from scipy.spatial.distance import cdist

from .dataio import Dataset
from .errors import ParameterError
from .geometry import row_blocks
from .partition import relabel_first_occurrence


@dataclass(frozen=True)
class NNGraph:
    """Per-point M nearest neighbours, ordered by increasing distance.

    ``neighbours[i]`` never contains i itself; exact distance ties are
    broken towards the lower point index (unreachable after jitter, but
    the rule keeps construction deterministic).
    """

    M: int
    neighbours: np.ndarray  # (n, M) int64
    distances: np.ndarray  # (n, M) float64

    @property
    def n(self) -> int:
        return self.neighbours.shape[0]


@dataclass(frozen=True)
class EdgeList:
    """Deduplicated undirected near-neighbour edges with u < v."""

    u: np.ndarray
    v: np.ndarray
    dist: np.ndarray
    n: int

    def __len__(self) -> int:
        return self.u.shape[0]


def build_knn(ds: Dataset, M: int) -> NNGraph:
    """Exact M nearest neighbours per point under Euclidean distance.

    Brute force in row blocks; O(n^2 d) but exact, which is what definitions
    (rather than estimates) of the NN-based indices require.  No row is
    fully sorted: each row's M+1 smallest distances are selected (all but
    self's +inf at M = n - 1) and ordered by (distance, point index), and
    the first M are kept, so ties go to the lower index.  Only a row whose
    M-th and (M+1)-th distances are equal can have left out a lower index
    at that distance; such a row is selected again from every point at or
    under its M-th distance.
    """
    n = ds.n
    if not 1 <= M <= n - 1:
        raise ParameterError(f"need 1 <= M <= n-1, got M={M}, n={n}")
    pts = ds.points
    nbrs = np.empty((n, M), dtype=np.int64)
    dists = np.empty((n, M), dtype=np.float64)
    top = min(M, n - 2)
    for points in row_blocks(np.arange(n), n):
        block = cdist(pts[points], pts)
        rows = np.arange(len(points))[:, None]
        block[rows[:, 0], points] = np.inf  # exclude self
        cols = np.argpartition(block, top, axis=1)[:, : top + 1]
        near = block.take(cols + n * rows)  # flat indices, row by row
        order = np.lexsort((cols, near)) + (top + 1) * rows
        cols, near = cols.take(order), near.take(order)
        nbrs[points], dists[points] = cols[:, :M], near[:, :M]
        if top < M:  # M = n - 1: every other point was selected
            continue
        for r in np.flatnonzero(near[:, M - 1] == near[:, M]):  # a tie across the M-th place
            row = block[r]
            cand = np.flatnonzero(row <= near[r, M - 1])
            cand = cand[np.lexsort((cand, row[cand]))][:M]
            nbrs[points[r]], dists[points[r]] = cand, row[cand]
    nbrs.setflags(write=False)
    dists.setflags(write=False)
    return NNGraph(M=M, neighbours=nbrs, distances=dists)


def symmetric_edges(g: NNGraph) -> EdgeList:
    """Undirected union of the directed NN lists, sorted by (u, v)."""
    n, M = g.neighbours.shape
    i_idx = np.repeat(np.arange(n, dtype=np.int64), M)
    j_idx = g.neighbours.ravel()
    d = g.distances.ravel()
    u = np.minimum(i_idx, j_idx)
    v = np.maximum(i_idx, j_idx)
    keys = u * n + v
    _, first = np.unique(keys, return_index=True)
    eu, ev, ed = u[first], v[first], d[first]
    for arr in (eu, ev, ed):
        arr.setflags(write=False)
    return EdgeList(u=eu, v=ev, dist=ed, n=n)


def connected_components(g: NNGraph) -> np.ndarray:
    """Component labels 0..c-1 of the undirected near-neighbour graph,
    read from the directed arcs ``i -> neighbours[i]``.

    Components are numbered by first occurrence in point order.
    """
    n, M = g.neighbours.shape
    # row i holds i's M arcs, so the neighbour array is already CSR's columns
    arcs = csr_matrix(
        (np.ones(n * M), g.neighbours.ravel(), np.arange(0, n * M + 1, M)), shape=(n, n)
    )
    _, labels = _cc(arcs, directed=False)
    return relabel_first_occurrence(labels.astype(np.int64))


def knn_for(ds: Dataset, M: int) -> NNGraph:
    """Cached build_knn: each (dataset, M) graph is computed once."""
    return ds.cached(("knn", M), lambda: build_knn(ds, M))


def edges_for(ds: Dataset, M: int) -> EdgeList:
    """Cached symmetrized edge list for (dataset, M)."""
    return ds.cached(("edges", M), lambda: symmetric_edges(knn_for(ds, M)))
