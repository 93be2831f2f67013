"""Scoring partitions against expert references and meta-clustering methods.

The adjusted Rand index is computed with exact integer pair counting and a
single final division, so results are bit-reproducible and agree exactly
with direct pair enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataio import ReferenceSet
from .errors import (
    ContractViolationError,
    LengthMismatchError,
    MissingOverlapError,
    ParameterError,
    UndefinedScoreError,
)


def contingency(a: Sequence[int], b: Sequence[int]) -> np.ndarray:
    """Co-occurrence counts of two non-negative integer labelings: cell
    (i, j) counts the points labeled i in ``a`` and j in ``b``."""
    a = np.asarray(a)
    b = np.asarray(b)
    ncols = int(b.max()) + 1
    cells = np.bincount(a * ncols + b, minlength=(int(a.max()) + 1) * ncols)
    return cells.reshape(-1, ncols)


def _pairs(counts: np.ndarray, total: int) -> int:
    """Sum of C(c, 2) over ``counts``, which sum to ``total``, as a Python int."""
    c = counts.ravel()
    return (int(c @ c) - total) // 2


def adjusted_rand(a, b, exclude_noise: bool = False) -> float:
    """Hubert-Arabie adjusted Rand index between two non-negative integer
    labelings.

    With ``exclude_noise``, points labeled 0 in ``a`` (the reference) are
    dropped from both vectors before counting.  The raw value is returned
    and may be negative; see :func:`clamp_score`.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] != b.shape[0]:
        raise LengthMismatchError(f"label vectors of length {a.shape[0]} vs {b.shape[0]}")
    if exclude_noise:
        keep = a != 0
        a = a[keep]
        b = b[keep]
    if a.shape[0] < 2:
        raise UndefinedScoreError("fewer than 2 points to score")
    n = a.shape[0]
    sum_t = _pairs(contingency(a, b), n)
    sum_a = _pairs(np.bincount(a), n)
    sum_b = _pairs(np.bincount(b), n)
    cn2 = n * (n - 1) // 2
    # ARI scaled to Python integers (cn2 * sum_t overflows int64 near
    # n = 1e5); one correctly-rounded division at the end
    num = 2 * (cn2 * sum_t - sum_a * sum_b)
    den = cn2 * (sum_a + sum_b) - 2 * sum_a * sum_b
    if den == 0:
        return 1.0  # both labelings trivial and identical in structure
    return num / den


def clamp_score(ari: float) -> float:
    """Replace negative ARIs with 0 for summary tables."""
    return max(0.0, ari)


def best_reference_score(outputs: Mapping[int, Sequence[int]], refs: ReferenceSet) -> float:
    """Q score: the best clamped ARI over all reference labelings.

    ``outputs`` maps each distinct reference cardinality k_j to the labels
    the method produced for that k_j.  Noise points are excluded.
    """
    best = 0.0
    for lab, card in zip(refs.labelings, refs.cardinalities):
        if card not in outputs:
            raise ContractViolationError(f"no output for reference cardinality {card}")
        ari = adjusted_rand(lab, outputs[card], exclude_noise=True)
        best = max(best, clamp_score(ari))
    return best


_AGGREGATORS = ("mean", "median", "q3")


def method_dissimilarity(
    results: Mapping[str, Mapping[str, Sequence[int]]], aggregator: str = "mean"
) -> tuple[list[str], np.ndarray]:
    """Pairwise method distances: aggregated (1 - raw ARI) over shared units.

    ``results`` maps method name -> unit id -> label vector; the aggregator
    is one of mean, median, q3 (type-7 quartile).  Reference labels play no
    role here and ARIs are deliberately not clamped.
    """
    if aggregator not in _AGGREGATORS:
        raise ParameterError(f"aggregator must be one of {_AGGREGATORS}")
    names = list(results.keys())
    if len(names) < 2:
        raise ParameterError("need at least two methods to compare")
    m = len(names)
    mat = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            shared = sorted(set(results[names[i]]) & set(results[names[j]]))
            if not shared:
                raise MissingOverlapError(
                    f"methods {names[i]!r} and {names[j]!r} share no dataset"
                )
            vals = [
                1.0 - adjusted_rand(results[names[i]][u], results[names[j]][u])
                for u in shared
            ]
            if aggregator == "mean":
                agg = float(np.mean(vals))
            elif aggregator == "median":
                agg = float(np.median(vals))
            else:
                agg = float(np.percentile(vals, 75))
            mat[i, j] = mat[j, i] = agg
    return names, mat


@dataclass
class Dendrogram:
    """Agglomerative merge sequence: (cluster-a, cluster-b, height) rows.

    Initial singletons are numbered 0..m-1; the cluster created by merge
    step s gets id m+s.
    """

    merges: list[tuple[int, int, float]]

    def __len__(self) -> int:
        return len(self.merges)


def complete_linkage(diss: np.ndarray) -> Dendrogram:
    """Agglomerative clustering with max-linkage over a dissimilarity matrix.

    Ties break towards the lexicographically smallest active cluster pair,
    so the merge sequence is deterministic.
    """
    d = np.asarray(diss, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ContractViolationError("dissimilarity matrix must be square")
    m = d.shape[0]
    if m < 2:
        raise ContractViolationError("need at least two items")
    if not np.allclose(d, d.T):
        raise ContractViolationError("dissimilarity matrix must be symmetric")
    if np.abs(np.diag(d)).max() != 0.0:
        raise ContractViolationError("diagonal must be zero")
    if d.min() < 0:
        raise ContractViolationError("dissimilarities must be non-negative")

    dist: dict[tuple[int, int], float] = {}
    for i in range(m):
        for j in range(i + 1, m):
            dist[(i, j)] = float(d[i, j])
    active = set(range(m))
    next_id = m
    merges: list[tuple[int, int, float]] = []
    while len(active) > 1:
        best_pair = None
        best_h = np.inf
        for pair in sorted(dist):
            h = dist[pair]
            if h < best_h:
                best_h = h
                best_pair = pair
        i, j = best_pair
        merges.append((i, j, best_h))
        active.discard(i)
        active.discard(j)
        heights = {}
        for other in active:
            a = (min(i, other), max(i, other))
            b = (min(j, other), max(j, other))
            heights[other] = max(dist.pop(a), dist.pop(b))
        dist.pop((i, j))
        for other, h in heights.items():
            dist[(other, next_id)] = h
        active.add(next_id)
        next_id += 1
    return Dendrogram(merges)
