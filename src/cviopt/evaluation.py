"""Scoring partitions against expert references and meta-clustering methods.

The adjusted Rand index is computed with exact integer pair counting and a
single final division, so results are bit-reproducible and agree exactly
with direct pair enumeration.  One call scores a labeling against one other
or against an (m, n) stack of them; each ARI of the stack equals the
one-pair call bit for bit, so ``method_dissimilarity`` scores each unit
with one call per method against all later ones.
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


def _row_counts(codes: np.ndarray, size: int) -> np.ndarray:
    """The (m, size) counts of each row of an (m, n) array of codes in
    [0, size), from one bincount of row-offset codes."""
    m = codes.shape[0]
    if m > 1:
        codes = codes + np.arange(0, m * size, size)[:, None]
    return np.bincount(codes.ravel(), minlength=m * size).reshape(m, size)


def adjusted_rand(a, b, exclude_noise: bool = False) -> float | list[float]:
    """Hubert-Arabie adjusted Rand index between two non-negative integer
    labelings.

    ``b`` may also be an (m, n) stack of labelings: one call then returns
    the list of the m ARIs of ``a`` against each row, each equal bit for
    bit to the call with that row alone.  One bincount of row-offset cell
    codes counts all m contingency tables, and one more the cluster sizes
    of each row.

    With ``exclude_noise``, points labeled 0 in ``a`` (the reference) are
    dropped from both before counting.  The raw value is returned and may
    be negative; see :func:`clamp_score`.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] != b.shape[-1]:
        raise LengthMismatchError(f"label vectors of length {a.shape[0]} vs {b.shape[-1]}")
    if exclude_noise:
        keep = a != 0
        a = a[keep]
        b = b.compress(keep, axis=-1)
    n = a.shape[0]
    if n < 2:
        raise UndefinedScoreError("fewer than 2 points to score")
    rows = b.reshape(-1, n)
    sizes_a = np.bincount(a)
    # all of b's labels: their range, and the cluster sizes of a lone row
    sizes_b = np.bincount(rows.ravel())
    ncols = sizes_b.shape[0]
    table = _row_counts(a * ncols + rows, sizes_a.shape[0] * ncols)
    sizes_b = _row_counts(rows, ncols) if rows.shape[0] > 1 else sizes_b[None]
    # pair counts C(c, 2) summed from exact sums of squared counts
    sum_a = (int(sizes_a @ sizes_a) - n) // 2
    cn2 = n * (n - 1) // 2
    aris = []
    for sq_t, sq_b in zip(np.vecdot(table, table).tolist(), np.vecdot(sizes_b, sizes_b).tolist()):
        sum_t = (sq_t - n) // 2
        sum_b = (sq_b - n) // 2
        # ARI scaled to Python integers (cn2 * sum_t overflows int64 near
        # n = 1e5); one correctly-rounded division at the end
        num = 2 * (cn2 * sum_t - sum_a * sum_b)
        den = cn2 * (sum_a + sum_b) - 2 * sum_a * sum_b
        # den == 0: both labelings trivial and identical in structure
        aris.append(num / den if den else 1.0)
    return aris if b.ndim == 2 else aris[0]


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


#: row-wise forms: each reduces a (pairs, units) matrix along its units
_AGGREGATORS = {
    "mean": lambda v: np.mean(v, axis=1),
    "median": lambda v: np.median(v, axis=1),
    "q3": lambda v: np.percentile(v, 75, axis=1),
}


def method_dissimilarity(
    results: Mapping[str, Mapping[str, Sequence[int]]], aggregators: Sequence[str] = ("mean",)
) -> tuple[list[str], dict[str, np.ndarray]]:
    """Pairwise method distances: aggregated (1 - raw ARI) over shared units,
    as one matrix per aggregator, from one ARI per pair and unit.

    ``results`` maps method name -> unit id -> label vector; each aggregator
    is one of mean, median, q3 (type-7 quartile).  Reference labels play no
    role here and ARIs are deliberately not clamped.  Each unit's label
    vectors are stacked once and scored one method against all later ones;
    the pairs that share the same units are aggregated together.
    """
    for aggregator in aggregators:
        if aggregator not in _AGGREGATORS:
            raise ParameterError(f"aggregator must be one of {tuple(_AGGREGATORS)}")
    names = list(results.keys())
    if len(names) < 2:
        raise ParameterError("need at least two methods to compare")
    m = len(names)
    by_shared: dict[tuple, list[tuple[int, int]]] = {}
    for i in range(m):
        for j in range(i + 1, m):
            shared = tuple(sorted(set(results[names[i]]) & set(results[names[j]])))
            if not shared:
                raise MissingOverlapError(
                    f"methods {names[i]!r} and {names[j]!r} share no dataset"
                )
            by_shared.setdefault(shared, []).append((i, j))
    units = sorted(set().union(*by_shared))
    column = {unit: u for u, unit in enumerate(units)}
    # ari[i, j, u] for i < j: the ARI of methods i and j on units[u]
    ari = np.full((m, m, len(units)), np.nan)
    for u, unit in enumerate(units):
        have = [i for i, name in enumerate(names) if unit in results[name]]
        labels = [np.asarray(results[names[i]][unit]) for i in have]
        for i, lab in zip(have, labels):
            if len(lab) != len(labels[0]):
                raise LengthMismatchError(
                    f"{unit}: labels of {names[have[0]]!r} and {names[i]!r} have "
                    f"lengths {len(labels[0])} vs {len(lab)}"
                )
        stack = np.stack(labels)
        for r in range(len(have) - 1):
            ari[have[r], have[r + 1 :], u] = adjusted_rand(stack[r], stack[r + 1 :])
    mats = {agg: np.zeros((m, m)) for agg in aggregators}
    for shared, pairs in by_shared.items():
        rows, cols = np.array(pairs).T
        # C-ordered (pairs, units): each row is reduced as the pair's
        # own vector would be, so the sums run in the same order
        diss = 1.0 - ari[rows[:, None], cols[:, None], [column[unit] for unit in shared]]
        for agg, mat in mats.items():
            mat[rows, cols] = mat[cols, rows] = _AGGREGATORS[agg](diss)
    return names, mats


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
