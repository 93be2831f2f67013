"""k-partitions as label surjections and their single-point relocation moves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMoveError, LabelRangeError, NotSurjectiveError, ParameterError


@dataclass(frozen=True)
class Move:
    """Relocation of one point from cluster ``src`` to cluster ``dst``."""

    point: int
    src: int
    dst: int


class Partition:
    """A surjective assignment of n points to k >= 2 nonempty clusters.

    Value semantics: instances are immutable; a move makes a new
    Partition (:func:`from_labels` of the moved labels).  Labels are
    0-based and contiguous.
    """

    __slots__ = ("labels", "k", "sizes", "n")

    def __init__(self, labels: np.ndarray, k: int, sizes: np.ndarray) -> None:
        # internal constructor; validation happens in from_labels
        self.labels = labels
        self.k = k
        self.sizes = sizes
        self.n = labels.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.labels, other.labels)

    __hash__ = None  # mutable-array payload; use canonical_key for set membership

    def __repr__(self) -> str:  # pragma: no cover
        return f"Partition(n={self.n}, k={self.k}, sizes={self.sizes.tolist()})"


def from_labels(raw, k: int) -> Partition:
    """Validate a 0-based label vector and build a Partition."""
    lab = np.asarray(raw, dtype=np.int64).copy()
    if lab.ndim != 1 or lab.size == 0:
        raise LabelRangeError("labels must be a nonempty vector")
    if k < 2:
        raise ParameterError(f"need k >= 2 clusters, got k={k}")
    if lab.min() < 0 or lab.max() >= k:
        raise LabelRangeError(f"labels must lie in 0..{k - 1}")
    sizes = np.bincount(lab, minlength=k)
    if (sizes == 0).any():
        missing = np.flatnonzero(sizes == 0).tolist()
        raise NotSurjectiveError(f"cluster ids {missing} are unused")
    lab.setflags(write=False)
    sizes.setflags(write=False)
    return Partition(lab, k, sizes)


def relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    """Renumber values by order of first occurrence: [1,1,0,1] -> [0,0,1,0]."""
    vals, first_idx, inv = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(vals.shape[0], dtype=np.int64)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(vals.shape[0])
    return rank[inv]


def canonical_key(labels: np.ndarray) -> bytes:
    """Hashable canonical form of a label vector (permutation-invariant)."""
    return relabel_first_occurrence(labels).astype(np.int32).tobytes()


def check_move(p_labels: np.ndarray, sizes: np.ndarray, k: int, m: Move) -> None:
    """Raise InvalidMoveError unless ``m`` is applicable to the labeling."""
    n = p_labels.shape[0]
    if not (0 <= m.point < n):
        raise InvalidMoveError(f"point {m.point} out of range")
    if not (0 <= m.dst < k) or m.src == m.dst:
        raise InvalidMoveError(f"bad target cluster {m.dst}")
    if p_labels[m.point] != m.src:
        raise InvalidMoveError(
            f"point {m.point} is in cluster {p_labels[m.point]}, not {m.src}"
        )
    if sizes[m.src] < 2:
        raise InvalidMoveError(f"moving point {m.point} would empty cluster {m.src}")


def cluster_size_gini(p: Partition) -> float:
    """Gini index of the cluster sizes, normalized to [0, 1].

    G = sum_{i<j} |s_i - s_j| / ((k - 1) * n): 0 for perfectly balanced
    sizes, approaching 1 at maximal inequality.
    """
    s = p.sizes.astype(np.float64)
    diff_sum = float(np.abs(s[:, None] - s[None, :]).sum()) / 2.0
    return diff_sum / ((p.k - 1) * p.n)
