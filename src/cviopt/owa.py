"""Ordered weighted averaging operators (Min, Max, Mean, SMin, SMax, Const).

An OWA operator is a convex combination of decreasingly sorted inputs
q_(1) >= ... >= q_(z).  The smooth variants place Gaussian-decaying weight
on the 3*delta positions nearest the extreme: SMin peaks at the smallest
value, SMax mirrors it at the largest.  When the multiset is shorter than
the 3*delta support, the truncated weights are renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyAggregationError, ParameterError

_KINDS = ("Min", "Max", "Mean", "SMin", "SMax", "Const")


@dataclass(frozen=True)
class OWASpec:
    """One aggregation operator; ``delta`` only applies to SMin/SMax."""

    kind: str
    delta: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown OWA kind {self.kind!r}")
        if self.kind in ("SMin", "SMax"):
            if self.delta is None or self.delta < 1:
                raise ParameterError(f"{self.kind} needs an integer delta >= 1")
        elif self.delta is not None:
            raise ParameterError(f"{self.kind} takes no delta")

    @classmethod
    def parse(cls, text: str) -> "OWASpec":
        """Parse the CLI syntax: "Min", "Max", "Mean", "SMin:5", "SMax:5", "Const"."""
        if ":" in text:
            kind, _, d = text.partition(":")
            try:
                delta = int(d)
            except ValueError as exc:
                raise ParameterError(f"bad OWA spec {text!r}") from exc
            return cls(kind, delta)
        return cls(text)

    def __str__(self) -> str:
        if self.delta is not None:
            return f"{self.kind}:{self.delta}"
        return self.kind

    @property
    def is_const(self) -> bool:
        return self.kind == "Const"


@lru_cache(maxsize=256)
def smooth_extreme_weights(delta: int, support: int) -> np.ndarray:
    """Normalized weights over ranks 1..support counted from the extreme.

    Rank r carries weight proportional to the normal density at distance
    r - 1 from the extreme position (standard deviation delta).
    """
    r = np.arange(support, dtype=np.float64)
    w = np.exp(-0.5 * (r / delta) ** 2)
    w /= w.sum()
    w.setflags(write=False)
    return w


def owa_weights(spec: OWASpec, z: int) -> np.ndarray:
    """Weight vector of length z, aligned to decreasingly sorted inputs."""
    if z < 1:
        raise ParameterError(f"need z >= 1, got {z}")
    if spec.kind == "Mean":
        return np.full(z, 1.0 / z)
    w = np.zeros(z)
    if spec.kind == "Min":
        w[z - 1] = 1.0
    elif spec.kind == "Max":
        w[0] = 1.0
    elif spec.kind == "SMin":
        t = min(3 * spec.delta, z)
        w[z - t :] = smooth_extreme_weights(spec.delta, t)[::-1]
    elif spec.kind == "SMax":
        t = min(3 * spec.delta, z)
        w[:t] = smooth_extreme_weights(spec.delta, t)
    elif spec.kind == "Const":
        raise ParameterError("Const has no weight vector; it aggregates to 1")
    return w


def aggregate(spec: OWASpec, values) -> float:
    """Apply the operator to a multiset of floats.

    Const returns 1.0 regardless of the input (including an empty one);
    every other kind raises EmptyAggregationError on an empty multiset.
    """
    if spec.kind == "Const":
        return 1.0
    vals = np.asarray(values, dtype=np.float64)
    z = vals.size
    if z == 0:
        raise EmptyAggregationError(f"{spec} over an empty multiset")
    if spec.kind == "Min":
        return float(vals.min())
    if spec.kind == "Max":
        return float(vals.max())
    if spec.kind == "Mean":
        return float(vals.sum() / z)
    t = min(3 * spec.delta, z)
    w = smooth_extreme_weights(spec.delta, t)
    if spec.kind == "SMin":
        bottom = np.sort(np.partition(vals, t - 1)[:t])  # ascending, rank 1 = min
        return float(np.dot(w, bottom))
    top = -np.sort(np.partition(-vals, t - 1)[:t])  # descending, rank 1 = max
    return float(np.dot(w, top))
