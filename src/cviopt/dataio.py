"""Loading, preprocessing and saving of benchmark datasets and label files.

File formats follow the clustering benchmark battery convention:
data files are whitespace-separated decimal matrices (one point per line),
label files hold one integer per line with clusters numbered 1..k and 0
marking noise points.  Paths ending in ``.gz`` are decompressed on the fly.
Internally clusters are 0-based and contiguous; the 1-based shift happens
only at the file boundary.
"""

from __future__ import annotations

import gzip
import math
import os
import re
import threading
import warnings
import zlib
from typing import Sequence

import numpy as np

from .errors import (
    DataFormatError,
    DataParseError,
    DegenerateDataError,
    EmptyInputError,
    LabelRangeError,
    LengthMismatchError,
    NotSurjectiveError,
)

#: Relative magnitude of the decollision jitter added by :func:`preprocess`.
JITTER_RELATIVE_SD = 1e-6

#: A label file as :func:`save_labels` writes it: ASCII digits, at most
#: 18 of them (so below 2**63), one label per line.
_PLAIN_LABELS = re.compile(r"[0-9]{1,18}(?:\n[0-9]{1,18})*\n?")


class Dataset:
    """An immutable n x d point cloud of 64-bit floats.

    The points never change, so data derived from them (distances, kNN
    graphs, the EMST, candidate pools) is memoised on the instance by
    :meth:`cached` and freed with it.

    Attributes:
        points: read-only array of shape (n, d).
        n: number of points.
        d: dimensionality.
    """

    def __init__(self, points: np.ndarray) -> None:
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise DataFormatError(f"expected a 2-D matrix, got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise EmptyInputError(f"dataset must be at least 1x1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DataParseError("dataset contains non-finite values")
        pts.setflags(write=False)
        self.points = pts
        self.n = pts.shape[0]
        self.d = pts.shape[1]
        self._memo: dict = {}
        self._memo_lock = threading.Lock()

    def cached(self, key, build):
        """``build()``, computed once per ``key`` and kept while this dataset
        lives.  ``build`` runs outside the lock, so a slow build blocks no
        other caller; when two first calls race, both get the value stored
        first."""
        with self._memo_lock:
            if key in self._memo:
                return self._memo[key]
        value = build()
        with self._memo_lock:
            return self._memo.setdefault(key, value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dataset(n={self.n}, d={self.d})"


class ReferenceSet:
    """Expert reference labelings for one dataset.

    Each labeling is an integer vector of length n using labels
    {0, 1, ..., k_j} where 0 marks noise and every value 1..k_j occurs
    at least once.  ``cardinalities[j]`` is the cluster count k_j of the
    j-th labeling.
    """

    def __init__(self, labelings: Sequence[np.ndarray]) -> None:
        if len(labelings) < 1:
            raise EmptyInputError("a ReferenceSet needs at least one labeling")
        labs = []
        n = None
        cards = []
        for j, raw in enumerate(labelings):
            lab = np.asarray(raw, dtype=np.int64)
            if lab.ndim != 1:
                raise DataFormatError(f"labeling {j} is not a vector")
            if n is None:
                n = lab.shape[0]
            elif lab.shape[0] != n:
                raise LengthMismatchError(
                    f"labeling {j} has length {lab.shape[0]}, expected {n}"
                )
            if lab.min(initial=0) < 0:
                raise LabelRangeError(f"labeling {j} contains negative labels")
            k = int(lab.max(initial=0))
            if k < 1:
                raise NotSurjectiveError(f"labeling {j} marks every point as noise")
            present = np.unique(lab)
            expected = np.arange(1, k + 1)
            if not np.isin(expected, present).all():
                missing = sorted(set(expected) - set(present))
                raise NotSurjectiveError(f"labeling {j} misses cluster ids {missing}")
            lab.setflags(write=False)
            labs.append(lab)
            cards.append(k)
        self.labelings = labs
        self.cardinalities = cards
        self.n = n

    def __len__(self) -> int:
        return len(self.labelings)

    def distinct_cardinalities(self) -> list[int]:
        return sorted(set(self.cardinalities))


def _read_text(path: str | os.PathLike) -> str:
    """The whole file as text, with universal newlines; gzip transparency
    keyed on the file name, per the battery convention."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            return fh.read()
    except (UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DataParseError(f"{path}: cannot be read: {exc}") from exc


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Read a whitespace-separated decimal matrix, one point per line.

    Raises:
        DataFormatError: rows have unequal column counts.
        DataParseError: a token is not a finite decimal number, or the
            file is not UTF-8 text (or not a whole gzip stream).
        EmptyInputError: the file holds no data rows.
    """
    text = _read_text(path)
    points = _plain_matrix(text)
    return Dataset(_parse_matrix(path, text) if points is None else points)


def _plain_matrix(text: str) -> np.ndarray | None:
    """``text`` as a matrix in one ``np.fromstring`` call, or None unless
    every token parses to a finite value and every non-blank line holds
    as many tokens as the first.  ``np.fromstring`` rounds as ``float()``
    does and rejects any token it cannot read whole; the blanks it skips,
    tab, LF, VT, FF, CR and space, are ``str.split``'s too, and it rejects
    the others (0x1c-0x1f)."""
    if not text.isascii():
        return None
    try:
        with warnings.catch_warnings():  # older numpy warns, and stops, at a bad token
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, dtype=np.float64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    codes = np.frombuffer(("\n" + text).encode("ascii"), dtype=np.uint8)
    blank = codes <= 32  # control bytes other than blanks failed the parse
    starts = np.flatnonzero(blank[:-1] & ~blank[1:]) + 1
    if values.size == 0 or values.size != starts.size or not np.isfinite(values).all():
        return None
    widths = np.bincount(np.searchsorted(np.flatnonzero(codes == 10), starts))
    widths = widths[widths > 0]
    if widths.min() != widths.max():
        return None
    return values.reshape(widths.size, widths[0])


def _parse_matrix(path: str | os.PathLike, text: str) -> np.ndarray:
    # the accepted grammar of a data file and its errors, line by line
    rows: list[list[float]] = []
    ncols = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            row = [float(t) for t in tokens]
        except ValueError as exc:
            raise DataParseError(f"{path}:{lineno}: non-numeric token") from exc
        if not all(math.isfinite(v) for v in row):
            raise DataParseError(f"{path}:{lineno}: non-finite value")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise DataFormatError(
                f"{path}:{lineno}: expected {ncols} columns, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def load_labels(path: str | os.PathLike, n: int | None = None) -> np.ndarray:
    """Read a label file: one integer per line, exactly ``n`` lines (any
    number for ``n=None``).

    Returns the labels in the external convention (0 = noise, clusters
    numbered from 1).
    """
    text = _read_text(path)
    if _PLAIN_LABELS.fullmatch(text):
        labels = np.fromstring(text, dtype=np.int64, sep="\n")
    else:
        labels = _parse_labels(path, text)
    if n is not None and len(labels) != n:
        raise LengthMismatchError(f"{path}: {len(labels)} labels, expected {n}")
    return labels


def _parse_labels(path: str | os.PathLike, text: str) -> np.ndarray:
    # the accepted grammar of a label file and its errors, line by line
    values: list[int] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            v = int(token)
        except ValueError as exc:
            raise DataParseError(f"{path}:{lineno}: not an integer") from exc
        if v < 0:
            raise DataFormatError(f"{path}:{lineno}: negative label {v}")
        if v >= 2**63:
            raise DataParseError(f"{path}:{lineno}: label does not fit in 64 bits")
        values.append(v)
    return np.asarray(values, dtype=np.int64)


def save_labels(labels: Sequence[int] | np.ndarray, path: str | os.PathLike) -> None:
    """Write 0-based internal labels as a 1-based label file, one per line."""
    lab = np.asarray(labels, dtype=np.int64)
    if lab.size and lab.min() < 0:
        raise LabelRangeError("internal labels must be >= 0")
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.write("".join(f"{v}\n" for v in (lab + 1).tolist()))


def preprocess(ds: Dataset, seed: int) -> Dataset:
    """Drop zero-variance columns, then add tiny Gaussian jitter.

    Every surviving entry receives noise with mean 0 and standard deviation
    ``JITTER_RELATIVE_SD`` times the column's sample standard deviation
    (n-1 denominator), which makes all pairwise distances distinct with
    probability one.  Noise streams are derived per original column index,
    so dropping a column never changes the noise of the others.
    Deterministic for a fixed seed.
    """
    pts = ds.points
    if ds.n < 2:
        raise DegenerateDataError("cannot estimate column variance from one point")
    sd = pts.std(axis=0, ddof=1)
    keep = np.flatnonzero(sd > 0.0)
    if keep.size == 0:
        raise DegenerateDataError("all columns have zero variance")
    streams = np.random.SeedSequence(seed).spawn(ds.d)
    cols = []
    for j in keep:
        rng = np.random.default_rng(streams[j])
        noise = rng.normal(0.0, JITTER_RELATIVE_SD * sd[j], size=ds.n)
        cols.append(pts[:, j] + noise)
    return Dataset(np.column_stack(cols))
