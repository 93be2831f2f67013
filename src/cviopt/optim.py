"""Maximizing an index over all k-partitions: candidate generation plus
tabu-assisted steepest-ascent hill climbing.

The climb repeatedly relocates single points.  Each step selects the best
neighbour that has not been visited before, even if it is worse than the
current partition (descent is how the search escapes local ridges); the
shared tabu list guarantees no partition is expanded twice within a run.
The returned solution is always a single-move local maximum of the
objective.

A step rates every neighbour at once with the evaluator's ``scan()``, an
(n, k) array of move values, and takes its maximal cells one ``argmax``
at a time: the first non-tabu one is the move.  ``argmax`` returns the
first maximal cell, so ties go to the first move in (point, target)
order, and only the cells ahead of the move are looked up in the tabu
list.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from . import dataio
from .cvi import CVISpec, evaluate, make_evaluator
from .dataio import Dataset, ReferenceSet
from .errors import (
    ConfigError,
    ContractViolationError,
    GenerationError,
    ParameterError,
)
from .partition import (
    Move,
    Partition,
    canonical_key,
    from_labels,
)

DEFAULT_PATIENCE = 250  # non-improvement budget per candidate
DEFAULT_VANTAGE_V = 5  # vantage points per cluster
# n = 30, k = 20 expects about 760 draws and exceeds this bound with
# probability about e^-39; a draw costs about 10 us there
RANDOM_PARTITION_DRAWS = 30_000


class TabuList:
    """Canonical label vectors of partitions the climb has stepped onto."""

    def __init__(self) -> None:
        self._seen: set[bytes] = set()

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, labels: np.ndarray) -> bool:
        return canonical_key(labels) in self._seen

    def add(self, labels: np.ndarray) -> None:
        self._seen.add(canonical_key(labels))


@dataclass
class OptimTrace:
    """Diagnostics of one optimization run."""

    candidate_count: int = 0
    steps: int = 0
    tabu_size: int = 0
    best_history: list[float] = field(default_factory=list)
    best_value: float = float("-inf")


def random_partition(n: int, k: int, rng) -> Partition:
    """Labels i.i.d. uniform on 0..k-1, resampled until surjective.

    Gives up after ``RANDOM_PARTITION_DRAWS`` draws: as k nears n, a draw is
    surjective with a vanishing probability (about 1e-9 at n = 30, k = 28).
    """
    if k > n:
        raise ParameterError(f"cannot split {n} points into {k} nonempty clusters")
    rng = np.random.default_rng(rng)
    for _ in range(RANDOM_PARTITION_DRAWS):
        labels = rng.integers(0, k, size=n)
        if np.bincount(labels, minlength=k).min() > 0:
            return from_labels(labels, k)
    raise GenerationError(
        f"no surjective random {k}-partition of {n} points after {RANDOM_PARTITION_DRAWS} draws"
    )


def vantage_point_partition(
    ds: Dataset, k: int, V: int = DEFAULT_VANTAGE_V, rng=None, max_retries: int = 100
) -> Partition:
    """Partition induced by V*k vantage points sampled in the bounding box.

    Vantage point t represents cluster t // V; every data point joins the
    cluster of its nearest vantage point.  Resampled until surjective.
    """
    if V < 1:
        raise ParameterError("need V >= 1 vantage points per cluster")
    rng = np.random.default_rng(rng)
    lo = ds.points.min(axis=0)
    hi = ds.points.max(axis=0)
    for _ in range(max_retries):
        pivots = rng.uniform(lo, hi, size=(V * k, ds.d))
        nearest = cdist(ds.points, pivots).argmin(axis=1)
        labels = nearest // V
        if np.bincount(labels, minlength=k).min() > 0:
            return from_labels(labels, k)
    raise GenerationError(
        f"no surjective vantage-point partition after {max_retries} draws"
    )


def _repair_empty(pts: np.ndarray, labels: np.ndarray, sizes: np.ndarray, k: int) -> np.ndarray:
    """Fill each empty cluster, in place, with the point of the largest
    cluster farthest from its centroid; returns the new sizes."""
    for empty in np.flatnonzero(sizes == 0):
        donor = int(sizes.argmax())
        mem = np.flatnonzero(labels == donor)
        mu = pts[mem].mean(axis=0)
        far = mem[int(((pts[mem] - mu) ** 2).sum(axis=1).argmax())]
        labels[far] = empty
        sizes = np.bincount(labels, minlength=k)
    return sizes


def lloyd_kmeans(
    ds: Dataset, k: int, restarts: int = 10, rng=None, max_iter: int = 300
) -> Partition:
    """Best-of-restarts Lloyd iteration; empty clusters are repaired by
    splitting the largest cluster at its point farthest from the centroid.

    The restarts iterate in lockstep, each as it would alone: an iteration
    makes one distance table, label pass and size count for every restart
    whose labels still change, and a restart stops when they repeat or
    after ``max_iter`` iterations.  A point joins its nearest centre, the
    first on ties, and a centre is the mean of its members added in point
    order (a per-cluster ``mean`` at d = 1, where numpy sums pairwise).
    """
    if k < 2:
        raise ParameterError("need k >= 2")
    if k > ds.n:
        raise ParameterError(f"cannot split {ds.n} points into {k} clusters")
    if restarts < 1 or max_iter < 1:
        raise ParameterError("need restarts >= 1 and max_iter >= 1")
    rng = np.random.default_rng(rng)
    pts, n, d = ds.points, ds.n, ds.d
    centers = np.stack([pts[rng.choice(n, size=k, replace=False)] for _ in range(restarts)])
    labels = np.empty((restarts, n), dtype=np.int64)
    live = np.arange(restarts)
    for it in range(max_iter):
        L = len(live)
        dist = cdist(centers[live].reshape(L * k, d), pts, "sqeuclidean").reshape(L, k, n)
        new = np.zeros((L, n), dtype=np.int64)
        near = dist[:, 0].copy()
        for j in range(1, k):  # labels grow with j: a maximum sets them where j is nearer
            closer = dist[:, j] < near
            np.minimum(near, dist[:, j], out=near)
            np.maximum(new, closer * j, out=new)
        offsets = np.arange(L)[:, None] * k
        sizes = np.bincount((new + offsets).ravel(), minlength=L * k).reshape(L, k)
        for r in np.flatnonzero(sizes.min(axis=1) == 0):
            sizes[r] = _repair_empty(pts, new[r], sizes[r], k)
        if it:
            moved = (new != labels[live]).any(axis=1)
            live, new, sizes = live[moved], new[moved], sizes[moved]
            if not live.size:
                break
        labels[live] = new
        if d == 1:
            for r, lab in zip(live, new):
                for j in range(k):
                    centers[r, j] = pts[lab == j].mean(axis=0)
        else:
            keys = (new + offsets[: len(live)]).ravel()
            for c in range(d):
                sums = np.bincount(keys, weights=np.tile(pts[:, c], len(live)), minlength=sizes.size)
                centers[live, :, c] = sums.reshape(-1, k) / sizes
    best_labels = None
    best_wcss = np.inf
    for lab in labels:
        wcss = 0.0
        for j in range(k):
            mem = pts[lab == j]
            wcss += ((mem - mem.mean(axis=0)) ** 2).sum()
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = lab
    return from_labels(best_labels, k)


def _climb(
    spec: CVISpec,
    ds: Dataset,
    candidates: Sequence[Partition],
    values: Sequence[float],
    P: int,
    trace: OptimTrace,
) -> Partition:
    """The hill-climbing scheme itself; candidates must be pre-sorted by
    decreasing objective value, given in ``values``."""
    tabu = TabuList()
    best_labels = candidates[0].labels.copy()
    best_value = values[0]
    trace.best_history.append(best_value)

    for cand in candidates:
        ev = make_evaluator(spec, ds, cand)
        patience = 1
        work = np.empty_like(ev.labels)
        while True:
            # select the best non-tabu single-move neighbour: argmax takes
            # the first in (point, target) order among equal values; NaN
            # cells become -inf, and -inf cells are never chosen
            vals = ev.scan().ravel()
            vals = np.where(vals > -np.inf, vals, -np.inf)
            chosen: Move | None = None
            while True:
                cell = int(vals.argmax())
                if not vals[cell] > -np.inf:
                    break
                p, j = divmod(cell, ev.k)
                np.copyto(work, ev.labels)
                work[p] = j
                if work not in tabu:
                    chosen = Move(p, int(ev.labels[p]), j)
                    break
                vals[cell] = -np.inf
            if chosen is None:
                break  # every neighbour tabu or rated -inf: next candidate
            chosen_value = ev.peek(chosen)
            tabu.add(work)
            ev.commit(chosen)
            trace.steps += 1
            if chosen_value > best_value:
                best_value = chosen_value
                best_labels = ev.labels.copy()
            else:
                patience += 1
            trace.best_history.append(best_value)
            if patience > P:
                break
    trace.tabu_size = len(tabu)
    trace.best_value = best_value
    return from_labels(best_labels, candidates[0].k)


def tabu_hill_climb(
    spec: CVISpec,
    ds: Dataset,
    candidates: Sequence[Partition],
    P: int = DEFAULT_PATIENCE,
    trace: OptimTrace | None = None,
) -> Partition:
    """Run the climb from a pool of candidate partitions, best first.

    Returns a partition no single-point relocation can strictly improve,
    and never worse than the best candidate.
    """
    if not candidates:
        raise ContractViolationError("candidate pool is empty")
    if P < 1:
        raise ParameterError("need P >= 1")
    n, k = candidates[0].n, candidates[0].k
    for c in candidates:
        if c.n != n or c.k != k:
            raise ContractViolationError(
                f"candidate with n={c.n}, k={c.k} in a pool of (n={n}, k={k})"
            )
    if n != ds.n:
        raise ContractViolationError("candidates do not match the dataset size")
    values = [evaluate(spec, ds, c) for c in candidates]
    order = sorted(range(len(candidates)), key=lambda i: -values[i])
    if trace is None:
        trace = OptimTrace()
    trace.candidate_count = len(candidates)
    return _climb(spec, ds, [candidates[i] for i in order], [values[i] for i in order], P, trace)


def resolve_noise(ds: Dataset, ext_labels: np.ndarray) -> np.ndarray:
    """External labels (0 = noise) to internal 0-based total labels.

    Each noise point joins the cluster of its nearest non-noise point;
    ties break towards the lower point index.
    """
    lab = np.asarray(ext_labels, dtype=np.int64)
    noise = np.flatnonzero(lab == 0)
    clean = np.flatnonzero(lab != 0)
    if clean.size == 0:
        raise ConfigError("labeling marks every point as noise")
    out = lab.copy()
    if noise.size:
        nearest = cdist(ds.points[noise], ds.points[clean]).argmin(axis=1)
        out[noise] = lab[clean[nearest]]
    return out - 1


def _ingest_candidate_files(
    ds: Dataset, k: int, paths: Iterable[str]
) -> list[Partition]:
    out = []
    for path in paths:
        ext = dataio.load_labels(path, ds.n)
        internal = resolve_noise(ds, ext)
        if not np.array_equal(np.unique(internal), np.arange(k)):
            continue  # a different cardinality, or a gap in the labels
        out.append(from_labels(internal, k))
    return out


def _generated_candidates(
    ds: Dataset, k: int, seed: int, n_random: int, n_vantage: int, vantage_v: int,
    kmeans_restarts: int,
) -> list[Partition]:
    """The random, vantage-point and k-means candidates of a pool, in that
    order, drawn from three streams spawned from ``seed``.

    Memoised on ``ds`` per arguments, so the specs that share a dataset
    and a seed share one draw (and one k-means); each call returns a new
    list of the cached, read-only partitions.  A candidate that cannot be
    drawn (k near n) is left out, and a stream whose draw failed once is
    not drawn from again: its next draw would be as hopeless.
    """

    def draw() -> list[Partition]:
        pool = []
        streams = np.random.SeedSequence(seed).spawn(3)
        rng_random = np.random.default_rng(streams[0])
        rng_vantage = np.random.default_rng(streams[1])
        rng_kmeans = np.random.default_rng(streams[2])
        for _ in range(n_random):
            try:
                pool.append(random_partition(ds.n, k, rng_random))
            except GenerationError:
                break
        fallback = True
        for _ in range(n_vantage):
            try:
                pool.append(vantage_point_partition(ds, k, V=vantage_v, rng=rng_vantage))
            except GenerationError:
                if fallback:
                    try:
                        pool.append(random_partition(ds.n, k, rng_vantage))
                    except GenerationError:
                        fallback = False
        if kmeans_restarts > 0:
            pool.append(lloyd_kmeans(ds, k, restarts=kmeans_restarts, rng=rng_kmeans))
        return pool

    key = ("pool", k, seed, n_random, n_vantage, vantage_v, kmeans_restarts)
    return list(ds.cached(key, draw))


def optimise_dataset(
    spec: CVISpec,
    ds: Dataset,
    k: int,
    refs: ReferenceSet | None = None,
    external_candidate_dirs: Sequence[str] = (),
    seed: int = 0,
    P: int = DEFAULT_PATIENCE,
    n_random: int = 5,
    n_vantage: int = DEFAULT_VANTAGE_V,
    vantage_v: int = DEFAULT_VANTAGE_V,
    kmeans_restarts: int = 10,
) -> tuple[Partition, OptimTrace]:
    """Assemble the candidate pool and run the climb.

    The pool mixes ingested label files, the reference labelings of
    cardinality k (noise points joined to their nearest non-noise
    neighbour), and the built-in generators; duplicates are removed by
    canonical form before the climb.  The generated candidates depend on
    the dataset, k, ``seed`` and the generator counts, not on ``spec``:
    they are drawn once per ``Dataset`` object and reused by every later
    call with the same arguments.
    """
    pool: list[Partition] = []
    for path_dir in external_candidate_dirs:
        files = sorted(
            os.path.join(path_dir, f)
            for f in os.listdir(path_dir)
            if not f.startswith(".")
        )
        pool.extend(_ingest_candidate_files(ds, k, files))
    if refs is not None:
        for lab, card in zip(refs.labelings, refs.cardinalities):
            if card == k:
                pool.append(from_labels(resolve_noise(ds, lab), k))
    pool.extend(
        _generated_candidates(ds, k, seed, n_random, n_vantage, vantage_v, kmeans_restarts)
    )

    deduped: list[Partition] = []
    seen: set[bytes] = set()
    for cand in pool:
        key = canonical_key(cand.labels)
        if key not in seen:
            seen.add(key)
            deduped.append(cand)
    if not deduped:
        raise ConfigError("empty candidate pool")

    trace = OptimTrace()
    best = tabu_hill_climb(spec, ds, deduped, P=P, trace=trace)
    return best, trace
