"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own code paths: pair
counting loops for the adjusted Rand index, full distance sorts for
nearest neighbours, definitional silhouette loops, restricted-growth
enumeration of set partitions, a climb that peeks one move at a time, and
k-means and Prim loops frozen as they were before their faster rewrites.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from cviopt import dataio, geometry, optim, partition
from cviopt.cvi import evaluate, make_evaluator
from cviopt.errors import GenerationError


@pytest.fixture
def x4() -> dataio.Dataset:
    """Two tight 1-D pairs far apart: the workhorse toy configuration."""
    return dataio.Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))


def make_dataset(rng: np.random.Generator, n: int, d: int) -> dataio.Dataset:
    return dataio.Dataset(rng.normal(size=(n, d)))


def random_surjective_labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Labels i.i.d. uniform on 0..k-1, drawn again until surjective; gives
    up after ``optim.RANDOM_PARTITION_DRAWS`` draws, as
    ``optim.random_partition`` does, since a draw is surjective with a
    vanishing probability as k nears n."""
    for _ in range(optim.RANDOM_PARTITION_DRAWS):
        labels = rng.integers(0, k, size=n)
        if np.bincount(labels, minlength=k).min() > 0:
            return labels
    raise GenerationError(f"no surjective random {k}-labeling of {n} points")


def coarse_grid(rng, n, d):
    """Distinct points of a small integer grid drawn without listing it, so
    that it serves any d: many equal distances."""
    side = max(3, int(np.ceil((4 * n) ** (1 / d))))
    while True:
        pts = np.unique(rng.integers(0, side, size=(2 * n, d)), axis=0)
        if len(pts) >= n:
            return dataio.Dataset(pts[rng.permutation(len(pts))[:n]].astype(float))


def duplicate_points(rng, n, d):
    """Raw points drawn from a few grid sites: many exact duplicates, and
    points 0 and 1 always coincide."""
    sites = rng.integers(0, 4, size=(max(2, n // 4), d)).astype(float)
    pick = rng.integers(0, len(sites), size=n)
    pick[1] = pick[0]
    return dataio.Dataset(sites[pick])


# ---------------------------------------------------------------------------
# partitions as values: the moves the evaluators make in place, made on copies


def canonicalize(p: partition.Partition) -> partition.Partition:
    """Renumber clusters by order of first occurrence in the label vector.

    Partitions that differ only by a permutation of cluster ids map to the
    same canonical form; idempotent.
    """
    return partition.from_labels(partition.relabel_first_occurrence(p.labels), p.k)


def relabel_vectors(rng):
    """Label vectors with gaps, n = 1, one value, n distinct values and
    values up to 10n."""
    yield np.array([0])
    yield np.array([7])
    yield np.full(6, 3)
    for n in (2, 5, 17, 100):
        yield rng.permutation(n)
        yield rng.permutation(10 * n + 1)[:n]  # n distinct values up to 10n
        for high in (2, 3, n, 10 * n + 1):
            yield rng.integers(0, high, size=n)
        yield rng.choice([0, 4, 9], size=n)  # gaps below, between and above


def iter_moves(labels: np.ndarray, sizes: np.ndarray, k: int):
    """Yield valid relocations in ascending (point, target cluster) order."""
    n = labels.shape[0]
    for i in range(n):
        src = int(labels[i])
        if sizes[src] < 2:
            continue  # departure would empty the cluster
        for dst in range(k):
            if dst != src:
                yield partition.Move(i, src, dst)


def enumerate_moves(p: partition.Partition) -> list[partition.Move]:
    """All single-point relocations that keep the partition surjective, in
    ascending (point, target cluster) order: the optimizer's tie order."""
    return list(iter_moves(p.labels, p.sizes, p.k))


def apply_move(p: partition.Partition, m: partition.Move) -> partition.Partition:
    """The partition with ``m`` applied; the input is unchanged."""
    partition.check_move(p.labels, p.sizes, p.k, m)
    lab = p.labels.copy()
    lab[m.point] = m.dst
    return partition.from_labels(lab, p.k)


# ---------------------------------------------------------------------------
# oracles


def brute_ari(a, b) -> float:
    """ARI by direct enumeration of point pairs (integer exact)."""
    a = list(a)
    b = list(b)
    n11 = n10 = n01 = n00 = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                n11 += 1
            elif sa:
                n10 += 1
            elif sb:
                n01 += 1
            else:
                n00 += 1
    num = 2 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


def brute_knn(points: np.ndarray, M: int):
    """Neighbour lists by full distance sort with (distance, index) keys."""
    n = points.shape[0]
    nbrs = np.empty((n, M), dtype=np.int64)
    dists = np.empty((n, M))
    for i in range(n):
        cand = []
        for j in range(n):
            if j != i:
                cand.append((math.dist(points[i], points[j]), j))
        cand.sort()
        nbrs[i] = [j for _, j in cand[:M]]
        dists[i] = [d for d, _ in cand[:M]]
    return nbrs, dists


def brute_silhouette_scores(points: np.ndarray, labels: np.ndarray) -> list[float]:
    """Per-point silhouette widths straight from the definitions."""
    n = len(labels)
    k = int(labels.max()) + 1
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i]]
        if len(own) == 1:
            scores.append(0.0)  # a_i = +inf convention
            continue
        a = sum(math.dist(points[i], points[u]) for u in own) / (len(own) - 1)
        b = min(
            sum(math.dist(points[i], points[v]) for v in range(n) if labels[v] == c)
            / sum(1 for v in range(n) if labels[v] == c)
            for c in range(k)
            if c != labels[i]
        )
        scores.append((b - a) / max(a, b))
    return scores


def set_partitions(n: int):
    """All set partitions of range(n) as canonical label tuples (RGS)."""

    def rec(i, labels, m):
        if i == n:
            yield tuple(labels)
            return
        for v in range(m + 1):
            labels.append(v)
            yield from rec(i + 1, labels, max(m, v + 1))
            labels.pop()

    yield from rec(0, [], 0)


def k_partitions(n: int, k: int):
    """All partitions of range(n) into exactly k nonempty blocks."""
    for labels in set_partitions(n):
        if max(labels) + 1 == k:
            yield labels


def wcss(points: np.ndarray, labels) -> float:
    labels = np.asarray(labels)
    total = 0.0
    for j in range(int(labels.max()) + 1):
        block = points[labels == j]
        total += ((block - block.mean(axis=0)) ** 2).sum()
    return float(total)


def all_cluster_permutation_relabels(labels: np.ndarray, k: int):
    for perm in itertools.permutations(range(k)):
        yield np.array([perm[v] for v in labels])


def climb_by_peek(spec, ds, candidates, P):
    """``optim.tabu_hill_climb`` with one ``peek`` per move in (point,
    target) order instead of a scan: the reference for the batched climb.
    Returns the best partition and its ``OptimTrace``."""
    values = [evaluate(spec, ds, c) for c in candidates]
    candidates = [candidates[i] for i in sorted(range(len(candidates)), key=lambda i: -values[i])]
    trace = optim.OptimTrace(candidate_count=len(candidates))
    tabu = optim.TabuList()
    best_labels = candidates[0].labels.copy()
    best_value = evaluate(spec, ds, candidates[0])
    trace.best_history.append(best_value)
    for cand in candidates:
        ev = make_evaluator(spec, ds, cand)
        patience = 1
        work = np.empty_like(ev.labels)
        while True:
            chosen = None
            chosen_value = float("-inf")
            for m in iter_moves(ev.labels, ev.sizes, ev.k):
                v = ev.peek(m)
                if v > chosen_value:
                    np.copyto(work, ev.labels)
                    work[m.point] = m.dst
                    if partition.canonical_key(work) in tabu:
                        continue
                    chosen = m
                    chosen_value = v
            if chosen is None:
                break
            np.copyto(work, ev.labels)
            work[chosen.point] = chosen.dst
            tabu.add(partition.canonical_key(work))
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
    return partition.from_labels(best_labels, candidates[0].k), trace


def counted_kmeans(monkeypatch) -> list:
    """The k of each ``optim.lloyd_kmeans`` call, from now on."""
    calls = []
    kmeans = optim.lloyd_kmeans

    def counting(ds, k, **kwargs):
        calls.append(k)
        return kmeans(ds, k, **kwargs)

    monkeypatch.setattr(optim, "lloyd_kmeans", counting)
    return calls


def kmeans_by_restart(ds, k, restarts, rng, max_iter=300):
    """``optim.lloyd_kmeans`` one restart after another, as it was before
    the restarts ran in lockstep: the reference for the lockstep loop.
    Returns the winning labels and the number of empty-cluster repairs."""
    pts = ds.points
    best_labels = None
    best_wcss = np.inf
    repairs = 0
    for _ in range(restarts):
        centers = pts[rng.choice(ds.n, size=k, replace=False)].copy()
        labels = None
        for _ in range(max_iter):
            d2 = cdist(pts, centers, "sqeuclidean")
            new_labels = d2.argmin(axis=1)
            sizes = np.bincount(new_labels, minlength=k)
            for empty in np.flatnonzero(sizes == 0):
                repairs += 1
                donor = int(sizes.argmax())
                mem = np.flatnonzero(new_labels == donor)
                mu = pts[mem].mean(axis=0)
                far = mem[int(((pts[mem] - mu) ** 2).sum(axis=1).argmax())]
                new_labels[far] = empty
                sizes = np.bincount(new_labels, minlength=k)
            if labels is not None and np.array_equal(labels, new_labels):
                break
            labels = new_labels
            for j in range(k):
                centers[j] = pts[labels == j].mean(axis=0)
        wcss = 0.0
        for j in range(k):
            mem = pts[labels == j]
            wcss += ((mem - mem.mean(axis=0)) ** 2).sum()
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels
    return best_labels, repairs


def prim_by_delete(ds):
    """``geometry.emst`` as it was before the fixed-length arrays: Prim
    over the points outside the tree, dropping each one as it joins."""
    dp, n = geometry.DistanceProvider(ds), ds.n
    rest = np.arange(1, n)
    near = dp.row(0)[1:].copy()
    via = np.zeros(n - 1, dtype=np.int64)
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
    return u[order], v[order], w[order]
