"""Full (from-scratch) evaluation of every index in the menu.

These are the definitional implementations: direct formulas over the
partition, with no incremental state.  The evaluators in
:mod:`cviopt.cvi.evaluators` must agree with them to 1e-9 relative.
"""

from __future__ import annotations

import numpy as np

from ..dataio import Dataset
from ..errors import ParameterError
from ..geometry import DistanceProvider
from ..nngraph import edges_for, knn_for
from ..owa import OWASpec, aggregate
from ..partition import Partition


def _centroids(ds: Dataset, p: Partition) -> np.ndarray:
    cents = np.empty((p.k, ds.d))
    for j in range(p.k):
        cents[j] = ds.points[p.labels == j].mean(axis=0)
    return cents


def ball_hall(ds: Dataset, p: Partition) -> float:
    """Negated WCSS weighted by cluster cardinality (larger is better)."""
    total = 0.0
    for j in range(p.k):
        pts = ds.points[p.labels == j]
        mu = pts.mean(axis=0)
        total += ((pts - mu) ** 2).sum() / pts.shape[0]
    return -float(total)


def calinski_harabasz(ds: Dataset, p: Partition) -> float:
    """Variance ratio criterion ((n-k)/(k-1) * BCSS/WCSS)."""
    mu = ds.points.mean(axis=0)
    bcss = 0.0
    wcss = 0.0
    for j in range(p.k):
        pts = ds.points[p.labels == j]
        mu_j = pts.mean(axis=0)
        bcss += pts.shape[0] * ((mu_j - mu) ** 2).sum()
        wcss += ((pts - mu_j) ** 2).sum()
    if wcss <= 0.0:
        return float("inf")
    return float((ds.n - p.k) / (p.k - 1) * bcss / wcss)


def davies_bouldin(ds: Dataset, p: Partition) -> float:
    """Negated mean worst-pair similarity; singletons force -inf."""
    k = p.k
    cents = _centroids(ds, p)
    s = np.empty(k)
    for j in range(k):
        pts = ds.points[p.labels == j]
        if pts.shape[0] > 1:
            s[j] = np.linalg.norm(pts - cents[j], axis=1).mean()
        else:
            s[j] = np.inf
    m = np.linalg.norm(cents[:, None, :] - cents[None, :, :], axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(m > 0.0, (s[:, None] + s[None, :]) / m, np.inf)
    np.fill_diagonal(r, -np.inf)
    return float(-r.max(axis=1).mean())


def _silhouette_scores(ds: Dataset, p: Partition) -> np.ndarray:
    """Per-point silhouette widths with the singleton convention (score 0)."""
    n, labels = ds.n, p.labels
    dsum = DistanceProvider(ds).cluster_sums(labels, p.k)
    sizes = p.sizes
    ar = np.arange(n)
    mean_to = dsum / sizes[None, :]
    own_sum = dsum[ar, labels]
    mean_to[ar, labels] = np.inf
    b = mean_to.min(axis=1)
    n_own = sizes[labels]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = own_sum / (n_own - 1)
        den = np.maximum(a, b)
        scores = np.where(den > 0.0, (b - a) / den, 0.0)
    scores[n_own == 1] = 0.0  # a_i = +inf, convention +-inf/inf = 0
    return scores


def silhouette(ds: Dataset, p: Partition) -> float:
    """Mean silhouette width over all points."""
    return float(_silhouette_scores(ds, p).mean())


def silhouette_w(ds: Dataset, p: Partition) -> float:
    """Mean of cluster-average silhouette widths, singletons excluded from
    the divisor (their zero scores stay in the sum)."""
    scores = _silhouette_scores(ds, p)
    n_own = p.sizes[p.labels]
    singletons = int((p.sizes == 1).sum())
    effective = p.k - singletons
    if effective < 1:
        return float("-inf")
    return float((scores / n_own).sum() / effective)


def gdunn(ds: Dataset, p: Partition, d_variant: int, big_d_variant: int) -> float:
    """Generalized Dunn index: min between-cluster separation over max
    within-cluster compactness."""
    if d_variant not in (1, 2, 3, 4, 5):
        raise ParameterError(f"bad separation variant d{d_variant}")
    if big_d_variant not in (1, 2, 3):
        raise ParameterError(f"bad compactness variant D{big_d_variant}")
    k = p.k
    labels = p.labels
    dp = DistanceProvider(ds)
    members = [np.flatnonzero(labels == j) for j in range(k)]
    sizes = p.sizes.astype(np.float64)

    cents = None
    sdc = None
    if d_variant in (4, 5) or big_d_variant == 3:
        cents = _centroids(ds, p)
    if d_variant == 5 or big_d_variant == 3:
        sdc = np.array(
            [
                np.linalg.norm(ds.points[members[j]] - cents[j], axis=1).sum()
                for j in range(k)
            ]
        )

    num = np.inf
    if d_variant in (1, 2, 3):
        for i in range(k):
            for j in range(i + 1, k):
                block = dp.sub(members[i], members[j])
                if d_variant == 1:
                    val = block.min()
                elif d_variant == 2:
                    val = block.max()
                else:
                    val = block.mean()
                num = min(num, float(val))
    elif d_variant == 4:
        for i in range(k):
            for j in range(i + 1, k):
                num = min(num, float(np.linalg.norm(cents[i] - cents[j])))
    else:  # d5: size-weighted mean distance to the two centroids
        for i in range(k):
            for j in range(i + 1, k):
                num = min(num, float((sdc[i] + sdc[j]) / (sizes[i] + sizes[j])))

    den = 0.0
    if big_d_variant == 1:
        for j in range(k):
            if members[j].shape[0] > 1:
                den = max(den, float(dp.sub(members[j], members[j]).max()))
    elif big_d_variant == 2:
        # mean over distinct pairs; the zero diagonal cancels in the sum
        for j in range(k):
            nj = members[j].shape[0]
            if nj > 1:
                den = max(den, float(dp.sub(members[j], members[j]).sum() / (nj * (nj - 1))))
    else:
        den = float((sdc / sizes).max())

    if den <= 0.0:
        return float("inf")
    return num / den


def dunn_nn(ds: Dataset, p: Partition, M: int, owa_s: OWASpec, owa_c: OWASpec) -> float:
    """Dunn-type index over the symmetrized M-near-neighbour edge distances."""
    edges = edges_for(ds, M)
    cross = p.labels[edges.u] != p.labels[edges.v]
    cross_d = edges.dist[cross]
    within_d = edges.dist[~cross]
    if cross_d.size == 0:
        return float("inf")  # perfect separation
    num = aggregate(owa_s, cross_d)
    if owa_c.is_const:
        return num
    if within_d.size == 0:
        return float("-inf")  # no within-cluster evidence of compactness
    den = aggregate(owa_c, within_d)
    if den <= 0.0:
        return float("inf")
    return num / den


def wcnn(ds: Dataset, p: Partition, M: int) -> float:
    """Fraction of directed NN pairs staying within a cluster; -inf whenever
    some cluster has M or fewer points."""
    if (p.sizes <= M).any():
        return float("-inf")
    g = knn_for(ds, M)
    same = p.labels[g.neighbours] == p.labels[:, None]
    return float(same.sum() / (ds.n * M))
