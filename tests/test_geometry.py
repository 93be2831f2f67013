import numpy as np
import pytest
from scipy.spatial.distance import cdist

from conftest import make_dataset
from cviopt import dataio, geometry


def find(root: list, i: int) -> int:
    while root[i] != i:
        i = root[i]
    return i


def kruskal_weight(points: np.ndarray) -> float:
    """Total weight of a minimum spanning tree by brute-force Kruskal."""
    n = len(points)
    dist = cdist(points, points)
    root = list(range(n))
    total = 0.0
    for w, i, j in sorted((dist[i, j], i, j) for i in range(n) for j in range(i + 1, n)):
        a, b = find(root, i), find(root, j)
        if a != b:
            root[a] = b
            total += w
    return total


def assert_spanning_tree(ds: dataio.Dataset) -> tuple:
    u, v, w = geometry.emst(ds)
    n = ds.n
    assert len(u) == len(v) == len(w) == n - 1
    assert (u < v).all()
    assert np.array_equal(np.lexsort((v, u)), np.arange(n - 1))
    assert not any(arr.flags.writeable for arr in (u, v, w))
    assert np.array_equal(w, cdist(ds.points, ds.points)[u, v])  # the served distances
    root = list(range(n))
    for i, j in zip(u, v):  # n - 1 edges joining n points: a tree iff no cycle
        a, b = find(root, i), find(root, j)
        assert a != b, "cycle"
        root[a] = b
    assert w.sum() == pytest.approx(kruskal_weight(ds.points), rel=1e-9, abs=1e-12)
    return u, v, w


@pytest.mark.parametrize("limit", (10**6, 8), ids=("dense", "on_demand"))
def test_emst_is_a_minimum_spanning_tree(limit, monkeypatch):
    monkeypatch.setattr(geometry, "DENSE_LIMIT", limit)
    rng = np.random.default_rng(11)
    for n, d in ((2, 1), (17, 2), (60, 3), (45, 12)):
        assert_spanning_tree(make_dataset(rng, n, d))
    assert all(len(a) == 0 for a in geometry.emst(dataio.Dataset(np.zeros((1, 2)))))


@pytest.mark.parametrize("limit", (10**6, 8), ids=("dense", "on_demand"))
def test_emst_spans_duplicate_points(limit, monkeypatch):
    # raw, un-jittered points: zero-distance edges must stay in the tree
    monkeypatch.setattr(geometry, "DENSE_LIMIT", limit)
    rng = np.random.default_rng(5)
    for n, d in ((10, 1), (40, 2), (64, 3)):
        sites = rng.integers(0, 3, size=(n // 4, d)).astype(float)
        pts = sites[rng.integers(0, len(sites), size=n)]
        u, v, w = assert_spanning_tree(dataio.Dataset(pts))
        distinct = len(np.unique(pts, axis=0))
        assert (w == 0.0).sum() == n - distinct


def test_emst_is_cached_per_dataset():
    ds = make_dataset(np.random.default_rng(2), 30, 2)
    assert geometry.emst(ds) is geometry.emst(ds)
