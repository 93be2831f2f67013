import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as scipy_components

from conftest import brute_knn, duplicate_points, make_dataset
from cviopt import dataio, nngraph
from cviopt.errors import ParameterError
from cviopt.partition import relabel_first_occurrence


def line(*xs):
    return dataio.Dataset(np.array([[float(x)] for x in xs]))


def test_knn_hand_example_three_points():
    g = nngraph.build_knn(line(0, 1, 3), 1)
    assert g.neighbours[:, 0].tolist() == [1, 0, 1]


def test_knn_hand_example_two_pairs():
    g = nngraph.build_knn(line(0, 1, 10, 11), 2)
    assert g.neighbours.tolist() == [[1, 2], [0, 2], [3, 1], [2, 1]]
    assert np.allclose(g.distances, [[1, 10], [1, 9], [1, 9], [1, 10]])


def test_knn_full_graph_is_sorted_permutation():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng, 12, 2)
    g = nngraph.build_knn(ds, ds.n - 1)
    for i in range(ds.n):
        assert sorted(g.neighbours[i].tolist()) == [j for j in range(ds.n) if j != i]
        assert (np.diff(g.distances[i]) >= 0).all()


def test_knn_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = int(rng.integers(5, 200))
        d = int(rng.integers(1, 4))
        M = int(rng.integers(1, min(n - 1, 8) + 1))
        ds = make_dataset(rng, n, d)
        g = nngraph.build_knn(ds, M)
        nbrs, dists = brute_knn(ds.points, M)
        assert np.array_equal(g.neighbours, nbrs)
        assert np.allclose(g.distances, dists)


@pytest.mark.parametrize("d, side, Ms", [(2, 7, (2, 3, 4, 6, 10)), (3, 4, (3, 5, 8, 20))])
def test_knn_on_tied_lattice_matches_brute_force(d, side, Ms):
    # integer grid points: the M-th distance of a row is tied with others,
    # so the lower point index must win among equal distances
    grid = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), -1).reshape(-1, d)
    pts = grid[np.random.default_rng(d).permutation(len(grid))].astype(float)
    for M in Ms:
        g = nngraph.build_knn(dataio.Dataset(pts), M)
        nbrs, dists = brute_knn(pts, M)
        assert np.array_equal(g.neighbours, nbrs), M
        assert np.allclose(g.distances, dists), M


def test_knn_on_duplicate_points_matches_brute_force():
    # duplicates tie many distances at the M-th place, n - 2 is the largest
    # M with an (M+1)-th distance, and n = 2, 3 reach the smallest rows
    rng = np.random.default_rng(11)
    sets = [duplicate_points(rng, int(rng.integers(4, 60)), d) for d in (1, 2, 3) * 3]
    sets += [duplicate_points(rng, n, 2) for n in (2, 3)]
    sets += [line(0, 1), line(0, 1, 1), line(5, 5, 5)]
    for ds in sets:
        for M in sorted({1, ds.n - 2, ds.n - 1} - {0}):
            g = nngraph.build_knn(ds, M)
            nbrs, dists = brute_knn(ds.points, M)
            assert np.array_equal(g.neighbours, nbrs), (ds.n, M)
            assert np.array_equal(g.distances, dists), (ds.n, M)


def test_knn_parameter_errors():
    ds = line(0, 1, 2)
    with pytest.raises(ParameterError):
        nngraph.build_knn(ds, 3)
    with pytest.raises(ParameterError):
        nngraph.build_knn(ds, 0)


def test_symmetric_edges_hand_examples():
    e = nngraph.symmetric_edges(nngraph.build_knn(line(0, 1, 3), 1))
    assert list(zip(e.u.tolist(), e.v.tolist())) == [(0, 1), (1, 2)]

    e = nngraph.symmetric_edges(nngraph.build_knn(line(0, 1, 10, 11), 2))
    assert list(zip(e.u.tolist(), e.v.tolist())) == [
        (0, 1),
        (0, 2),
        (1, 2),
        (1, 3),
        (2, 3),
    ]
    assert len(e) == 5


def test_symmetric_edges_counts():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(6, 60))
        M = int(rng.integers(1, 5))
        ds = make_dataset(rng, n, 2)
        e = nngraph.symmetric_edges(nngraph.build_knn(ds, M))
        assert n * M / 2 <= len(e) <= n * M


def test_symmetric_edges_mutual_only():
    # two tight pairs, M=1: fully mutual neighbourhoods, exactly nM/2 edges
    e = nngraph.symmetric_edges(nngraph.build_knn(line(0, 1, 10, 11), 1))
    assert len(e) == 2


def test_connected_components_examples():
    g = nngraph.build_knn(line(0, 1, 10, 11), 1)
    assert nngraph.connected_components(g).tolist() == [0, 0, 1, 1]

    g = nngraph.build_knn(line(0, 1, 3), 1)
    assert nngraph.connected_components(g).tolist() == [0, 0, 0]

    rng = np.random.default_rng(1)
    ds = make_dataset(rng, 15, 2)
    g = nngraph.build_knn(ds, ds.n - 1)
    assert nngraph.connected_components(g).max() == 0


def components_over_symmetric_edges(g):
    e = nngraph.symmetric_edges(g)
    adj = coo_matrix((np.ones(len(e)), (e.u, e.v)), shape=(g.n, g.n))
    return relabel_first_occurrence(scipy_components(adj, directed=False)[1].astype(np.int64))


def test_connected_components_match_symmetric_edges():
    rng = np.random.default_rng(12)
    sets = [make_dataset(rng, int(rng.integers(5, 80)), 2) for _ in range(6)]
    sets += [dataio.Dataset(np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(25, 2)) + 100]))]
    sets += [duplicate_points(rng, int(rng.integers(5, 60)), 2) for _ in range(6)]
    for ds in sets:
        for M in sorted({1, 2, 3, ds.n - 1} & set(range(1, ds.n))):
            g = nngraph.build_knn(ds, M)
            labels = nngraph.connected_components(g)
            assert labels.dtype == np.int64
            assert np.array_equal(labels, components_over_symmetric_edges(g)), (ds.n, M)
    # the two far-apart blobs share no component at small M
    for M in (1, 2, 3):
        labels = nngraph.connected_components(nngraph.build_knn(sets[6], M))
        assert not set(labels[:20]) & set(labels[20:])


def test_component_count_monotone_in_m():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng, 40, 2)
    counts = []
    for M in range(1, 8):
        comps = nngraph.connected_components(nngraph.build_knn(ds, M))
        counts.append(int(comps.max()) + 1)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_edges_invariant_under_point_reorder():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(25, 2))
    perm = rng.permutation(25)
    e1 = nngraph.symmetric_edges(nngraph.build_knn(dataio.Dataset(pts), 3))
    e2 = nngraph.symmetric_edges(nngraph.build_knn(dataio.Dataset(pts[perm]), 3))
    # map e2's indices back through the permutation and compare as sets
    back = np.empty(25, dtype=np.int64)
    back[np.arange(25)] = perm  # position i of the new order holds old index perm[i]
    remapped = {(min(back[u], back[v]), max(back[u], back[v])) for u, v in zip(e2.u, e2.v)}
    original = {(int(u), int(v)) for u, v in zip(e1.u, e1.v)}
    assert remapped == original


def test_knn_cache_reuses_graph():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, 30, 2)
    assert nngraph.knn_for(ds, 3) is nngraph.knn_for(ds, 3)
    assert nngraph.edges_for(ds, 3) is nngraph.edges_for(ds, 3)
