import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import apply_move, enumerate_moves, iter_moves, make_dataset, random_surjective_labels
from cviopt import cvi, dataio, geometry
from cviopt.cvi import FAMILIES, evaluators, make_evaluator, parse_spec
from cviopt.errors import InvalidMoveError
from cviopt.partition import Move, from_labels

ALL_SPECS = (
    ["BallHall", "CalinskiHarabasz", "DaviesBouldin", "Silhouette", "SilhouetteW"]
    + [f"GDunn_d{d}_D{D}" for d in (1, 2, 3, 4, 5) for D in (1, 2, 3)]
    + [
        "DuNN_2_Min_Max",
        "DuNN_2_Max_Min",
        "DuNN_2_Mean_Mean",
        "DuNN_5_SMin:2_Const",
        "DuNN_5_SMax:2_SMin:2",
        "DuNN_5_Min_Const",
        "WCNN_2",
        "WCNN_5",
    ]
)


def close(a, b, rel=1e-9):
    if np.isinf(a) or np.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def random_walk(rng, p, steps):
    path = []
    cur = p
    for _ in range(steps):
        moves = enumerate_moves(cur)
        m = moves[int(rng.integers(0, len(moves)))]
        path.append(m)
        cur = apply_move(cur, m)
    return path


def lattice_dataset(rng, n, d):
    """Distinct points of a small integer grid: many equal distances."""
    side = int(np.ceil(2 * n ** (1 / d)))
    grid = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), -1).reshape(-1, d)
    return dataio.Dataset(grid[rng.choice(len(grid), n, replace=False)].astype(float))


def walk_matches_full_recompute(spec, rng, make=make_dataset):
    for _ in range(4):
        n = int(rng.integers(12, 45))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        ds = make(rng, n, d)
        p = from_labels(random_surjective_labels(rng, n, k), k)
        ev = make_evaluator(spec, ds, p)
        assert close(ev.value(), cvi.evaluate(spec, ds, p)), "init"
        cur = p
        for m in random_walk(rng, p, 30):
            peeked = ev.peek(m)
            cur = apply_move(cur, m)
            full = cvi.evaluate(spec, ds, cur)
            assert close(peeked, full), f"{spec}: peek {peeked} vs full {full}"
            ev.commit(m)
            assert ev.value() == peeked


def peek_table(ev):
    """``scan()`` by its definition: a peek of every valid move, -inf elsewhere."""
    out = np.full((len(ev.labels), ev.k), -np.inf)
    for m in iter_moves(ev.labels, ev.sizes, ev.k):
        out[m.point, m.dst] = ev.peek(m)
    return out


SCAN_SPECS = ALL_SPECS + ["DuNN_3_Min_Min", "DuNN_3_Max_Max", "DuNN_5_Max_Const", "WCNN_10"]


def assert_scans_equal_peeks(spec, ds, k, rng, steps, what):
    """From a random start and from k - 1 singletons, ``scan()`` equals
    ``peek_table`` before and after each of ``steps - 1`` random commits."""
    near_singletons = np.minimum(np.arange(ds.n), k - 1)
    for labels in (random_surjective_labels(rng, ds.n, k), near_singletons):
        ev = make_evaluator(spec, ds, from_labels(labels, k))
        for step in range(steps):
            if step:
                moves = list(iter_moves(ev.labels, ev.sizes, ev.k))
                ev.commit(moves[int(rng.integers(len(moves)))])
            # == is bit equality and holds for +-inf alike
            assert (ev.scan() == peek_table(ev)).all(), f"{what} after {step} commits"


@pytest.mark.parametrize("text", SCAN_SPECS)
def test_scan_equals_peek(text):
    spec = parse_spec(text)
    rng = np.random.default_rng(list(text.encode()))
    for make in (make_dataset, lattice_dataset):
        n, d, k = int(rng.integers(20, 40)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        assert_scans_equal_peeks(spec, make(rng, n, d), k, rng, 21, text)


@pytest.mark.parametrize("text", SCAN_SPECS)
def test_scan_of_some_points_and_targets_equals_full_scan(text):
    # _scan(points, targets), the one formula both peek and scan read, is
    # the scan() rows of any points, in any order, in its valid cells of
    # any targets
    spec = parse_spec(text)
    rng = np.random.default_rng(zlib.crc32(b"some " + text.encode()))
    for make in (make_dataset, lattice_dataset):
        n, d, k = int(rng.integers(20, 40)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        labels = random_surjective_labels(rng, n, k)
        ev = make_evaluator(spec, make(rng, n, d), from_labels(labels, k))
        for step in range(6):
            if step:
                moves = list(iter_moves(ev.labels, ev.sizes, ev.k))
                ev.commit(moves[int(rng.integers(len(moves)))])
            full = ev.scan()
            for size in (1, 2, n // 2, n):
                points = rng.permutation(n)[:size]
                targets = rng.permutation(k)[: int(rng.integers(1, k + 1))].tolist()
                src = ev.labels[points]
                valid = (src[:, None] != targets) & (ev.sizes[src] >= 2)[:, None]
                part = ev._scan(points, targets)[:, targets]
                assert (part[valid] == full[points][:, targets][valid]).all(), f"{text} {size}"


def coarse_grid(rng, n, d):
    """Distinct points of a small integer grid drawn without listing it, so
    that it serves any d: many equal distances."""
    side = max(3, int(np.ceil((4 * n) ** (1 / d))))
    while True:
        pts = np.unique(rng.integers(0, side, size=(2 * n, d)), axis=0)
        if len(pts) >= n:
            return dataio.Dataset(pts[rng.permutation(len(pts))[:n]].astype(float))


@pytest.mark.parametrize(
    "limit, cells", [(10**6, None), (10**6, 64), (8, 64)], ids=("dense", "blocks", "on_demand")
)
@pytest.mark.parametrize(
    "text", ["Silhouette", "SilhouetteW", "DaviesBouldin", "BallHall", "CalinskiHarabasz", "WCNN_5"]
)
def test_block_scan_equals_peek(text, limit, cells, monkeypatch):
    # the scan kernels at d >= 8 (where np.linalg.norm and sums over d add
    # pairwise), at k = 5 (the least over the untouched clusters), in row
    # blocks split many times, and on on-demand distance rows
    monkeypatch.setattr(geometry, "DENSE_LIMIT", limit)
    if cells is not None:
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", cells)
    spec = parse_spec(text)
    rng = np.random.default_rng(zlib.crc32(text.encode()))
    for d, k in ((8, 2), (12, 3), (2, 5)):
        for make in (make_dataset, coarse_grid):
            ds = make(rng, int(rng.integers(25, 40)), d)
            assert_scans_equal_peeks(spec, ds, k, rng, 9, f"{text} d={d} k={k}")


def test_make_evaluator_matches_full(x4):
    p = from_labels([0, 0, 1, 1], 2)
    ev = make_evaluator(parse_spec("CalinskiHarabasz"), x4, p)
    assert ev.value() == pytest.approx(200.0)
    assert ev.value() == ev.value()  # purity


def test_evaluator_singleton_db(x4):
    ev = make_evaluator(parse_spec("DaviesBouldin"), x4, from_labels([0, 0, 0, 1], 2))
    assert ev.value() == float("-inf")


def test_peek_is_stateless(x4):
    p = from_labels([0, 1, 0, 1], 2)
    ev = make_evaluator(parse_spec("CalinskiHarabasz"), x4, p)
    m = Move(1, 1, 0)
    v1 = ev.peek(m)
    v2 = ev.peek(m)
    assert v1 == v2
    assert ev.value() == pytest.approx(0.02)
    # peek equals the full evaluation of the moved partition
    moved = apply_move(p, m)
    assert close(v1, cvi.calinski_harabasz(x4, moved))


def test_commit_equals_prior_peek_and_reversal():
    rng = np.random.default_rng(31)
    ds = make_dataset(rng, 16, 2)
    start = from_labels([0] * 8 + [1] * 8, 2)
    for text in ALL_SPECS:
        ev = make_evaluator(parse_spec(text), ds, start)
        before = ev.value()
        m = Move(1, 0, 1)
        peeked = ev.peek(m)
        ev.commit(m)
        assert ev.value() == peeked, text
        ev.commit(Move(1, 1, 0))
        assert close(ev.value(), before), text


def test_invalid_moves_rejected(x4):
    ev = make_evaluator(parse_spec("Silhouette"), x4, from_labels([0, 1, 1, 1], 2))
    with pytest.raises(InvalidMoveError):
        ev.peek(Move(0, 0, 1))  # would empty cluster 0
    with pytest.raises(InvalidMoveError):
        ev.commit(Move(2, 0, 1))  # wrong source cluster
    with pytest.raises(InvalidMoveError):
        ev.peek(Move(1, 1, 1))  # src == dst


@pytest.mark.parametrize("text", ALL_SPECS)
def test_trajectory_matches_full_recompute(text):
    walk_matches_full_recompute(parse_spec(text), np.random.default_rng(zlib.crc32(text.encode())))


TIED_SPECS = [
    "DuNN_3_Min_Max",
    "DuNN_3_Max_Min",
    "DuNN_5_SMin:2_SMax:2",
    "DuNN_5_SMax:1_SMin:3",
    "DuNN_4_SMin:1_Const",
] + [f"GDunn_d1_D{D}" for D in (1, 2, 3)]


@pytest.mark.parametrize("text", TIED_SPECS)
def test_tied_edge_weights_match_full_recompute(text):
    # lattice points give many equal edge weights; ranks keep them apart
    walk_matches_full_recompute(parse_spec(text), np.random.default_rng(len(text)), lattice_dataset)


def test_dunn_runs_without_sortedcontainers():
    code = """
import sys
sys.modules["sortedcontainers"] = None
import numpy as np
from cviopt import dataio
from cviopt.cvi import make_evaluator, parse_spec
from cviopt.partition import Move, from_labels
ds = dataio.Dataset(np.random.default_rng(0).normal(size=(20, 2)))
ev = make_evaluator(parse_spec("DuNN_3_SMin:2_Max"), ds, from_labels([0] * 10 + [1] * 10, 2))
v = ev.peek(Move(0, 0, 1))
ev.commit(Move(0, 0, 1))
assert ev.value() == v
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


ON_DEMAND_SPECS = ["Silhouette", "SilhouetteW", "DaviesBouldin"] + [
    f"GDunn_d{d}_D{D}" for d in (1, 2, 3, 4, 5) for D in (1, 2, 3)
]


@pytest.mark.parametrize("text", ON_DEMAND_SPECS)
def test_on_demand_distances_match_full_recompute(text, monkeypatch):
    # above the dense limit every distance comes from on-demand rows
    monkeypatch.setattr(geometry, "DENSE_LIMIT", 8)
    walk_matches_full_recompute(parse_spec(text), np.random.default_rng(len(text)))


def duplicate_points(rng, n, d):
    """Raw points drawn from a few grid sites: many exact duplicates, and
    points 0 and 1 always coincide."""
    sites = rng.integers(0, 4, size=(max(2, n // 4), d)).astype(float)
    pick = rng.integers(0, len(sites), size=n)
    pick[1] = pick[0]
    return dataio.Dataset(sites[pick])


@pytest.mark.parametrize("limit", (10**6, 8), ids=("dense", "on_demand"))
@pytest.mark.parametrize("D", (1, 2, 3))
def test_gdunn_d1_on_duplicate_points_matches_full_recompute(D, limit, monkeypatch):
    monkeypatch.setattr(geometry, "DENSE_LIMIT", limit)
    spec = parse_spec(f"GDunn_d1_D{D}")
    rng = np.random.default_rng(D)
    for _ in range(4):
        n, k = int(rng.integers(12, 40)), int(rng.integers(2, 5))
        ds = duplicate_points(rng, n, int(rng.integers(1, 3)))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # the zero-distance pair 0, 1 starts split
        ev = make_evaluator(spec, ds, from_labels(labels, k))
        assert close(ev.value(), cvi.gdunn(ds, from_labels(labels, k), 1, D)), "init"
        for _ in range(30):
            moves = list(iter_moves(ev.labels, ev.sizes, ev.k))
            m = moves[int(rng.integers(len(moves)))]
            peeked = ev.peek(m)
            ev.commit(m)
            assert ev.value() == peeked
            full = cvi.gdunn(ds, from_labels(ev.labels, k), 1, D)
            assert close(peeked, full), f"{spec}: peek {peeked} vs full {full}"


def test_family_table_covers_every_family():
    assert set(evaluators.FAMILY_TABLE) == set(FAMILIES)


def test_long_run_drift_stays_bounded():
    # 10^4 commits with periodic resync checks against full recomputation
    rng = np.random.default_rng(99)
    ds = make_dataset(rng, 30, 2)
    for text in ("CalinskiHarabasz", "Silhouette", "DuNN_3_Mean_Mean", "GDunn_d3_D2"):
        spec = parse_spec(text)
        p = from_labels(random_surjective_labels(rng, 30, 3), 3)
        ev = make_evaluator(spec, ds, p)
        cur = p
        for step in range(10_000):
            moves = enumerate_moves(cur)
            m = moves[int(rng.integers(0, len(moves)))]
            ev.commit(m)
            cur = apply_move(cur, m)
            if step % 500 == 0:
                full = cvi.evaluate(spec, ds, cur)
                assert close(ev.value(), full, rel=1e-7), f"{text} drifted at {step}"


def test_labels_view_is_readonly(x4):
    ev = make_evaluator(parse_spec("BallHall"), x4, from_labels([0, 0, 1, 1], 2))
    with pytest.raises(ValueError):
        ev.labels[0] = 1


def test_evaluator_independent_instances(x4):
    p = from_labels([0, 0, 1, 1], 2)
    spec = parse_spec("Silhouette")
    e1 = make_evaluator(spec, x4, p)
    e2 = make_evaluator(spec, x4, p)
    e1.commit(Move(1, 0, 1))
    assert e2.value() == pytest.approx(cvi.silhouette(x4, p))


def test_dunn_evaluator_minus_inf_transitions():
    # walking into and out of the WCNN guard region keeps values consistent
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, 12, 2)
    spec = parse_spec("WCNN_3")
    p = from_labels([0] * 4 + [1] * 8, 2)
    ev = make_evaluator(spec, ds, p)
    m = Move(0, 0, 1)  # shrinks cluster 0 to 3 <= M
    assert ev.peek(m) == float("-inf")
    ev.commit(m)
    assert ev.value() == float("-inf")
    back = Move(0, 1, 0)
    assert np.isfinite(ev.peek(back))
    ev.commit(back)
    assert close(ev.value(), cvi.evaluate(spec, ds, p))
