"""Compare the incremental evaluators, the definitional ``evaluate``,
k-means, EMST, exact kNN, tabu climb, ``optimise_dataset``, canonical
relabelling, tabu keys, ARI scoring and method dissimilarities of a git
revision with the working tree's, bit for bit.

    PYTHONPATH=src python tools/bitcheck.py REV

Loads ``git show REV:src/cviopt/cvi/evaluators.py``, ``REV:src/cviopt/optim.py``,
``REV:src/cviopt/geometry.py``, ``REV:src/cviopt/nngraph.py``,
``REV:src/cviopt/partition.py`` and ``REV:src/cviopt/evaluation.py`` as
modules beside the current package (their relative imports resolve to the
current package, so only those files are compared: REV's climb keys its
tabu list with the current ``partition``) and, on fixed seeded datasets,
compares with ``==``:

- for every spec, both evaluators built from the same partition, after
  each of a few random commits: every cell of ``scan()``; every valid
  ``peek``, both before the ``scan()`` and after it; ``value()``, after
  commits made with and without a ``scan()`` before them;
- ``evaluate`` for every spec on each dataset at a random partition, in
  both modes;
- ``lloyd_kmeans`` labels and the state of its generator afterwards, at
  1, 2 and 10 restarts and ``max_iter`` 1, 2 and 300, with k also above
  the distinct point count, on each dataset and on its points times 0.1;
- ``emst``: every edge end and weight, in order;
- ``build_knn`` at M in {1, 2, 5, n - 2, n - 1}, in both modes: every
  neighbour and distance, and the ``connected_components`` labels;
- ``tabu_hill_climb`` for a few specs and patiences, from the random
  candidates of each dataset: the labels and the whole ``OptimTrace``;
- ``optimise_dataset`` for a few pairs of specs, with a reference labeling
  (one point marked noise) and every generator: the labels and the whole
  ``OptimTrace``; the second spec of a pair runs on the first one's
  ``Dataset`` with the same seed, so the working tree reuses its cached
  candidate pool;
- ``relabel_first_occurrence`` on the test suite's label vectors;
- ``partition.KeyTracker`` against REV's ``canonical_key`` along random
  walks of moves, k up to n: the keys of spread-out valid moves, and the
  key after each commit;
- ``adjusted_rand`` on random pairs up to n=2000, with and without
  ``exclude_noise``: the one-pair call, and every row of a stack of 1-5
  labelings, against REV's one-pair call;
- ``method_dissimilarity`` on results where methods lack some units and
  label vectors are lists or arrays: every cell of the mean, median and q3
  matrices.

The datasets come from the test suite's generators in
``tests/conftest.py``: Gaussian, a coarse integer grid (many tied
distances) and raw duplicate points, at d in {1, 2, 8, 12} and k in
{2, 3, 5}; each runs once on the dense distance matrix with the default
row blocks and once on on-demand rows with 64-cell blocks.  Prints the
count compared per spec and for each other function; exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

from cviopt import evaluation, geometry, nngraph, optim, partition
from cviopt.cvi import evaluators, parse_spec
from cviopt.dataio import Dataset, ReferenceSet
from cviopt.partition import from_labels

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import (  # noqa: E402
    coarse_grid,
    duplicate_points,
    iter_moves,
    make_dataset,
    relabel_vectors,
)

SPECS = [
    "BallHall",
    "CalinskiHarabasz",
    "DaviesBouldin",
    "Silhouette",
    "SilhouetteW",
    "WCNN_5",
    *(f"GDunn_d{d}_D{D}" for d in (1, 2, 3, 4, 5) for D in (1, 2, 3)),
    "DuNN_5_Min_Const",
    "DuNN_5_Max_Const",
    "DuNN_5_SMin:2_Max",
    "DuNN_5_SMin:2_Const",
    "DuNN_5_SMax:2_SMin:1",
    "DuNN_4_SMin:3_SMax:3",
    "DuNN_4_Min_SMin:2",
    "DuNN_4_Max_Min",
    "DuNN_3_Mean_Mean",
    "DuNN_3_Mean_Min",
    "DuNN_3_Max_Mean",
    "DuNN_4_SMin:2_Mean",
    "DuNN_5_Mean_Const",
]


def load_revision(rev: str, path: str, package: str):
    """Module ``package.path`` of ``rev``, as ``<package>._bitcheck_<name>``."""
    source = subprocess.run(
        ["git", "show", f"{rev}:src/{package.replace('.', '/')}/{path}"],
        check=True, capture_output=True, text=True,
    ).stdout
    name = f"{package}._bitcheck_{path.removesuffix('.py')}"
    spec = importlib.util.spec_from_loader(name, loader=None)
    module = importlib.util.module_from_spec(spec)
    module.__package__ = package
    sys.modules[spec.name] = module
    exec(compile(source, f"{rev}:{path}", "exec"), module.__dict__)
    return module


def compare(old_ev, new_ev, rng, commits: int) -> tuple[int, int]:
    """(cells compared, mismatches) along one walk of random commits."""
    cells = bad = 0

    def check(a, b):
        nonlocal cells, bad
        a, b = np.asarray(a), np.asarray(b)
        cells += a.size
        bad += int((a != b).sum())

    def peeks():
        moves = list(iter_moves(new_ev.labels, new_ev.sizes, new_ev.k))
        check([old_ev.peek(m) for m in moves], [new_ev.peek(m) for m in moves])
        return moves

    for step in range(commits + 1):
        check(old_ev.value(), new_ev.value())
        peeks()  # one-point scans
        check(old_ev.scan(), new_ev.scan())
        moves = peeks()  # cells of the scan's table
        if step == commits:
            break
        m = moves[int(rng.integers(len(moves)))]
        old_ev.commit(m)
        new_ev.commit(m)
        if step % 2:  # a second commit, with no scan before it
            check(old_ev.value(), new_ev.value())
            moves = list(iter_moves(new_ev.labels, new_ev.sizes, new_ev.k))
            m = moves[int(rng.integers(len(moves)))]
            old_ev.commit(m)
            new_ev.commit(m)
    return cells, bad


#: (DENSE_LIMIT, _BLOCK_CELLS): the dense matrix with the default row
#: blocks, and on-demand rows with 64-cell blocks
MODES = [(geometry.DENSE_LIMIT, geometry._BLOCK_CELLS), (8, 64)]


def datasets(rng):
    """(Dataset, k) over every generator, d and k of the checks."""
    for make in (make_dataset, coarse_grid, duplicate_points):
        for d in (1, 2, 8, 12):
            for k in (2, 3, 5):
                yield make(rng, int(rng.integers(30, 70)), d), k


def compare_evaluate(old, rng) -> tuple[int, int]:
    """(values compared, mismatches) of the definitional ``evaluate``."""
    values = bad = 0
    specs = [parse_spec(text) for text in SPECS]
    for mode in MODES:
        geometry.DENSE_LIMIT, geometry._BLOCK_CELLS = mode
        for ds, k in datasets(rng):
            part = from_labels(rng.permutation(np.arange(ds.n) % k), k)
            for spec in specs:
                values += 1
                bad += old.evaluate(spec, ds, part) != evaluators.evaluate(spec, ds, part)
    geometry.DENSE_LIMIT, geometry._BLOCK_CELLS = MODES[0]
    return values, bad


def compare_kmeans(old_optim, rng) -> tuple[int, int]:
    """(calls compared, mismatches) of ``lloyd_kmeans``: labels and the
    generator's state afterwards."""
    calls = bad = 0
    for grid, k in datasets(rng):
        # in steps of 0.1, a grid's sums depend on the order of addition
        for ds in (grid, Dataset(grid.points * 0.1)):
            distinct = len(np.unique(ds.points, axis=0))
            for kk in (k, min(distinct + 2, ds.n)):
                for restarts in (1, 2, 10):
                    for max_iter in (1, 2, 300):
                        seed = int(rng.integers(2**32))
                        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                        a = old_optim.lloyd_kmeans(ds, kk, restarts, old_rng, max_iter)
                        b = optim.lloyd_kmeans(ds, kk, restarts, new_rng, max_iter)
                        calls += 1
                        same = np.array_equal(a.labels, b.labels)
                        bad += not (same and old_rng.bit_generator.state == new_rng.bit_generator.state)
    return calls, bad


def compare_emst(old_geometry, rng) -> tuple[int, int]:
    """(edges compared, mismatching edges) of ``emst``, in both modes."""
    edges = bad = 0
    for mode in MODES:
        for module in (geometry, old_geometry):
            module.DENSE_LIMIT, module._BLOCK_CELLS = mode
        for ds, _ in datasets(rng):
            old, new = old_geometry.emst(ds), geometry.emst(ds)
            edges += len(new[0])
            bad += int(((old[0] != new[0]) | (old[1] != new[1]) | (old[2] != new[2])).sum())
    for module in (geometry, old_geometry):
        module.DENSE_LIMIT, module._BLOCK_CELLS = MODES[0]
    return edges, bad


def compare_knn(old_nngraph, rng) -> tuple[int, int]:
    """(graphs compared, mismatches) of ``build_knn`` and
    ``connected_components``, in both modes."""
    graphs = bad = 0
    for mode in MODES:
        geometry.DENSE_LIMIT, geometry._BLOCK_CELLS = mode
        for ds, _ in datasets(rng):
            for M in (1, 2, 5, ds.n - 2, ds.n - 1):
                old, new = old_nngraph.build_knn(ds, M), nngraph.build_knn(ds, M)
                graphs += 1
                bad += not (
                    np.array_equal(old.neighbours, new.neighbours)
                    and np.array_equal(old.distances, new.distances)
                    and np.array_equal(
                        old_nngraph.connected_components(old), nngraph.connected_components(new)
                    )
                )
    geometry.DENSE_LIMIT, geometry._BLOCK_CELLS = MODES[0]
    return graphs, bad


#: specs and patiences of the climb comparison
CLIMB_SPECS = [
    "CalinskiHarabasz",
    "BallHall",
    "WCNN_5",
    "DuNN_5_Min_Const",
    "GDunn_d1_D1",
    "Silhouette",
    "SilhouetteW",
    "DaviesBouldin",
    "GDunn_d5_D3",
]
CLIMB_PATIENCES = (1, 5, 30)


def compare_climb(old_optim, rng) -> tuple[int, int]:
    """(climbs compared, mismatches) of ``tabu_hill_climb``: labels and the
    whole ``OptimTrace``."""
    climbs = bad = 0
    for ds, k in datasets(rng):
        candidates = [optim.random_partition(ds.n, k, rng) for _ in range(3)]
        for text in CLIMB_SPECS:
            spec = parse_spec(text)
            for P in CLIMB_PATIENCES:
                # both fill the current OptimTrace class, so == compares fields
                old_trace, new_trace = optim.OptimTrace(), optim.OptimTrace()
                a = old_optim.tabu_hill_climb(spec, ds, candidates, P, old_trace)
                b = optim.tabu_hill_climb(spec, ds, candidates, P, new_trace)
                climbs += 1
                bad += not (np.array_equal(a.labels, b.labels) and old_trace == new_trace)
    return climbs, bad


#: pairs of specs of the ``optimise_dataset`` comparison
OPTIMISE_SPECS = [("CalinskiHarabasz", "Silhouette"), ("GDunn_d1_D1", "DuNN_5_Min_Const")]


def compare_optimise(old_optim, rng) -> tuple[int, int]:
    """(runs compared, mismatches) of ``optimise_dataset``: labels and the
    whole ``OptimTrace``, REV's from its own class."""
    runs = bad = 0
    for ds, k in datasets(rng):
        ext = rng.permutation(np.arange(ds.n) % k) + 1
        ext[0] = 0
        refs = ReferenceSet([ext])
        for pair in OPTIMISE_SPECS:
            kw = dict(refs=refs, seed=int(rng.integers(2**32)), P=5, n_random=2, n_vantage=2)
            for text in pair:
                spec = parse_spec(text)
                a, old_trace = old_optim.optimise_dataset(spec, ds, k, **kw)
                b, new_trace = optim.optimise_dataset(spec, ds, k, **kw)
                runs += 1
                bad += not (np.array_equal(a.labels, b.labels) and vars(old_trace) == vars(new_trace))
    return runs, bad


def compare_relabel(old_partition, rng) -> tuple[int, int]:
    """(vectors compared, mismatches) of ``relabel_first_occurrence``."""
    vectors = bad = 0
    for _ in range(20):
        for labels in relabel_vectors(rng):
            old = old_partition.relabel_first_occurrence(labels)
            new = partition.relabel_first_occurrence(labels)
            vectors += 1
            bad += not (old.dtype == new.dtype and np.array_equal(old, new))
    return vectors, bad


def compare_keys(old_partition, rng) -> tuple[int, int]:
    """(keys compared, mismatches) of ``KeyTracker`` with REV's
    ``canonical_key``: about 50 valid moves per step and the key after
    each commit, along random walks."""
    keys = bad = 0
    for trial in range(300):
        n = int(rng.integers(2, 40)) if trial % 10 else 500
        k = int(rng.integers(2, min(n, 40 if trial % 10 else 8) + 1))
        labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
        tracker = partition.KeyTracker(labels, k)
        for _ in range(20):
            keys += 1
            bad += tracker.key != old_partition.canonical_key(labels)
            moves = list(iter_moves(labels, np.bincount(labels, minlength=k), k))
            if not moves:
                break
            for m in moves[:: max(1, len(moves) // 50)]:
                work = labels.copy()
                work[m.point] = m.dst
                keys += 1
                bad += tracker.moved(m.point, m.dst) != old_partition.canonical_key(work)
            m = moves[int(rng.integers(len(moves)))]
            tracker.commit(m.point, m.dst, tracker.moved(m.point, m.dst))
            labels[m.point] = m.dst
    return keys, bad


def compare_ari(old_evaluation, rng) -> tuple[int, int]:
    """(ARIs compared, mismatches) of ``adjusted_rand``: one-pair calls and
    the rows of stacked calls, each against REV's one-pair call."""
    values = bad = 0
    for trial in range(4000):
        n = int(rng.integers(2, 60 if trial % 4 else 2000))
        a = rng.integers(0, int(rng.integers(1, 8)), n)
        stack = rng.integers(0, int(rng.integers(1, 8)), (int(rng.integers(1, 6)), n))
        noise = bool(trial % 2)
        a[:2] = 1  # at least two points survive the noise exclusion
        old = [old_evaluation.adjusted_rand(a, row, exclude_noise=noise) for row in stack]
        single = [evaluation.adjusted_rand(a, row, exclude_noise=noise) for row in stack]
        stacked = evaluation.adjusted_rand(a, stack, exclude_noise=noise)
        values += 2 * len(old)
        bad += sum(x != y for x, y in zip(old, single)) + sum(x != y for x, y in zip(old, stacked))
    return values, bad


def compare_dissimilarity(old_evaluation, rng) -> tuple[int, int]:
    """(matrix cells compared, mismatches) of ``method_dissimilarity`` for
    all three aggregators, on ragged results."""
    aggregators = ("mean", "median", "q3")
    cells = bad = 0
    for trial in range(200):
        n_units = int(rng.integers(1, 41))
        sizes = rng.integers(2, 200, n_units)
        results = {}
        for m in range(int(rng.integers(2, 13))):
            # every method has unit 0, so each pair shares one
            have = [0, *np.flatnonzero(rng.random(n_units - 1) < 0.7) + 1]
            labels = {f"d{u}": rng.integers(0, int(rng.integers(1, 6)), sizes[u]) for u in have}
            results[f"m{m}"] = {u: lab.tolist() for u, lab in labels.items()} if trial % 2 else labels
        _, old = old_evaluation.method_dissimilarity(results, aggregators)
        _, new = evaluation.method_dissimilarity(results, aggregators)
        for agg in aggregators:
            cells += new[agg].size
            bad += int((old[agg] != new[agg]).sum())
    return cells, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    args = ap.parse_args(argv)
    old = load_revision(args.rev, "evaluators.py", "cviopt.cvi")
    old_optim = load_revision(args.rev, "optim.py", "cviopt")
    old_geometry = load_revision(args.rev, "geometry.py", "cviopt")
    old_nngraph = load_revision(args.rev, "nngraph.py", "cviopt")
    old_partition = load_revision(args.rev, "partition.py", "cviopt")
    old_evaluation = load_revision(args.rev, "evaluation.py", "cviopt")
    total = total_bad = 0
    for text in SPECS:
        spec = parse_spec(text)
        cells = bad = 0
        rng = np.random.default_rng(zlib.crc32(text.encode()))
        for limit, block in MODES:
            geometry.DENSE_LIMIT, geometry._BLOCK_CELLS = limit, block
            for ds, k in datasets(rng):
                near_singletons = np.minimum(np.arange(ds.n), k - 1)
                random = np.arange(ds.n) % k
                rng.shuffle(random)
                for labels in (random, near_singletons):
                    part = from_labels(labels, k)
                    c, b = compare(
                        old.make_evaluator(spec, ds, part),
                        evaluators.make_evaluator(spec, ds, part),
                        rng,
                        6,
                    )
                    cells, bad = cells + c, bad + b
        geometry.DENSE_LIMIT, geometry._BLOCK_CELLS = MODES[0]
        print(f"{text:24s} {cells:9d} cells {bad:6d} mismatches", flush=True)
        total, total_bad = total + cells, total_bad + bad
    print(f"total {total} cells, {total_bad} mismatches")
    values, evaluate_bad = compare_evaluate(old, np.random.default_rng(9))
    print(f"evaluate {values} values, {evaluate_bad} mismatches")
    calls, kmeans_bad = compare_kmeans(old_optim, np.random.default_rng(1))
    print(f"lloyd_kmeans {calls} calls, {kmeans_bad} mismatches")
    edges, emst_bad = compare_emst(old_geometry, np.random.default_rng(2))
    print(f"emst {edges} edges, {emst_bad} mismatches")
    graphs, knn_bad = compare_knn(old_nngraph, np.random.default_rng(10))
    print(f"knn {graphs} graphs, {knn_bad} mismatches")
    climbs, climb_bad = compare_climb(old_optim, np.random.default_rng(3))
    print(f"tabu_hill_climb {climbs} climbs, {climb_bad} mismatches")
    runs, optimise_bad = compare_optimise(old_optim, np.random.default_rng(5))
    print(f"optimise_dataset {runs} runs, {optimise_bad} mismatches")
    vectors, relabel_bad = compare_relabel(old_partition, np.random.default_rng(4))
    print(f"relabel_first_occurrence {vectors} vectors, {relabel_bad} mismatches")
    keys, keys_bad = compare_keys(old_partition, np.random.default_rng(8))
    print(f"keys {keys} keys, {keys_bad} mismatches")
    aris, ari_bad = compare_ari(old_evaluation, np.random.default_rng(6))
    print(f"adjusted_rand {aris} values, {ari_bad} mismatches")
    diss_cells, diss_bad = compare_dissimilarity(old_evaluation, np.random.default_rng(7))
    print(f"method_dissimilarity {diss_cells} cells, {diss_bad} mismatches")
    bad = (
        total_bad + evaluate_bad + kmeans_bad + emst_bad + knn_bad + climb_bad + optimise_bad
        + relabel_bad + keys_bad + ari_bad + diss_bad
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
