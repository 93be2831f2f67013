"""Compare the incremental evaluators of a git revision with the working
tree's, bit for bit.

    PYTHONPATH=src python tools/bitcheck.py REV

Loads ``git show REV:src/cviopt/cvi/evaluators.py`` as a module beside the
current ``cviopt.cvi.evaluators`` (its relative imports resolve to the
current package, so only that file is compared) and, on fixed seeded
datasets, builds both evaluators from the same partition and compares
with ``==``, after each of a few random commits:

- every cell of ``scan()``;
- every valid ``peek``;
- ``value()``, after commits made with and without a prior ``peek`` of
  the move, and after a ``peek`` followed by a ``scan()``.

The datasets come from the test suite's generators in
``tests/conftest.py``: Gaussian, a coarse integer grid (many tied
distances) and raw duplicate points, at d in {1, 2, 8, 12} and k in
{2, 3, 5}; each runs once on the dense distance matrix with the default
row blocks and once on on-demand rows with 64-cell blocks.  Prints the cell count per
spec; exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

from cviopt import geometry
from cviopt.cvi import evaluators, parse_spec
from cviopt.partition import from_labels

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import coarse_grid, duplicate_points, iter_moves, make_dataset  # noqa: E402

SPECS = [
    "BallHall",
    "CalinskiHarabasz",
    "DaviesBouldin",
    "Silhouette",
    "SilhouetteW",
    "WCNN_5",
    "GDunn_d1_D1",
    "GDunn_d2_D1",
    "GDunn_d1_D2",
    "GDunn_d2_D2",
    "GDunn_d4_D1",
    "GDunn_d3_D2",
    "GDunn_d5_D3",
    "DuNN_5_Min_Const",
    "DuNN_5_Max_Const",
    "DuNN_5_SMin:2_Max",
    "DuNN_5_SMin:2_Const",
    "DuNN_5_SMax:2_SMin:1",
    "DuNN_4_SMin:3_SMax:3",
    "DuNN_4_Min_SMin:2",
    "DuNN_4_Max_Min",
    "DuNN_3_Mean_Mean",
]


def load_revision(rev: str):
    """The evaluators module of ``rev``, as ``cviopt.cvi._bitcheck_evaluators``."""
    source = subprocess.run(
        ["git", "show", f"{rev}:src/cviopt/cvi/evaluators.py"],
        check=True, capture_output=True, text=True,
    ).stdout
    spec = importlib.util.spec_from_loader("cviopt.cvi._bitcheck_evaluators", loader=None)
    module = importlib.util.module_from_spec(spec)
    module.__package__ = "cviopt.cvi"
    sys.modules[spec.name] = module
    exec(compile(source, f"{rev}:evaluators.py", "exec"), module.__dict__)
    return module


def compare(old_ev, new_ev, rng, commits: int) -> tuple[int, int]:
    """(cells compared, mismatches) along one walk of random commits."""
    cells = bad = 0

    def check(a, b):
        nonlocal cells, bad
        a, b = np.asarray(a), np.asarray(b)
        cells += a.size
        bad += int((a != b).sum())

    for step in range(commits + 1):
        check(old_ev.value(), new_ev.value())
        check(old_ev.scan(), new_ev.scan())
        moves = list(iter_moves(new_ev.labels, new_ev.sizes, new_ev.k))
        check([old_ev.peek(m) for m in moves], [new_ev.peek(m) for m in moves])
        if step == commits:
            break
        m = moves[int(rng.integers(len(moves)))]
        if step % 3 == 0:  # commit right after peeking the move
            check(old_ev.peek(m), new_ev.peek(m))
        elif step % 3 == 1:  # a scan between the peek and the commit
            check(old_ev.peek(m), new_ev.peek(m))
            new_ev.scan()
        old_ev.commit(m)
        new_ev.commit(m)
    return cells, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    args = ap.parse_args(argv)
    old = load_revision(args.rev)
    modes = [(geometry.DENSE_LIMIT, geometry._BLOCK_CELLS), (8, 64)]
    total = total_bad = 0
    for text in SPECS:
        spec = parse_spec(text)
        cells = bad = 0
        rng = np.random.default_rng(zlib.crc32(text.encode()))
        for limit, block in modes:
            geometry.DENSE_LIMIT, geometry._BLOCK_CELLS = limit, block
            for make in (make_dataset, coarse_grid, duplicate_points):
                for d in (1, 2, 8, 12):
                    for k in (2, 3, 5):
                        ds = make(rng, int(rng.integers(30, 70)), d)
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
        geometry.DENSE_LIMIT, geometry._BLOCK_CELLS = modes[0]
        print(f"{text:24s} {cells:9d} cells {bad:6d} mismatches", flush=True)
        total, total_bad = total + cells, total_bad + bad
    print(f"total {total} cells, {total_bad} mismatches")
    return 1 if total_bad else 0


if __name__ == "__main__":
    sys.exit(main())
