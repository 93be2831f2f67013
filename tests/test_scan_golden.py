"""Exact ``scan()`` values on fixed small inputs, pinned bit for bit.

Most evaluators read ``peek`` as a cell of their ``scan``, so comparing
the two checks a formula against itself; this table pins the bits of
every move formula instead, at d = 2 and at d >= 8 (where sums over the
coordinates may be added in another order), also from starts that hold a
singleton and a two-member cluster, and at k = 2 from an equal start and
one with a two-member cluster.  ``tests/data/scan_golden.json``
holds ``float.hex`` of each cell; regenerate it, only for a deliberate
change of the numbers, with ``PYTHONPATH=src python tests/test_scan_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from cviopt import dataio
from cviopt.cvi import make_evaluator, parse_spec
from cviopt.partition import Move, from_labels

TABLE = Path(__file__).with_name("data") / "scan_golden.json"

SPECS = [
    "BallHall",
    "CalinskiHarabasz",
    "WCNN_3",
    "Silhouette",
    "SilhouetteW",
    "DaviesBouldin",
    *(f"GDunn_d{d}_D{D}" for d in (1, 2, 3, 4, 5) for D in (1, 2, 3)),
    "DuNN_4_Min_Const",
    "DuNN_4_SMin:2_Max",
    "DuNN_4_SMax:1_SMin:2",
    "DuNN_3_Mean_Mean",
    "DuNN_4_Mean_Const",
    "DuNN_4_SMin:2_Mean",
]
# (seed, n, d, k): the datasets, each with a random start
CASES = [(1, 12, 2, 3), (2, 11, 9, 2), (3, 12, 12, 4)]
# the specs whose scans treat singleton and two-member clusters apart, on
# (seed, n, d) datasets with a shuffled k = 5 start of cluster sizes
# SMALL_SIZES: a move out of the pair leaves a singleton, a move into the
# singleton makes a pair
SMALL_SPECS = ["Silhouette", "SilhouetteW", "DaviesBouldin", "GDunn_d4_D3", "GDunn_d5_D3"]
SMALL_CASES = [(4, 12, 2), (5, 12, 9)]
SMALL_SIZES = (1, 2, 3, 3, 3)
# the same specs at k = 2 and d = 2, on (seed, n, d) datasets with an equal
# start and a shuffled one of sizes PAIR_SIZES: a move out of the pair
# leaves a singleton
PAIR_CASES = [(6, 12, 2)]
PAIR_SIZES = (2, 10)
COMMITS = 2


def scans(text: str, seed: int, n: int, d: int, k: int, sizes=None) -> list[str]:
    """The ``scan()`` of the start and after ``COMMITS`` commits of moves
    drawn from the labels alone, each as space-separated hex cells.  The
    start has the cluster ``sizes``, or equal ones."""
    rng = np.random.default_rng(seed)
    ds = dataio.Dataset(rng.normal(size=(n, d)))
    labels = np.arange(n) % k if sizes is None else np.repeat(np.arange(k), sizes)
    rng.shuffle(labels)
    ev = make_evaluator(parse_spec(text), ds, from_labels(labels, k))
    out = [ev.scan()]
    for _ in range(COMMITS):
        lab, sizes = ev.labels, ev.sizes
        movable = np.flatnonzero(sizes[lab] >= 2)
        p = int(movable[rng.integers(len(movable))])
        j = int((lab[p] + 1 + rng.integers(k - 1)) % k)
        ev.commit(Move(p, int(lab[p]), j))
    out.append(ev.scan())
    return [" ".join(float.hex(float(x)) for x in s.ravel()) for s in out]


def key(text: str, case) -> str:
    return f"{text} seed={case[0]} n={case[1]} d={case[2]} k={case[3]}"


def small_key(text: str, case, sizes=SMALL_SIZES) -> str:
    return f"{text} seed={case[0]} n={case[1]} d={case[2]} sizes={','.join(map(str, sizes))}"


def small_scans(text: str, case, sizes=SMALL_SIZES) -> list[str]:
    return scans(text, *case, len(sizes), sizes)


@pytest.mark.parametrize("text", SPECS)
def test_scan_values_match_the_golden_table(text):
    table = json.loads(TABLE.read_text())
    for case in CASES:
        assert scans(text, *case) == table[key(text, case)], key(text, case)


@pytest.mark.parametrize("text", SMALL_SPECS)
def test_scan_values_with_small_clusters_match_the_golden_table(text):
    table = json.loads(TABLE.read_text())
    for case in SMALL_CASES:
        assert small_scans(text, case) == table[small_key(text, case)], small_key(text, case)


@pytest.mark.parametrize("text", SMALL_SPECS)
def test_scan_values_at_k_2_match_the_golden_table(text):
    table = json.loads(TABLE.read_text())
    for case in PAIR_CASES:
        assert scans(text, *case, 2) == table[key(text, (*case, 2))], key(text, (*case, 2))
        pair = small_key(text, case, PAIR_SIZES)
        assert small_scans(text, case, PAIR_SIZES) == table[pair], pair


if __name__ == "__main__":
    TABLE.parent.mkdir(exist_ok=True)
    table = {key(t, c): scans(t, *c) for t in SPECS for c in CASES}
    table |= {small_key(t, c): small_scans(t, c) for t in SMALL_SPECS for c in SMALL_CASES}
    for t in SMALL_SPECS:
        for c in PAIR_CASES:
            table[key(t, (*c, 2))] = scans(t, *c, 2)
            table[small_key(t, c, PAIR_SIZES)] = small_scans(t, c, PAIR_SIZES)
    TABLE.write_text(json.dumps(table, indent=0) + "\n")
