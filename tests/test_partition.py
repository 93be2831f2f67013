import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_cluster_permutation_relabels,
    apply_move,
    canonicalize,
    enumerate_moves,
    random_surjective_labels,
)
from cviopt import partition
from cviopt.errors import InvalidMoveError, LabelRangeError, NotSurjectiveError
from cviopt.partition import Move, cluster_size_gini, from_labels


def test_from_labels_sizes():
    p = from_labels([0, 0, 1, 1], 2)
    assert p.sizes.tolist() == [2, 2]
    p = from_labels([0, 1, 2, 1], 3)
    assert p.sizes.tolist() == [1, 2, 1]


def test_from_labels_errors():
    with pytest.raises(NotSurjectiveError):
        from_labels([0, 0, 0, 0], 2)
    with pytest.raises(LabelRangeError):
        from_labels([0, 1, 2], 2)


def test_canonicalize_example():
    p = from_labels([1, 1, 0, 1], 2)
    assert canonicalize(p).labels.tolist() == [0, 0, 1, 0]


def test_canonicalize_idempotent():
    p = from_labels([2, 0, 1, 0, 2], 3)
    once = canonicalize(p)
    assert canonicalize(once) == once


@pytest.mark.parametrize("k", [2, 3, 4])
def test_canonicalize_permutation_invariant(k):
    rng = np.random.default_rng(17 + k)
    labels = random_surjective_labels(rng, 9, k)
    base = canonicalize(from_labels(labels, k)).labels
    for relabeled in all_cluster_permutation_relabels(labels, k):
        assert canonicalize(from_labels(relabeled, k)).labels.tolist() == base.tolist()


def test_enumerate_moves_counts():
    assert len(enumerate_moves(from_labels([0, 0, 1, 1], 2))) == 4
    assert len(enumerate_moves(from_labels([0, 1, 1, 1], 2))) == 3
    # n=5, k=3, sizes [1,2,2]: only the 4 points in non-singleton clusters move
    p = from_labels([0, 1, 1, 2, 2], 3)
    assert len(enumerate_moves(p)) == 8


def test_enumerate_moves_order_and_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(2, 5))
        p = from_labels(random_surjective_labels(rng, n, k), k)
        moves = enumerate_moves(p)
        expected = sum(int(p.sizes[p.labels[i]] >= 2) * (k - 1) for i in range(n))
        assert len(moves) == expected <= n * (k - 1)
        keys = [(m.point, m.dst) for m in moves]
        assert keys == sorted(keys)
        for m in moves:
            q = apply_move(p, m)
            assert q.sizes.min() >= 1
            assert q.sizes.sum() == n


def test_apply_move_and_inverse():
    p = from_labels([0, 0, 1, 1], 2)
    q = apply_move(p, Move(1, 0, 1))
    assert q.labels.tolist() == [0, 1, 1, 1]
    back = apply_move(q, Move(1, 1, 0))
    assert back == p


def test_apply_move_errors():
    p = from_labels([0, 1, 1, 1], 2)
    with pytest.raises(InvalidMoveError):
        apply_move(p, Move(0, 0, 1))  # would empty cluster 0
    with pytest.raises(InvalidMoveError):
        apply_move(p, Move(1, 0, 1))  # wrong source
    with pytest.raises(InvalidMoveError):
        apply_move(p, Move(1, 1, 5))  # target out of range


def test_gini_values():
    assert cluster_size_gini(from_labels([0, 0, 1, 1], 2)) == 0.0
    assert cluster_size_gini(from_labels([0, 1, 1, 1], 2)) == 0.5
    p = from_labels([0] * 1 + [1] * 1 + [2] * 8, 3)
    assert cluster_size_gini(p) == pytest.approx(0.7)


def test_gini_extremes_brute_force():
    # max over all size configurations matches one big cluster + singletons
    for n in range(4, 11):
        for k in range(2, n):
            best = 0.0
            for sizes in itertools.product(range(1, n), repeat=k - 1):
                rest = n - sum(sizes)
                if rest < 1:
                    continue
                full = list(sizes) + [rest]
                labels = np.repeat(np.arange(k), full)
                g = cluster_size_gini(from_labels(labels, k))
                best = max(best, g)
                assert 0.0 <= g <= 1.0
            skew = [1] * (k - 1) + [n - k + 1]
            labels = np.repeat(np.arange(k), skew)
            assert cluster_size_gini(from_labels(labels, k)) == pytest.approx(best)
            assert best == pytest.approx((n - k) / n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_moves_preserve_validity(k, data):
    n = data.draw(st.integers(k, 12))
    labels = data.draw(
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n).filter(
            lambda ls: len(set(ls)) == k
        )
    )
    p = from_labels(labels, k)
    for m in enumerate_moves(p):
        q = apply_move(p, m)
        assert np.bincount(q.labels, minlength=k).min() >= 1
        assert q.labels[m.point] == m.dst
        diff = np.flatnonzero(q.labels != p.labels)
        assert diff.tolist() == [m.point]
