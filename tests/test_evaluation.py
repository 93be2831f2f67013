import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_ari, set_partitions
from cviopt import dataio, evaluation
from cviopt.errors import (
    ContractViolationError,
    LengthMismatchError,
    MissingOverlapError,
    UndefinedScoreError,
)
from cviopt.evaluation import (
    adjusted_rand,
    best_reference_score,
    clamp_score,
    complete_linkage,
    method_dissimilarity,
)


def test_ari_relabeling_invariance():
    assert adjusted_rand([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0
    assert adjusted_rand([1, 1, 2, 2], [7, 7, 9, 9]) == 1.0


def test_ari_worked_example():
    assert adjusted_rand([1, 1, 2, 2], [1, 2, 1, 2]) == -0.5
    assert clamp_score(adjusted_rand([1, 1, 2, 2], [1, 2, 1, 2])) == 0.0


def test_ari_noise_exclusion():
    ref = [0, 1, 1, 2, 2]
    assert adjusted_rand(ref, [9, 1, 1, 2, 2], exclude_noise=True) == 1.0
    # a candidate that merges the noise point into cluster 1: still perfect
    # once the noise point is dropped, imperfect otherwise
    cand = [1, 1, 1, 2, 2]
    assert adjusted_rand(ref, cand, exclude_noise=True) == 1.0
    assert adjusted_rand(ref, cand) < 1.0


def test_ari_errors():
    with pytest.raises(LengthMismatchError):
        adjusted_rand([1, 2], [1, 2, 3])
    with pytest.raises(UndefinedScoreError):
        adjusted_rand([0, 0, 1], [1, 2, 3], exclude_noise=True)


def test_ari_exhaustive_small_n_exact():
    for n in range(2, 6):
        parts = [list(p) for p in set_partitions(n)]
        for a in parts:
            for b in parts:
                assert adjusted_rand(a, b) == brute_ari(a, b)


def test_ari_self_similarity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 4, size=n).tolist()
        assert adjusted_rand(labels, labels) == 1.0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=12), st.data())
def test_ari_matches_brute_force_and_is_symmetric(a, data):
    b = data.draw(st.lists(st.integers(0, 4), min_size=len(a), max_size=len(a)))
    assert adjusted_rand(a, b) == brute_ari(a, b)
    assert adjusted_rand(a, b) == adjusted_rand(b, a)


def test_clamp():
    assert clamp_score(-0.5) == 0.0
    assert clamp_score(0.73) == 0.73
    assert clamp_score(1.0) == 1.0


def test_best_reference_score():
    refs = dataio.ReferenceSet([np.array([1, 1, 2, 2])])
    assert best_reference_score({2: [0, 0, 1, 1]}, refs) == 1.0

    refs2 = dataio.ReferenceSet([np.array([1, 1, 2, 2]), np.array([1, 2, 1, 2])])
    out = {2: [0, 0, 1, 1]}
    # ARI 1.0 against the first reference, clamped 0 against the second
    assert best_reference_score(out, refs2) == 1.0

    refs3 = dataio.ReferenceSet([np.array([1, 1, 2, 2]), np.array([1, 1, 2, 3])])
    with pytest.raises(ContractViolationError):
        best_reference_score({2: [0, 0, 1, 1]}, refs3)  # no k=3 output


def test_best_reference_score_equal_k_refs():
    # one output scored against both same-cardinality references, max wins
    refs = dataio.ReferenceSet([np.array([1, 1, 2, 2]), np.array([2, 2, 1, 1])])
    assert best_reference_score({2: [1, 1, 0, 0]}, refs) == 1.0


def test_method_dissimilarity_hand_example():
    results = {
        "a": {"d1": [0, 0, 1, 1], "d2": [0, 1, 0, 1]},
        "b": {"d1": [1, 1, 0, 0], "d2": [0, 1, 0, 1]},
        "c": {"d1": [0, 1, 1, 0], "d2": [0, 0, 1, 1]},
    }
    names, mat = method_dissimilarity(results, "mean")
    assert names == ["a", "b", "c"]
    assert np.allclose(np.diag(mat), 0.0)
    assert np.allclose(mat, mat.T)
    # a vs b agree on both datasets
    assert mat[0, 1] == 0.0
    expected_ac = np.mean(
        [
            1.0 - brute_ari([0, 0, 1, 1], [0, 1, 1, 0]),
            1.0 - brute_ari([0, 1, 0, 1], [0, 0, 1, 1]),
        ]
    )
    assert mat[0, 2] == pytest.approx(expected_ac)


def test_method_dissimilarity_missing_overlap():
    results = {"a": {"d1": [0, 1]}, "b": {"d2": [0, 1]}}
    with pytest.raises(MissingOverlapError):
        method_dissimilarity(results, "mean")


def test_method_dissimilarity_aggregators_differ():
    rng = np.random.default_rng(1)
    results = {
        m: {f"d{i}": rng.integers(0, 3, size=8).tolist() for i in range(5)}
        for m in ("u", "v")
    }
    vals = {}
    for agg in ("mean", "median", "q3"):
        _, mat = method_dissimilarity(results, agg)
        vals[agg] = mat[0, 1]
    assert len(set(vals.values())) >= 2


def test_complete_linkage_hand_example():
    diss = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 3.0], [4.0, 3.0, 0.0]])
    dend = complete_linkage(diss)
    assert dend.merges[0] == (0, 1, 1.0)
    step2 = dend.merges[1]
    assert step2[0] == 2 and step2[1] == 3  # old cluster 2 joins merged 3
    assert step2[2] == 4.0  # max(4, 3)


def test_complete_linkage_two_items():
    dend = complete_linkage(np.array([[0.0, 0.7], [0.7, 0.0]]))
    assert dend.merges == [(0, 1, 0.7)]


def test_complete_linkage_all_equal_ties():
    diss = np.ones((4, 4)) - np.eye(4)
    dend = complete_linkage(diss)
    assert [h for _, _, h in dend.merges] == [1.0, 1.0, 1.0]
    assert dend.merges[0][:2] == (0, 1)  # lowest index pair first


def test_complete_linkage_heights_non_decreasing():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = int(rng.integers(2, 12))
        a = rng.uniform(size=(m, m))
        diss = (a + a.T) / 2
        np.fill_diagonal(diss, 0.0)
        heights = [h for _, _, h in complete_linkage(diss).merges]
        assert all(x <= y for x, y in zip(heights, heights[1:]))


def test_complete_linkage_contract():
    with pytest.raises(ContractViolationError):
        complete_linkage(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ContractViolationError):
        complete_linkage(np.array([[1.0]]))


def test_dendrogram_matches_scipy_reference():
    # independent route: scipy's complete linkage on the same matrix
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import squareform

    rng = np.random.default_rng(4)
    for _ in range(5):
        m = int(rng.integers(3, 10))
        a = rng.uniform(1, 5, size=(m, m))
        diss = (a + a.T) / 2
        np.fill_diagonal(diss, 0.0)
        ours = complete_linkage(diss)
        ref = linkage(squareform(diss), method="complete")
        assert np.allclose(sorted(h for _, _, h in ours.merges), sorted(ref[:, 2]))


def test_contingency_totals():
    # cell (i, j) counts the points labeled i in a and j in b
    table = evaluation.contingency([1, 1, 2], [1, 2, 2])
    assert table.tolist() == [[0, 0, 0], [0, 1, 1], [0, 0, 1]]
    assert table.sum() == 3
    assert table.sum(axis=1).tolist() == [0, 2, 1]
    assert table.sum(axis=0).tolist() == [0, 1, 2]
