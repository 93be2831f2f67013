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
    ParameterError,
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


def pair_formula_ari(a, b, exclude_noise=False) -> float:
    """The one-pair formula as it stood before the stack form: a
    contingency table from one bincount of cell codes, exact pair sums and
    one division of Python ints."""
    a, b = np.asarray(a), np.asarray(b)
    if exclude_noise:
        a, b = a[a != 0], b[a != 0]
    n = a.shape[0]

    def pairs(counts):
        return (int(counts.ravel() @ counts.ravel()) - n) // 2

    ncols = int(b.max()) + 1
    table = np.bincount(a * ncols + b, minlength=(int(a.max()) + 1) * ncols)
    sum_t, sum_a, sum_b = pairs(table), pairs(np.bincount(a)), pairs(np.bincount(b))
    cn2 = n * (n - 1) // 2
    num = 2 * (cn2 * sum_t - sum_a * sum_b)
    den = cn2 * (sum_a + sum_b) - 2 * sum_a * sum_b
    return num / den if den else 1.0


def test_ari_stack_rows_equal_single_calls_and_the_pair_formula():
    rng = np.random.default_rng(11)
    for trial in range(20_000):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(1, 7))
        a = rng.integers(0, k, n)
        stack = rng.integers(0, int(rng.integers(1, 7)), (int(rng.integers(1, 6)), n))
        noise = bool(trial % 2)
        if noise:
            a[:2] = 1  # at least two points survive the exclusion
        got = adjusted_rand(a, stack, exclude_noise=noise)
        assert isinstance(got, list) and len(got) == len(stack)
        for row, value in zip(stack, got):
            single = adjusted_rand(a, row, exclude_noise=noise)
            assert type(single) is float
            assert value == single == pair_formula_ari(a, row, noise)


def test_ari_stack_of_lists_and_errors():
    a = [1, 1, 2, 2]
    assert adjusted_rand(a, [[2, 2, 1, 1], [1, 2, 1, 2]]) == [1.0, -0.5]
    assert adjusted_rand(a, [[1, 2, 1, 2]]) == [-0.5]
    with pytest.raises(LengthMismatchError):
        adjusted_rand(a, [[1, 2, 1], [1, 1, 2]])
    with pytest.raises(UndefinedScoreError):
        adjusted_rand([0, 0, 1, 0], [[1, 2, 1, 2], [1, 1, 1, 1]], exclude_noise=True)


def test_row_counts_counts_each_row_apart():
    # cell (r, c) counts the code c in row r; one bincount for all rows
    codes = np.array([[0, 2, 2], [1, 1, 1], [2, 0, 1]])
    assert evaluation._row_counts(codes, 3).tolist() == [[1, 0, 2], [0, 3, 0], [1, 1, 1]]
    assert evaluation._row_counts(codes[:1], 4).tolist() == [[1, 0, 2, 0]]


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
    names, mats = method_dissimilarity(results, ["mean"])
    mat = mats["mean"]
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
        method_dissimilarity(results, ["mean"])


def test_method_dissimilarity_aggregators_differ():
    rng = np.random.default_rng(1)
    results = {
        m: {f"d{i}": rng.integers(0, 3, size=8).tolist() for i in range(5)}
        for m in ("u", "v")
    }
    _, mats = method_dissimilarity(results, ("mean", "median", "q3"))
    assert len({mat[0, 1] for mat in mats.values()}) >= 2


def test_method_dissimilarity_scores_each_pair_once_for_all_aggregators(monkeypatch):
    # one ARI per method pair and shared unit, whatever the aggregators,
    # counted as scored labelings (rows of a stacked call); an unknown
    # aggregator fails before any is computed
    rng = np.random.default_rng(2)
    results = {m: {f"d{i}": rng.integers(0, 3, size=8) for i in range(4)} for m in "uvw"}
    scored = []
    ari = evaluation.adjusted_rand

    def counted(a, b):
        scored.append(len(np.atleast_2d(b)))
        return ari(a, b)

    monkeypatch.setattr(evaluation, "adjusted_rand", counted)
    with pytest.raises(ParameterError):
        method_dissimilarity(results, ("mean", "bogus"))
    assert scored == []
    names, mats = method_dissimilarity(results, ("mean", "median", "q3"))
    assert sum(scored) == 3 * 4
    vals = [[1.0 - ari(results[a][u], results[b][u]) for u in results[a]] for a, b in ("uv", "uw", "vw")]
    for agg, reduce in (("mean", np.mean), ("median", np.median), ("q3", lambda v: np.percentile(v, 75))):
        assert [mats[agg][0, 1], mats[agg][0, 2], mats[agg][1, 2]] == [float(reduce(v)) for v in vals]


def per_pair_dissimilarity(results, aggregators):
    """The pair-at-a-time loop: one ARI call per pair and shared unit, one
    reduction per pair and aggregator."""
    reduce = {"mean": np.mean, "median": np.median, "q3": lambda v: np.percentile(v, 75)}
    names = list(results)
    mats = {agg: np.zeros((len(names), len(names))) for agg in aggregators}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            shared = sorted(set(results[names[i]]) & set(results[names[j]]))
            vals = [1.0 - adjusted_rand(results[names[i]][u], results[names[j]][u]) for u in shared]
            for agg, mat in mats.items():
                mat[i, j] = mat[j, i] = float(reduce[agg](vals))
    return names, mats


def test_method_dissimilarity_equals_the_per_pair_loop_on_ragged_units():
    rng = np.random.default_rng(5)
    aggregators = ("mean", "median", "q3")
    for trial in range(60):
        n_units = int(rng.integers(1, 41))
        sizes = rng.integers(2, 30, n_units)
        # every method has unit 0, so each pair shares at least one
        results = {}
        for m in range(int(rng.integers(2, 9))):
            have = [0, *np.flatnonzero(rng.random(n_units - 1) < 0.7) + 1]
            labels = {f"d{u}": rng.integers(0, int(rng.integers(1, 5)), sizes[u]) for u in have}
            if trial % 2:
                labels = {u: lab.tolist() for u, lab in labels.items()}
            results[f"m{m}"] = labels
        names, mats = method_dissimilarity(results, aggregators)
        ref_names, ref_mats = per_pair_dissimilarity(results, aggregators)
        assert names == ref_names
        for agg in aggregators:
            assert np.array_equal(mats[agg], ref_mats[agg]), (trial, agg)


def test_method_dissimilarity_unequal_lengths_in_a_unit():
    results = {"a": {"d1": [0, 1, 1]}, "b": {"d1": [0, 1, 1]}, "c": {"d1": [0, 1]}}
    with pytest.raises(LengthMismatchError, match="d1"):
        method_dissimilarity(results, ["mean"])


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
