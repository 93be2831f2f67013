import numpy as np
import pytest
from scipy import stats

from conftest import apply_move, climb_by_peek, enumerate_moves, k_partitions, make_dataset, wcss
from cviopt import cvi, dataio, optim
from cviopt.cvi import evaluate, parse_spec
from cviopt.errors import ContractViolationError, GenerationError, ParameterError
from cviopt.optim import (
    TabuList,
    lloyd_kmeans,
    optimise_dataset,
    random_partition,
    resolve_noise,
    tabu_hill_climb,
    vantage_point_partition,
)
from cviopt.partition import canonical_key, from_labels


def test_random_partition_deterministic_and_valid():
    a = random_partition(4, 2, 123)
    b = random_partition(4, 2, 123)
    assert a == b
    assert a.sizes.min() >= 1


def test_random_partition_n_equals_k():
    p = random_partition(5, 5, 0)
    assert sorted(p.labels.tolist()) == [0, 1, 2, 3, 4]


def test_random_partition_uniform_over_label_vectors():
    # n=6, k=2: 62 surjective vectors, each with probability 1/62
    rng = np.random.default_rng(77)
    counts: dict[tuple, int] = {}
    draws = 10_000
    for _ in range(draws):
        p = random_partition(6, 2, rng)
        key = tuple(p.labels.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 2**6 - 2
    observed = np.array(list(counts.values()))
    chi2 = ((observed - draws / 62) ** 2 / (draws / 62)).sum()
    # 61 dof; reject only at the 1e-4 level to keep the test stable
    assert chi2 < stats.chi2.ppf(1 - 1e-4, df=61)


def test_vantage_point_recovers_centers(x4):
    # V=1 and pivots near the two true centers: nearest-pivot assignment
    # recovers the reference; with a fixed seed the call is deterministic
    p = vantage_point_partition(x4, 2, V=1, rng=3)
    assert p.k == 2
    q = vantage_point_partition(x4, 2, V=1, rng=3)
    assert p == q


def test_vantage_point_always_valid():
    rng = np.random.default_rng(5)
    for seed in range(100):
        ds = make_dataset(rng, int(rng.integers(6, 30)), 2)
        p = vantage_point_partition(ds, 3, V=2, rng=seed)
        assert p.sizes.min() >= 1
        assert p.k == 3


def test_vantage_point_generation_failure():
    # two points can never cover three clusters: every draw is rejected
    ds = dataio.Dataset(np.array([[0.0], [1.0]]))
    with pytest.raises(GenerationError):
        vantage_point_partition(ds, 3, V=5, rng=0, max_retries=5)


def test_lloyd_kmeans_x4(x4):
    p = lloyd_kmeans(x4, 2, restarts=10, rng=0)
    assert canonical_key(p.labels) == canonical_key(np.array([0, 0, 1, 1]))
    assert wcss(x4.points, p.labels) == pytest.approx(1.0)


def test_lloyd_kmeans_parameter_guard(x4):
    with pytest.raises(ParameterError):
        lloyd_kmeans(x4, 1)
    with pytest.raises(ParameterError):
        lloyd_kmeans(x4, 5)


def test_lloyd_kmeans_descends_wcss():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ds = make_dataset(rng, 40, 2)
        k = int(rng.integers(2, 5))
        p = lloyd_kmeans(ds, k, restarts=3, rng=rng)
        # Lloyd fixed point: no single relocation lowers WCSS by re-assignment
        base = wcss(ds.points, p.labels)
        rand = random_partition(ds.n, k, rng)
        assert base <= wcss(ds.points, rand.labels) + 1e-9


def test_climb_stays_at_global_optimum(x4):
    spec = parse_spec("CalinskiHarabasz")
    opt = from_labels([0, 0, 1, 1], 2)
    best = tabu_hill_climb(spec, x4, [opt], P=250)
    assert np.array_equal(best.labels, opt.labels)
    # exhaustive check: none of its neighbours does better
    v_best = evaluate(spec, x4, best)
    for m in enumerate_moves(opt):
        assert evaluate(spec, x4, apply_move(opt, m)) <= v_best


def test_climb_reaches_global_optimum_from_bad_start(x4):
    spec = parse_spec("CalinskiHarabasz")
    best = tabu_hill_climb(spec, x4, [from_labels([0, 1, 0, 1], 2)], P=250)
    assert canonical_key(best.labels) == canonical_key(np.array([0, 0, 1, 1]))
    assert evaluate(spec, x4, best) == pytest.approx(200.0)


def test_climb_contract_violations(x4):
    spec = parse_spec("CalinskiHarabasz")
    with pytest.raises(ContractViolationError):
        tabu_hill_climb(spec, x4, [], P=10)
    mixed = [from_labels([0, 0, 1, 1], 2), from_labels([0, 1, 2, 1], 3)]
    with pytest.raises(ContractViolationError):
        tabu_hill_climb(spec, x4, mixed, P=10)


def test_climb_result_is_local_maximum_and_not_worse_than_candidates():
    rng = np.random.default_rng(17)
    for text in ("CalinskiHarabasz", "Silhouette", "GDunn_d1_D1", "DuNN_2_Min_Max"):
        spec = parse_spec(text)
        for _ in range(5):
            n = int(rng.integers(6, 10))
            ds = make_dataset(rng, n, 2)
            cands = [random_partition(n, 2, rng) for _ in range(3)]
            trace = optim.OptimTrace()
            best = tabu_hill_climb(spec, ds, cands, P=50, trace=trace)
            v = evaluate(spec, ds, best)
            assert v >= max(evaluate(spec, ds, c) for c in cands)
            for m in enumerate_moves(best):
                assert evaluate(spec, ds, apply_move(best, m)) <= v
            # incumbent history is non-decreasing
            hist = trace.best_history
            assert all(a <= b for a, b in zip(hist, hist[1:]))


def test_climb_visits_no_partition_twice():
    # instrumented rerun of the selection loop: canonical forms of all
    # committed partitions are pairwise distinct
    rng = np.random.default_rng(23)
    ds = make_dataset(rng, 8, 2)
    spec = parse_spec("Silhouette")

    seen = []
    original_add = TabuList.add

    def spy(self, labels):
        seen.append(canonical_key(labels))
        original_add(self, labels)

    TabuList.add = spy
    try:
        tabu_hill_climb(spec, ds, [random_partition(8, 2, rng) for _ in range(2)], P=30)
    finally:
        TabuList.add = original_add
    assert len(seen) == len(set(seen))
    assert len(seen) > 0


def test_climb_deterministic():
    rng1 = np.random.default_rng(3)
    rng2 = np.random.default_rng(3)
    ds1 = make_dataset(rng1, 12, 2)
    ds2 = make_dataset(rng2, 12, 2)
    spec = parse_spec("DuNN_2_Min_Max")
    c1 = [random_partition(12, 2, 5), random_partition(12, 2, 6)]
    c2 = [random_partition(12, 2, 5), random_partition(12, 2, 6)]
    b1 = tabu_hill_climb(spec, ds1, c1, P=40)
    b2 = tabu_hill_climb(spec, ds2, c2, P=40)
    assert np.array_equal(b1.labels, b2.labels)


def test_resolve_noise_nearest_assignment(x4):
    internal = resolve_noise(x4, np.array([0, 1, 2, 0]))
    assert internal.tolist() == [0, 0, 1, 1]


def test_optimise_dataset_dedups_candidates(x4, tmp_path):
    spec = parse_spec("CalinskiHarabasz")
    # the same partition provided many times via files collapses to m=1,
    # plus generator output
    cand_dir = tmp_path / "cands"
    cand_dir.mkdir()
    for i in range(4):
        (cand_dir / f"c{i}.labels").write_text("1\n1\n2\n2\n")
    best, trace = optimise_dataset(
        spec,
        x4,
        2,
        external_candidate_dirs=[str(cand_dir)],
        seed=0,
        n_random=0,
        n_vantage=0,
        kmeans_restarts=0,
    )
    assert trace.candidate_count == 1
    assert evaluate(spec, x4, best) == pytest.approx(200.0)


def test_optimise_dataset_uses_references(x4):
    refs = dataio.ReferenceSet([np.array([1, 1, 2, 2])])
    spec = parse_spec("GDunn_d1_D1")
    best, trace = optimise_dataset(
        spec, x4, 2, refs=refs, seed=1, n_random=2, n_vantage=1
    )
    assert trace.best_value >= evaluate(spec, x4, from_labels([0, 0, 1, 1], 2))
    assert trace.candidate_count >= 2
    assert trace.best_value == pytest.approx(evaluate(spec, x4, best), rel=1e-9)


def test_optimise_dataset_skips_wrong_cardinality_files(x4, tmp_path):
    cand_dir = tmp_path / "cands"
    cand_dir.mkdir()
    (cand_dir / "k3.labels").write_text("1\n2\n3\n3\n")  # k=3, ignored for k=2
    (cand_dir / "k2.labels").write_text("1\n2\n2\n2\n")
    best, trace = optimise_dataset(
        parse_spec("CalinskiHarabasz"),
        x4,
        2,
        external_candidate_dirs=[str(cand_dir)],
        n_random=0,
        n_vantage=0,
        kmeans_restarts=0,
    )
    assert trace.candidate_count == 1
    assert evaluate(parse_spec("CalinskiHarabasz"), x4, best) == pytest.approx(200.0)


def test_minus_inf_candidates_sort_last_but_still_work():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng, 12, 2)
    spec = parse_spec("WCNN_3")
    bad = from_labels([0] * 11 + [1], 2)  # guard: -inf
    good = from_labels([0] * 6 + [1] * 6, 2)
    best = tabu_hill_climb(spec, ds, [bad, good], P=30)
    assert evaluate(spec, ds, best) >= evaluate(spec, ds, good)


def test_optimizer_at_benchmark_scale():
    # two uniform slabs, benchmark-sized: the d1/D1 fast path (EMST plus
    # incremental diameters) must recover the reference well inside the
    # time budget of a desk run
    import time

    rng = np.random.default_rng(0)
    half = 200
    a = np.column_stack([rng.uniform(0, 3, half), rng.uniform(0, 1, half)])
    b = np.column_stack([rng.uniform(0, 3, half), rng.uniform(1.6, 2.6, half)])
    raw = dataio.Dataset(np.vstack([a, b]))
    ds = dataio.preprocess(raw, 0)
    ref = np.array([1] * half + [2] * half)
    refs = dataio.ReferenceSet([ref])
    t0 = time.perf_counter()
    best, trace = optimise_dataset(parse_spec("GDunn_d1_D1"), ds, 2, refs=refs, seed=0)
    elapsed = time.perf_counter() - t0
    from cviopt.evaluation import adjusted_rand

    assert adjusted_rand(ref, best.labels) == 1.0
    assert trace.tabu_size > 100  # the search actually explored
    assert elapsed < 120.0


def test_all_neighbours_tabu_branch(x4):
    # tiny instance, long patience: the search exhausts all 7 2-partitions
    # of 4 points and must terminate via the all-tabu branch
    spec = parse_spec("CalinskiHarabasz")
    trace = optim.OptimTrace()
    best = tabu_hill_climb(
        spec,
        x4,
        [from_labels([0, 1, 0, 1], 2), from_labels([0, 1, 1, 0], 2)],
        P=10_000,
        trace=trace,
    )
    assert evaluate(spec, x4, best) == pytest.approx(200.0)
    assert trace.tabu_size <= 7


ORACLE_SPECS = [
    "CalinskiHarabasz",
    "BallHall",
    "WCNN_3",
    "DuNN_2_Min_Max",
    "DuNN_5_Min_Const",
    "DuNN_2_Mean_Mean",
    "Silhouette",
    "GDunn_d1_D1",
]


def assert_climb_matches_oracle(spec, ds, candidates, P):
    trace = optim.OptimTrace()
    best = tabu_hill_climb(spec, ds, candidates, P=P, trace=trace)
    ref_best, ref_trace = climb_by_peek(spec, ds, candidates, P)
    assert np.array_equal(best.labels, ref_best.labels)
    assert trace == ref_trace
    return trace


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_climb_matches_per_move_peek_oracle(text):
    rng = np.random.default_rng(list(text.encode()))
    ds = make_dataset(rng, 36, 2)
    candidates = [random_partition(36, 3, rng) for _ in range(3)]
    trace = assert_climb_matches_oracle(parse_spec(text), ds, candidates, P=12)
    assert trace.steps > 0


def test_climb_matches_oracle_until_every_neighbour_is_tabu(x4):
    # x4 has 7 partitions into 2 clusters: the climb runs out of non-tabu
    # neighbours long before its patience
    trace = assert_climb_matches_oracle(
        parse_spec("CalinskiHarabasz"), x4, [from_labels([0, 1, 0, 1], 2)], P=10_000
    )
    assert trace.tabu_size == trace.steps < 10_000


def test_climb_matches_oracle_from_minus_inf_candidates():
    # WCNN_3 rates every partition with a cluster of at most 3 points -inf
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, 12, 2)
    candidates = [from_labels([0] * 3 + [1] * 9, 2), from_labels([0] * 4 + [1] * 8, 2)]
    trace = assert_climb_matches_oracle(parse_spec("WCNN_3"), ds, candidates, P=20)
    assert trace.best_history[0] > float("-inf")
