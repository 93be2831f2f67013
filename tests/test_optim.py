import time

import numpy as np
import pytest
from scipy import stats

from conftest import (
    apply_move,
    climb_by_peek,
    coarse_grid,
    counted_kmeans,
    duplicate_points,
    enumerate_moves,
    k_partitions,
    kmeans_by_restart,
    make_dataset,
    random_surjective_labels,
    wcss,
)
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


def test_random_partition_keeps_the_unbounded_stream():
    # every draw that ends within the bound is the plain rejection loop's,
    # and leaves the generator where that loop does
    for n, k in [(6, 2), (5, 5), (30, 20), (200, 7)]:
        ours, loop = np.random.default_rng(n * k), np.random.default_rng(n * k)
        for _ in range(3):
            expected = random_surjective_labels(loop, n, k)
            assert random_partition(n, k, ours).labels.tolist() == expected.tolist()
        assert ours.bit_generator.state == loop.bit_generator.state


def test_random_partition_gives_up_when_k_nears_n():
    # about one draw in 1e9 is surjective at n = 30, k = 28
    t0 = time.perf_counter()
    with pytest.raises(GenerationError):
        random_partition(30, 28, 0)
    assert time.perf_counter() - t0 < 30.0


def test_random_surjective_labels_gives_up_when_k_nears_n():
    # the helper the oracle tests draw their labelings from is bounded too
    t0 = time.perf_counter()
    with pytest.raises(GenerationError):
        random_surjective_labels(np.random.default_rng(0), 200, 199)
    assert time.perf_counter() - t0 < 30.0


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


def test_lloyd_kmeans_needs_a_restart_and_an_iteration(x4):
    for kw in ({"restarts": 0}, {"max_iter": 0}, {"restarts": -1}):
        with pytest.raises(ParameterError):
            lloyd_kmeans(x4, 2, rng=0, **kw)


@pytest.mark.parametrize("make", (make_dataset, coarse_grid, duplicate_points))
@pytest.mark.parametrize("d", (1, 2, 3, 8))
def test_lockstep_kmeans_equals_the_per_restart_loop(make, d):
    """Same labels and the same generator state afterwards, bit for bit,
    as the restarts run one after another; on raw duplicates k exceeds the
    distinct points, so empty clusters are repaired."""
    rng = np.random.default_rng(d)
    repairs = 0
    for restarts in (1, 2, 10, 12):
        for max_iter in (1, 2, 300):
            ds = make(rng, int(rng.integers(20, 80)), d)
            distinct = len(np.unique(ds.points, axis=0))
            k = distinct + 2 if make is duplicate_points else int(rng.integers(2, 7))
            seed = int(rng.integers(2**32))
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want, fixed = kmeans_by_restart(ds, k, restarts, want_rng, max_iter)
            got = lloyd_kmeans(ds, k, restarts=restarts, rng=got_rng, max_iter=max_iter)
            assert np.array_equal(got.labels, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            repairs += fixed
    assert repairs > 0 or make is not duplicate_points


@pytest.mark.parametrize("d, sites, step", ((1, 12, 0.1), (2, 4, 0.3)))
def test_lockstep_kmeans_adds_each_cluster_in_point_order(d, sites, step):
    """Raw points on a grid of ``sites`` per axis in steps of ``step``: tied
    distances, and cluster sums that depend on the order their members are
    added in, so that centres an ulp off the per-cluster means move labels
    in some of these runs."""
    rng = np.random.default_rng(d)
    for _ in range(400):
        ds = dataio.Dataset(rng.integers(0, sites, size=(int(rng.integers(20, 130)), d)) * step)
        k = int(rng.integers(4, 8))
        seed = int(rng.integers(2**32))
        want, _ = kmeans_by_restart(ds, k, 10, np.random.default_rng(seed))
        assert np.array_equal(lloyd_kmeans(ds, k, rng=seed).labels, want)


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


def test_climb_visits_no_partition_twice(monkeypatch):
    # instrumented rerun of the selection loop: the tabu keys are the
    # canonical forms of the committed partitions, and pairwise distinct
    rng = np.random.default_rng(23)
    ds = make_dataset(rng, 8, 2)
    spec = parse_spec("Silhouette")

    seen, committed = [], []
    original_add, original_commit = TabuList.add, cvi.CVIEvaluator.commit

    def spy(self, key):
        seen.append(key)
        original_add(self, key)

    def commit_spy(self, m):
        original_commit(self, m)
        committed.append(canonical_key(self.labels))

    monkeypatch.setattr(TabuList, "add", spy)
    monkeypatch.setattr(cvi.CVIEvaluator, "commit", commit_spy)
    tabu_hill_climb(spec, ds, [random_partition(8, 2, rng) for _ in range(2)], P=30)
    assert seen == committed
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


def test_optimise_dataset_leaves_out_candidates_it_cannot_draw():
    # k near n: no random or vantage-point candidate can be drawn, so
    # the climb starts from k-means alone
    ds = make_dataset(np.random.default_rng(9), 30, 2)
    spec = parse_spec("CalinskiHarabasz")
    best, trace = optimise_dataset(spec, ds, 28, seed=0, P=5)
    assert trace.candidate_count == 1
    assert best.k == 28


def test_optimise_dataset_stops_drawing_from_a_failed_stream(monkeypatch):
    # one failed draw per stream: the random stream and the vantage
    # fallback each stop, the vantage-point draws go on
    draws, vantage = [], []

    def no_random(n, k, rng):
        draws.append(rng)
        raise GenerationError("no surjective draw")

    def no_vantage(ds, k, V, rng):
        vantage.append(rng)
        raise GenerationError("no surjective vantage draw")

    monkeypatch.setattr(optim, "random_partition", no_random)
    monkeypatch.setattr(optim, "vantage_point_partition", no_vantage)
    ds = make_dataset(np.random.default_rng(9), 12, 2)
    _, trace = optimise_dataset(parse_spec("CalinskiHarabasz"), ds, 3, seed=0, P=5)
    assert trace.candidate_count == 1
    assert len(draws) == 2 and draws[0] is not draws[1]
    assert len(vantage) == 5 and draws[1] is vantage[0]


def test_optimise_dataset_draws_a_pool_once_per_dataset_and_arguments(monkeypatch):
    points = make_dataset(np.random.default_rng(5), 40, 2).points
    ds = dataio.Dataset(points)
    calls = counted_kmeans(monkeypatch)
    kw = dict(seed=3, P=5, n_random=2, n_vantage=2)
    optimise_dataset(parse_spec("CalinskiHarabasz"), ds, 3, **kw)
    best, trace = optimise_dataset(parse_spec("Silhouette"), ds, 3, **kw)
    assert calls == [3]  # the second spec reuses the first one's pool
    fresh, fresh_trace = optimise_dataset(parse_spec("Silhouette"), dataio.Dataset(points), 3, **kw)
    assert calls == [3, 3]
    assert np.array_equal(best.labels, fresh.labels) and trace == fresh_trace
    # any other seed, k or restart count draws afresh
    spec = parse_spec("BallHall")
    optimise_dataset(spec, ds, 3, **dict(kw, seed=4))
    optimise_dataset(spec, ds, 4, **kw)
    optimise_dataset(spec, ds, 3, **kw, kmeans_restarts=2)
    assert calls == [3, 3, 3, 4, 3]


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


def test_optimise_dataset_skips_files_with_a_label_gap(x4, tmp_path):
    # labels {1, 3} have the right maximum for k = 3 but leave cluster 2 empty
    cand_dir = tmp_path / "cands"
    cand_dir.mkdir()
    (cand_dir / "gap.labels").write_text("1\n1\n3\n3\n")
    (cand_dir / "k3.labels").write_text("1\n2\n3\n3\n")
    best, trace = optimise_dataset(
        parse_spec("CalinskiHarabasz"),
        x4,
        3,
        external_candidate_dirs=[str(cand_dir)],
        n_random=0,
        n_vantage=0,
        kmeans_restarts=0,
    )
    assert trace.candidate_count == 1
    assert best.k == 3


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


class _Picked(Exception):
    """Raised by ``TableEvaluator.commit`` with the move the climb chose."""


class TableEvaluator:
    """An evaluator whose ``scan()`` is a fixed table; its first commit
    ends the climb."""

    def __init__(self, part, table):
        self.labels, self.sizes, self.k = part.labels, part.sizes, part.k
        self.table = table

    def scan(self):
        return self.table

    def peek(self, m):
        return self.table[m.point, m.dst]

    def commit(self, m):
        raise _Picked(m.point, m.dst)


def climb_pick(monkeypatch, labels, table, visited):
    """(point, target) of the first move ``optim._climb`` makes from
    ``labels`` over the scan table ``table``, with the label vectors
    ``visited`` already tabu; None when it makes none."""
    tabu = TabuList()
    for lab in visited:
        tabu.add(canonical_key(lab))
    monkeypatch.setattr(optim, "TabuList", lambda: tabu)
    monkeypatch.setattr(optim, "make_evaluator", lambda spec, ds, cand: TableEvaluator(cand, table))
    part = from_labels(labels, table.shape[1])
    try:
        optim._climb(None, None, [part], [0.0], 1, optim.OptimTrace())
    except _Picked as picked:
        return picked.args
    return None


def sorted_pick(labels, table, visited):
    """The selection rule before ``argmax``: the first non-tabu cell, with
    a value > -inf, of a stable descending sort of the table."""
    keys = {canonical_key(lab) for lab in visited}
    vals = table.ravel()
    for cell in np.argsort(-vals, kind="stable"):
        if not vals[cell] > -np.inf:
            return None
        p, j = divmod(int(cell), table.shape[1])
        work = np.array(labels)
        work[p] = j
        if canonical_key(work) not in keys:
            return p, j
    return None


def scan_table(labels, k, fill):
    """A scan-shaped table: ``fill`` in every valid move's cell, -inf in
    own-cluster cells and in the rows of singleton clusters."""
    labels = np.asarray(labels)
    table = np.full((len(labels), k), fill, dtype=float)
    table[np.arange(len(labels)), labels] = -np.inf
    table[np.bincount(labels, minlength=k)[labels] < 2] = -np.inf
    return table


def moved(labels, p, j):
    out = np.array(labels)
    out[p] = j
    return out


LABELS = [0, 0, 1, 1, 2, 2]
VALID = [(p, j) for p in range(6) for j in range(3) if j != LABELS[p]]


def hand_tables():
    """Cases of (table, visited, expected pick) over LABELS."""
    ties = scan_table(LABELS, 3, 1.0)
    yield pytest.param(ties, [], (0, 1), id="ties")
    yield pytest.param(ties, [moved(LABELS, 0, 1)], (0, 2), id="ties, first tabu")
    zeros = scan_table(LABELS, 3, -1.0)
    zeros[2, 0], zeros[1, 2], zeros[4, 1] = 0.0, -0.0, 0.0
    yield pytest.param(zeros, [], (1, 2), id="+0.0 beside -0.0")
    yield pytest.param(zeros, [moved(LABELS, 1, 2)], (2, 0), id="+0.0 beside -0.0, -0.0 tabu")
    nan = scan_table(LABELS, 3, np.nan)
    nan[3, 0], nan[5, 1] = -5.0, -5.0
    yield pytest.param(nan, [], (3, 0), id="NaN ahead of every value")
    yield pytest.param(scan_table(LABELS, 3, np.nan), [], None, id="NaN and -inf only")
    yield pytest.param(scan_table(LABELS, 3, -np.inf), [], None, id="-inf only")
    inf = scan_table(LABELS, 3, 2.0)
    inf[1, 1], inf[4, 0], inf[0, 2] = np.inf, np.inf, np.nan
    yield pytest.param(inf, [], (1, 1), id="+inf")
    yield pytest.param(inf, [moved(LABELS, 1, 1)], (4, 0), id="+inf, first tabu")
    every = [moved(LABELS, p, j) for p, j in VALID]
    yield pytest.param(ties, every, None, id="every cell tabu")
    finite = [moved(LABELS, p, j) for p, j in VALID if (p, j) not in {(1, 1), (4, 0)}]
    yield pytest.param(inf, finite, (1, 1), id="every finite cell tabu")
    yield pytest.param(inf, every, None, id="every finite cell and +inf tabu")


@pytest.mark.parametrize("table, visited, expected", hand_tables())
def test_climb_picks_the_first_best_non_tabu_cell(monkeypatch, table, visited, expected):
    assert sorted_pick(LABELS, table, visited) == expected
    assert climb_pick(monkeypatch, LABELS, table, visited) == expected


def test_climb_pick_matches_a_stable_sort_on_random_tables(monkeypatch):
    # few distinct values, so most tables tie; a random share of moves tabu
    rng = np.random.default_rng(14)
    values = np.array([-1.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.0, np.nan, -np.inf, np.inf])
    picks = set()
    for _ in range(300):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 9))
        labels = random_surjective_labels(rng, n, k)
        valid = np.isfinite(scan_table(labels, k, 0.0))
        table = np.where(valid, rng.choice(values, size=(n, k)), -np.inf)
        visited = [moved(labels, p, j) for p in range(n) for j in range(k) if rng.random() < 0.4]
        expected = sorted_pick(labels, table, visited)
        assert climb_pick(monkeypatch, labels, table, visited) == expected
        picks.add(expected is None)
    assert picks == {True, False}
