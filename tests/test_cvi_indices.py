import re

import numpy as np
import pytest

from conftest import (
    brute_silhouette_scores,
    k_partitions,
    make_dataset,
    random_surjective_labels,
    wcss,
)
from test_acceptance import CLASSIC_SPECS, DUNN_OWA_PAIRS, GDUNN_SPECS
from cviopt import cvi, dataio
from cviopt.cvi import parse_spec
from cviopt.errors import ParameterError
from cviopt.owa import OWASpec
from cviopt.partition import from_labels

MIN, MAX, MEAN, CONST = (
    OWASpec("Min"),
    OWASpec("Max"),
    OWASpec("Mean"),
    OWASpec("Const"),
)
P22 = [0, 0, 1, 1]


def rigid_motion(points, rng):
    d = points.shape[1]
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return points @ q + rng.normal(size=d)


def test_spec_parse_roundtrip():
    for text in (
        "BallHall",
        "CalinskiHarabasz",
        "DaviesBouldin",
        "Silhouette",
        "SilhouetteW",
        "GDunn_d3_D2",
        "DuNN_25_SMin:5_Const",
        "DuNN_5_Mean_Min",
        "WCNN_25",
    ):
        assert str(parse_spec(text)) == text
    with pytest.raises(ParameterError):
        parse_spec("GDunn_d6_D1")
    with pytest.raises(ParameterError):
        parse_spec("DuNN_5_Const_Min")  # Const cannot measure separation
    with pytest.raises(ParameterError):
        parse_spec("Sausage")


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("WCNN_05", "WCNN_5"),
        ("WCNN_+5", "WCNN_5"),
        ("WCNN_ 10", "WCNN_10"),
        ("GDunn_d\u0663_D1", "GDunn_d3_D1"),  # an Arabic-Indic digit three
        ("DuNN_25_SMin:05_Const", "DuNN_25_SMin:5_Const"),
    ],
)
def test_spec_accepts_only_its_canonical_spelling(text, canonical):
    with pytest.raises(ParameterError, match=repr(canonical)):
        parse_spec(text)
    assert str(parse_spec(canonical)) == canonical


@pytest.mark.parametrize("text", ["GDunn__D1", "GDunn_d1_", "GDunn__", "DuNN_5__Min", "WCNN_"])
def test_spec_with_an_empty_part_is_a_parameter_error(text):
    with pytest.raises(ParameterError):
        parse_spec(text)


#: the paper's grid of indices
GRID = [
    *CLASSIC_SPECS,
    *GDUNN_SPECS,
    *(f"DuNN_{m}_{s}_{c}" for m in (5, 10, 25) for s, c in DUNN_OWA_PAIRS),
    *(f"WCNN_{m}" for m in (5, 10, 25)),
]


def _direct(spec, ds, p) -> float:
    """The family's ``indices`` function, called with the spec's fields by name."""
    return {
        "BallHall": lambda: cvi.ball_hall(ds, p),
        "CalinskiHarabasz": lambda: cvi.calinski_harabasz(ds, p),
        "DaviesBouldin": lambda: cvi.davies_bouldin(ds, p),
        "Silhouette": lambda: cvi.silhouette(ds, p),
        "SilhouetteW": lambda: cvi.silhouette_w(ds, p),
        "GDunn": lambda: cvi.gdunn(ds, p, spec.d_variant, spec.big_d_variant),
        "DuNN": lambda: cvi.dunn_nn(ds, p, spec.m, spec.owa_s, spec.owa_c),
        "WCNN": lambda: cvi.wcnn(ds, p, spec.m),
    }[spec.family]()


def test_spec_grid_round_trips_and_evaluates_as_its_index():
    assert len(GRID) == 5 + 15 + 3 * len(DUNN_OWA_PAIRS) + 3
    rng = np.random.default_rng(22)
    ds = make_dataset(rng, 40, 2)
    p = from_labels(random_surjective_labels(rng, 40, 3), 3)
    for text in GRID:
        spec = parse_spec(text)
        assert str(spec) == text
        assert spec.needs_knn == (spec.family in ("DuNN", "WCNN")), text
        assert cvi.evaluate(spec, ds, p) == _direct(spec, ds, p), text


@pytest.mark.parametrize("text", ["GDunn_x1_D1", "WCNN_5_5", "DuNN_5_SMin_Const", "Sausage"])
def test_malformed_spec_is_a_parameter_error_naming_it(text):
    with pytest.raises(ParameterError, match=re.escape(repr(text))):
        parse_spec(text)


@pytest.mark.parametrize(
    "fields",
    [
        {"family": "BallHall", "m": 5},
        {"family": "GDunn", "d_variant": 1, "big_d_variant": 1, "m": 3},
        {"family": "WCNN"},
        {"family": "DuNN", "m": 3, "owa_s": MIN},
    ],
    ids=("stray-m", "gdunn-with-m", "wcnn-without-m", "dunn-without-owa_c"),
)
def test_spec_must_set_exactly_its_familys_fields(fields):
    # a stray field printed away: CVISpec("BallHall", m=5) read "BallHall"
    # but differed from parse_spec("BallHall"), one name for two specs
    with pytest.raises(ParameterError, match=fields["family"]):
        cvi.CVISpec(**fields)


def test_ball_hall(x4):
    assert cvi.ball_hall(x4, from_labels(P22, 2)) == pytest.approx(-0.5)
    # duplicate pairs at identical coordinates: zero dispersion, maximum 0
    dup = dataio.Dataset(np.array([[1.0], [1.0], [5.0], [5.0]]))
    assert cvi.ball_hall(dup, from_labels(P22, 2)) == 0.0


def test_ball_hall_scale_homogeneity(x4):
    p = from_labels(P22, 2)
    base = cvi.ball_hall(x4, p)
    scaled = dataio.Dataset(x4.points * 3.0)
    assert cvi.ball_hall(scaled, p) == pytest.approx(9.0 * base)


def test_calinski_harabasz(x4):
    assert cvi.calinski_harabasz(x4, from_labels(P22, 2)) == pytest.approx(200.0)
    assert cvi.calinski_harabasz(x4, from_labels([0, 1, 0, 1], 2)) == pytest.approx(0.02)


def test_calinski_harabasz_zero_wcss():
    dup = dataio.Dataset(np.array([[1.0], [1.0], [5.0], [5.0]]))
    assert cvi.calinski_harabasz(dup, from_labels(P22, 2)) == float("inf")


def test_ch_argmax_is_wcss_argmin():
    rng = np.random.default_rng(10)
    for _ in range(5):
        n = int(rng.integers(5, 9))
        ds = make_dataset(rng, n, 2)
        parts = list(k_partitions(n, 2))
        ch = [cvi.calinski_harabasz(ds, from_labels(q, 2)) for q in parts]
        w = [wcss(ds.points, q) for q in parts]
        assert int(np.argmax(ch)) == int(np.argmin(w))


def test_davies_bouldin(x4):
    assert cvi.davies_bouldin(x4, from_labels(P22, 2)) == pytest.approx(-0.1)
    # any singleton cluster forces -inf via s_i = inf
    assert cvi.davies_bouldin(x4, from_labels([0, 0, 0, 1], 2)) == float("-inf")


def test_davies_bouldin_translation_invariant(x4):
    p = from_labels(P22, 2)
    shifted = dataio.Dataset(x4.points + 123.0)
    assert cvi.davies_bouldin(shifted, p) == pytest.approx(cvi.davies_bouldin(x4, p))


def test_davies_bouldin_coincident_centroids():
    ds = dataio.Dataset(np.array([[0.0], [2.0], [1.0 - 2.0], [1.0 + 2.0]]))
    # both clusters centered at 1.0
    assert cvi.davies_bouldin(ds, from_labels(P22, 2)) == float("-inf")


def test_silhouette_x4_from_definition(x4):
    # oracle: a_i, b_i straight from the definitions
    expected = np.mean(brute_silhouette_scores(x4.points, np.array(P22)))
    got = cvi.silhouette(x4, from_labels(P22, 2))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx((19 / 21 + 17 / 19) / 2)


def test_silhouette_singleton_convention(x4):
    p = from_labels([0, 0, 0, 1], 2)
    scores = brute_silhouette_scores(x4.points, np.array([0, 0, 0, 1]))
    assert scores[3] == 0.0
    assert cvi.silhouette(x4, p) == pytest.approx(np.mean(scores), rel=1e-12)


def test_silhouette_coincident_clusters_not_positive():
    # clusters whose location multisets coincide: never a positive score
    configs = [
        (np.array([[0.0], [1.0], [0.0], [1.0]]), [0, 0, 1, 1]),
        (np.array([[0.0], [1.0], [0.0], [1.0]]), [0, 1, 1, 0]),
        (np.array([[0.0], [2.0], [5.0]] * 2), [0, 0, 0, 1, 1, 1]),
        (np.array([[0.0, 0.0], [1.0, 1.0]] * 3), [0, 0, 1, 1, 0, 1]),
    ]
    for pts, labs in configs:
        val = cvi.silhouette(dataio.Dataset(pts), from_labels(labs, 2))
        assert val <= 1e-12


def test_silhouette_matches_brute_force_randomized():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(5, 25))
        k = int(rng.integers(2, 5))
        ds = make_dataset(rng, n, 2)
        labels = random_surjective_labels(rng, n, k)
        p = from_labels(labels, k)
        expected = np.mean(brute_silhouette_scores(ds.points, labels))
        assert cvi.silhouette(ds, p) == pytest.approx(expected, rel=1e-9)


def test_silhouette_w(x4):
    p = from_labels(P22, 2)
    # both cluster averages equal the overall mean here
    assert cvi.silhouette_w(x4, p) == pytest.approx(cvi.silhouette(x4, p))


def test_silhouette_w_differs_from_silhouette():
    # a tight pair and a loose triple: cluster averages differ from the
    # pointwise mean, so the unweighted-by-size variant deviates
    pts = np.array([[0.0], [0.1], [10.0], [12.0], [14.0]])
    ds = dataio.Dataset(pts)
    labels = np.array([0, 0, 1, 1, 1])
    p = from_labels(labels, 2)
    scores = brute_silhouette_scores(pts, labels)
    per_cluster = [np.mean([s for s, l in zip(scores, labels) if l == j]) for j in (0, 1)]
    expected = float(np.mean(per_cluster))
    assert cvi.silhouette_w(ds, p) == pytest.approx(expected, rel=1e-9)
    assert cvi.silhouette_w(ds, p) != pytest.approx(cvi.silhouette(ds, p))


def test_silhouette_w_singleton_divisor(x4):
    p = from_labels([0, 0, 0, 1], 2)
    scores = brute_silhouette_scores(x4.points, np.array([0, 0, 0, 1]))
    weighted = sum(s / (3 if l == 0 else 1) for s, l in zip(scores, [0, 0, 0, 1]))
    assert cvi.silhouette_w(x4, p) == pytest.approx(weighted / 1)  # k - s = 1


def test_gdunn_hand_values(x4):
    p = from_labels(P22, 2)
    assert cvi.gdunn(x4, p, 1, 1) == pytest.approx(9.0)
    assert cvi.gdunn(x4, p, 4, 3) == pytest.approx(20.0)
    assert cvi.gdunn(x4, p, 2, 1) == pytest.approx(11.0)
    assert cvi.gdunn(x4, p, 3, 1) == pytest.approx((10 + 11 + 9 + 10) / 4 / 1.0)
    with pytest.raises(ParameterError):
        cvi.gdunn(x4, p, 6, 1)


def test_gdunn_zero_diameter():
    dup = dataio.Dataset(np.array([[1.0], [1.0], [5.0], [5.0]]))
    assert cvi.gdunn(dup, from_labels(P22, 2), 1, 1) == float("inf")


def test_dunn_nn_hand_values(x4):
    p = from_labels(P22, 2)
    assert cvi.dunn_nn(x4, p, 2, MIN, MAX) == pytest.approx(9.0)
    assert cvi.dunn_nn(x4, p, 2, MIN, CONST) == pytest.approx(9.0)
    # mean over the 3 cross edges {10, 9, 10}
    assert cvi.dunn_nn(x4, p, 2, MEAN, CONST) == pytest.approx(29 / 3)


def test_dunn_nn_empty_sides():
    # k = n: all clusters singletons, no within edges
    pts = dataio.Dataset(np.array([[0.0], [1.0], [2.0]]))
    p = from_labels([0, 1, 2], 3)
    assert cvi.dunn_nn(pts, p, 1, MIN, MAX) == float("-inf")
    assert cvi.dunn_nn(pts, p, 1, MIN, CONST) > 0  # Const rescues the ratio


def test_dunn_nn_full_graph_reduces_to_gdunn():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        k = int(rng.integers(2, min(4, n - 1) + 1))
        ds = make_dataset(rng, n, int(rng.integers(1, 4)))
        p = from_labels(random_surjective_labels(rng, n, k), k)
        lhs = cvi.dunn_nn(ds, p, n - 1, MIN, MAX)
        rhs = cvi.gdunn(ds, p, 1, 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_wcnn_hand_values(x4):
    assert cvi.wcnn(x4, from_labels(P22, 2), 1) == 1.0
    assert cvi.wcnn(x4, from_labels([0, 1, 0, 1], 2), 1) == 0.0
    assert cvi.wcnn(x4, from_labels([0, 0, 0, 1], 2), 1) == float("-inf")


def test_wcnn_guard_threshold():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, 20, 2)
    labels = np.array([0] * 3 + [1] * 17)
    p = from_labels(labels, 2)
    assert cvi.wcnn(ds, p, 3) == float("-inf")  # size 3 <= M = 3
    assert np.isfinite(cvi.wcnn(ds, p, 2))  # all sizes > 2


def test_rigid_motion_invariance():
    rng = np.random.default_rng(12)
    specs = [
        "BallHall",
        "CalinskiHarabasz",
        "DaviesBouldin",
        "Silhouette",
        "SilhouetteW",
        "GDunn_d1_D1",
        "GDunn_d3_D2",
        "GDunn_d5_D3",
        "DuNN_3_Min_Max",
        "DuNN_3_SMin:2_Const",
        "WCNN_2",
    ]
    for _ in range(3):
        n = int(rng.integers(8, 25))
        ds = make_dataset(rng, n, 3)
        moved = dataio.Dataset(rigid_motion(ds.points, rng))
        labels = random_surjective_labels(rng, n, 3)
        p = from_labels(labels, 3)
        for text in specs:
            spec = parse_spec(text)
            a = cvi.evaluate(spec, ds, p)
            b = cvi.evaluate(spec, moved, p)
            assert a == pytest.approx(b, rel=1e-7), text


def test_scale_leaves_argmax_unchanged():
    rng = np.random.default_rng(21)
    n = 7
    ds = make_dataset(rng, n, 2)
    scaled = dataio.Dataset(ds.points * 37.0)
    parts = [from_labels(q, 2) for q in k_partitions(n, 2)]
    for text in ("CalinskiHarabasz", "Silhouette", "GDunn_d1_D1", "BallHall"):
        spec = parse_spec(text)
        v1 = [cvi.evaluate(spec, ds, q) for q in parts]
        v2 = [cvi.evaluate(spec, scaled, q) for q in parts]
        assert int(np.argmax(v1)) == int(np.argmax(v2))
