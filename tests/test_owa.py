import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cviopt import owa
from cviopt.cvi import parse_spec
from cviopt.errors import EmptyAggregationError, ParameterError
from cviopt.owa import OWASpec, aggregate, owa_weights


def normal_pdf(x, mu, sigma):
    return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def test_parse_and_str_roundtrip():
    for text in ("Min", "Max", "Mean", "SMin:5", "SMax:3", "Const"):
        assert str(OWASpec.parse(text)) == text
    with pytest.raises(ParameterError):
        OWASpec.parse("SMin")
    with pytest.raises(ParameterError):
        OWASpec.parse("Median")
    with pytest.raises(ParameterError):
        OWASpec("SMin", 0)


@pytest.mark.parametrize(
    "owa_text, reason",
    [
        ("Min:3", "Min takes no delta"),
        ("SMin:0", "SMin needs an integer delta >= 1"),
        ("Median:3", "unknown OWA kind 'Median'"),
        ("SMin:x", "bad OWA spec 'SMin:x'"),
    ],
)
def test_bad_owa_in_a_spec_names_the_spec_and_the_reason(owa_text, reason):
    text = f"DuNN_5_{owa_text}_Min"
    with pytest.raises(ParameterError) as err:
        parse_spec(text)
    assert str(err.value) == f"bad CVI spec {text!r}: {reason}"


def test_weights_mean_min_max():
    assert owa_weights(OWASpec("Mean"), 4).tolist() == [0.25, 0.25, 0.25, 0.25]
    assert owa_weights(OWASpec("Min"), 3).tolist() == [0.0, 0.0, 1.0]
    assert owa_weights(OWASpec("Max"), 3).tolist() == [1.0, 0.0, 0.0]


def test_smin_weights_against_density_formula():
    # w_i = psi(i; z, delta) / sum_{j > z-3delta} psi(j; z, delta), i > z - 3delta
    delta, z = 5, 100
    w = owa_weights(OWASpec("SMin", delta), z)
    assert np.flatnonzero(w).tolist() == list(range(85, 100))  # trailing 15
    dens = np.array([normal_pdf(i, z, delta) for i in range(86, 101)])
    assert np.allclose(w[85:], dens / dens.sum(), rtol=1e-12)
    # unimodal, peaking at the last position (the minimum)
    assert (np.diff(w[85:]) > 0).all()


def test_smax_weights_mirror():
    delta, z = 5, 100
    w_max = owa_weights(OWASpec("SMax", delta), z)
    w_min = owa_weights(OWASpec("SMin", delta), z)
    assert np.allclose(w_max, w_min[::-1], rtol=1e-12)
    assert np.flatnonzero(w_max).tolist() == list(range(15))


def test_weights_sum_to_one_large_z():
    for z in (1, 2, 7, 14, 15, 16, 100, 10**3, 10**6):
        for spec in (
            OWASpec("Min"),
            OWASpec("Max"),
            OWASpec("Mean"),
            OWASpec("SMin", 5),
            OWASpec("SMax", 5),
        ):
            assert abs(owa_weights(spec, z).sum() - 1.0) <= 1e-12


def test_weights_z_below_support_renormalized():
    w = owa_weights(OWASpec("SMin", 5), 7)  # z < 3*delta: all positions used
    assert (w > 0).all()
    assert abs(w.sum() - 1.0) <= 1e-12


def test_aggregate_examples():
    assert aggregate(OWASpec("Min"), [3, 1, 2]) == 1.0
    assert aggregate(OWASpec("Max"), [3, 1, 2]) == 3.0
    assert aggregate(OWASpec("Mean"), [3, 1, 2]) == 2.0
    assert aggregate(OWASpec("Const"), []) == 1.0
    for delta in (1, 2, 5):
        vals = np.full(37, 4.25)
        assert aggregate(OWASpec("SMin", delta), vals) == pytest.approx(4.25, rel=1e-12)
    with pytest.raises(EmptyAggregationError):
        aggregate(OWASpec("Min"), [])


def test_aggregate_matches_weight_vector_dot_product():
    rng = np.random.default_rng(1)
    specs = [
        OWASpec("Min"),
        OWASpec("Max"),
        OWASpec("Mean"),
        OWASpec("SMin", 2),
        OWASpec("SMax", 2),
        OWASpec("SMin", 5),
    ]
    for _ in range(50):
        vals = rng.normal(size=int(rng.integers(1, 40)))
        desc = np.sort(vals)[::-1]
        for spec in specs:
            direct = aggregate(spec, vals)
            via_weights = float(np.dot(owa_weights(spec, vals.size), desc))
            assert direct == pytest.approx(via_weights, rel=1e-12, abs=1e-12)


def test_ordering_chain_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(300):
        vals = rng.normal(size=int(rng.integers(1, 60))) * 10
        lo, hi = vals.min(), vals.max()
        mean = vals.mean()
        smin = aggregate(OWASpec("SMin", 5), vals)
        smax = aggregate(OWASpec("SMax", 5), vals)
        eps = 1e-12 * max(1.0, abs(hi), abs(lo))
        assert lo - eps <= smin <= mean + eps
        assert mean - eps <= smax <= hi + eps


def test_smax_is_mirror_of_smin():
    rng = np.random.default_rng(3)
    for _ in range(100):
        vals = rng.normal(size=int(rng.integers(1, 50)))
        a = aggregate(OWASpec("SMax", 4), vals)
        b = -aggregate(OWASpec("SMin", 4), -vals)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
    st.sampled_from(["Min", "Max", "Mean", "SMin:3", "SMax:3"]),
)
def test_aggregate_permutation_invariant_and_bounded(values, spec_text):
    spec = OWASpec.parse(spec_text)
    v = aggregate(spec, values)
    shuffled = list(reversed(values))
    assert aggregate(spec, shuffled) == pytest.approx(v, rel=1e-9, abs=1e-9)
    eps = 1e-9 * max(1.0, max(abs(x) for x in values))
    assert min(values) - eps <= v <= max(values) + eps


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=15),
    st.integers(0, 14),
    st.floats(0.001, 10.0),
    st.sampled_from(["Min", "Max", "Mean", "SMin:2", "SMax:2"]),
)
def test_aggregate_monotone(values, idx, bump, spec_text):
    if idx >= len(values):
        idx = idx % len(values)
    spec = OWASpec.parse(spec_text)
    before = aggregate(spec, values)
    raised = list(values)
    raised[idx] += bump
    assert aggregate(spec, raised) >= before - 1e-9 * max(1.0, abs(before))


def test_memoized_weights_are_reused():
    a = owa.smooth_extreme_weights(5, 15)
    b = owa.smooth_extreme_weights(5, 15)
    assert a is b
