import gzip

import numpy as np
import pytest

from cviopt import dataio
from cviopt.errors import (
    DataFormatError,
    DataParseError,
    DegenerateDataError,
    EmptyInputError,
    LabelRangeError,
    LengthMismatchError,
    NotSurjectiveError,
)


def test_load_dataset_basic(tmp_path):
    path = tmp_path / "toy.data"
    path.write_text("0 0\n1 1\n")
    ds = dataio.load_dataset(path)
    assert (ds.n, ds.d) == (2, 2)
    assert np.array_equal(ds.points, [[0, 0], [1, 1]])


def test_load_dataset_shape(tmp_path):
    path = tmp_path / "m.data"
    path.write_text("\n".join("1 2 3" for _ in range(5)) + "\n")
    ds = dataio.load_dataset(path)
    assert (ds.n, ds.d) == (5, 3)


def test_load_dataset_gzip_roundtrip(tmp_path):
    path = tmp_path / "z.data.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("1.5 2.5\n-3 4e2\n")
    ds = dataio.load_dataset(path)
    assert ds.points[0, 0] == 1.5
    assert ds.points[1, 1] == 400.0


def test_load_dataset_errors(tmp_path):
    ragged = tmp_path / "r.data"
    ragged.write_text("1 2\n3\n")
    with pytest.raises(DataFormatError):
        dataio.load_dataset(ragged)

    bad = tmp_path / "b.data"
    bad.write_text("1 x\n")
    with pytest.raises(DataParseError):
        dataio.load_dataset(bad)

    nonfinite = tmp_path / "nf.data"
    nonfinite.write_text("1 nan\n")
    with pytest.raises(DataParseError):
        dataio.load_dataset(nonfinite)

    empty = tmp_path / "e.data"
    empty.write_text("")
    with pytest.raises(EmptyInputError):
        dataio.load_dataset(empty)


def test_parse_is_locale_independent():
    # float() ignores LC_NUMERIC by language design; pin the contract anyway
    assert float("1.5") == 1.5


def test_load_labels(tmp_path):
    path = tmp_path / "l.labels"
    path.write_text("1\n1\n2\n2\n")
    assert dataio.load_labels(path, 4).tolist() == [1, 1, 2, 2]


def test_load_labels_of_any_length(tmp_path):
    path = tmp_path / "l.labels"
    path.write_text("3\n1\n\n2\n")
    assert dataio.load_labels(path).tolist() == [3, 1, 2]
    with pytest.raises(LengthMismatchError):
        dataio.load_labels(path, 4)


def test_load_labels_noise_marker(tmp_path):
    path = tmp_path / "l.labels"
    path.write_text("0\n1\n2\n")
    lab = dataio.load_labels(path, 3)
    assert lab.tolist() == [0, 1, 2]
    assert lab[0] == 0  # noise


def test_load_labels_errors(tmp_path):
    short = tmp_path / "s.labels"
    short.write_text("1\n1\n")
    with pytest.raises(LengthMismatchError):
        dataio.load_labels(short, 3)

    neg = tmp_path / "n.labels"
    neg.write_text("1\n-2\n")
    with pytest.raises(DataFormatError):
        dataio.load_labels(neg, 2)

    frac = tmp_path / "f.labels"
    frac.write_text("1\n1.5\n")
    with pytest.raises(DataParseError):
        dataio.load_labels(frac, 2)


def test_save_labels_offset_convention(tmp_path):
    path = tmp_path / "out.labels"
    dataio.save_labels([0, 0, 1], path)
    assert path.read_text() == "1\n1\n2\n"


def test_save_then_load_roundtrip(tmp_path):
    path = tmp_path / "rt.labels"
    internal = np.array([0, 2, 1, 1, 0])
    dataio.save_labels(internal, path)
    loaded = dataio.load_labels(path, 5)
    assert np.array_equal(loaded - 1, internal)


def test_save_labels_empty(tmp_path):
    path = tmp_path / "empty.labels"
    dataio.save_labels([], path)
    assert path.read_text() == ""


@pytest.mark.parametrize("name", ["out.labels", "out.labels.gz"])
def test_save_labels_writes_what_a_write_per_label_wrote(tmp_path, name):
    labels = np.random.default_rng(0).integers(0, 12, size=5000)
    old = tmp_path / ("old-" + name)
    with (gzip.open if name.endswith(".gz") else open)(old, "wt", encoding="utf-8") as fh:
        for v in labels:
            fh.write(f"{int(v) + 1}\n")
    new = tmp_path / name
    dataio.save_labels(labels, new)
    read = gzip.decompress if name.endswith(".gz") else bytes
    assert read(new.read_bytes()) == read(old.read_bytes())
    assert np.array_equal(dataio.load_labels(new, len(labels)) - 1, labels)


def test_save_labels_rejects_negative(tmp_path):
    with pytest.raises(LabelRangeError):
        dataio.save_labels([-1, 0], tmp_path / "x.labels")


def test_preprocess_drops_constant_columns():
    ds = dataio.Dataset(np.array([[1.0, 5.0], [1.0, 7.0]]))
    out = dataio.preprocess(ds, seed=0)
    assert out.d == 1
    # surviving column is the jittered second one
    assert np.allclose(out.points[:, 0], [5.0, 7.0], atol=1e-4)


def test_preprocess_jitter_scale():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 3)) * np.array([1.0, 10.0, 100.0])
    ds = dataio.Dataset(pts)
    out = dataio.preprocess(ds, seed=5)
    assert out.points.shape == pts.shape
    sd = pts.std(axis=0, ddof=1)
    delta = np.abs(out.points - pts)
    # |perturbation| <= 10 sigma of the injected noise, far below 1e-5 * sd
    assert (delta <= 1e-5 * sd).all()
    assert delta.max() > 0.0


def test_preprocess_deterministic():
    rng = np.random.default_rng(11)
    ds = dataio.Dataset(rng.normal(size=(50, 4)))
    a = dataio.preprocess(ds, seed=9)
    b = dataio.preprocess(ds, seed=9)
    assert np.array_equal(a.points, b.points)
    c = dataio.preprocess(ds, seed=10)
    assert not np.array_equal(a.points, c.points)


def test_preprocess_column_streams_independent():
    # dropping a constant column must not change the other columns' noise
    rng = np.random.default_rng(2)
    base = rng.normal(size=(30, 3))
    with_const = base.copy()
    with_const[:, 1] = 42.0
    jittered_full = dataio.preprocess(dataio.Dataset(base), seed=1)
    jittered_dropped = dataio.preprocess(dataio.Dataset(with_const), seed=1)
    assert np.array_equal(jittered_full.points[:, 0], jittered_dropped.points[:, 0])
    assert np.array_equal(jittered_full.points[:, 2], jittered_dropped.points[:, 1])


def test_preprocess_shape_idempotent():
    rng = np.random.default_rng(7)
    ds = dataio.Dataset(rng.normal(size=(40, 3)))
    once = dataio.preprocess(ds, seed=0)
    twice = dataio.preprocess(once, seed=1)
    assert twice.d == once.d  # jitter keeps every variance positive


def test_preprocess_degenerate():
    ds = dataio.Dataset(np.full((4, 2), 3.0))
    with pytest.raises(DegenerateDataError):
        dataio.preprocess(ds, seed=0)


def test_reference_set_validation():
    refs = dataio.ReferenceSet([np.array([0, 1, 1, 2]), np.array([1, 1, 2, 2])])
    assert refs.cardinalities == [2, 2]
    assert refs.distinct_cardinalities() == [2]
    with pytest.raises(NotSurjectiveError):
        dataio.ReferenceSet([np.array([1, 1, 3, 3])])  # skips id 2
    with pytest.raises(LengthMismatchError):
        dataio.ReferenceSet([np.array([1, 2]), np.array([1, 2, 2])])
    with pytest.raises(EmptyInputError):
        dataio.ReferenceSet([])
