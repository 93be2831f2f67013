import gc
import gzip
import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import make_dataset
from cviopt import dataio, geometry, nngraph, optim
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


def _outcome(read, path):
    # the loaded array's dtype, shape and bytes, or the exception raised
    try:
        out = read(path)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    out = getattr(out, "points", out)
    return out.dtype, out.shape, out.tobytes()


def _matrix_text():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 3)) * 10.0 ** rng.integers(-300, 300, size=(60, 3))
    x[:4] = [[5e-324, -2.5e-320, 0.0], [-0.0, 1.0, -1.0], [0.5, 5.0, 1e308], [1e-308, 3.0, 7.0]]
    formats = [lambda v: f"{v:.17g}", lambda v: f"{v:.6g}", repr]
    lines = [" ".join(formats[i % 3](float(v)) for v in row) for i, row in enumerate(x)]
    return "\n".join(lines + ["+1 .5 5.", "-0 +0. 1E5"]) + "\n"


LABEL_CORPUS = {
    "plain": "1\n2\n3\n0\n",
    "no-final-newline": "1\n2",
    "empty": "",
    "blank-only": "\n \n",
    "blank-lines": "1\n\n2\n",
    "crlf": "1\r\n2\r\n",
    "cr": "1\r2\r",
    "blanks-around": " 1\n\t2 \n",
    "leading-zeros": "007\n",
    "plus": "+3\n",
    "underscore": "1_0\n",
    "non-ascii-digit": "٣\n",
    "18-digits": "9" * 18 + "\n",
    "19-digits": "9" * 19 + "\n",
    "20-digits": "9" * 20 + "\n",
    "int64-max": f"1\n{2**63 - 1}\n",
    "int64-max-plus-1": f"1\n{2**63}\n",
    "negative": "1\n-2\n",
    "fraction": "1\n1.5\n",
    "two-tokens": "1 2\n",
    "letter": "1\nx\n",
    "many": "".join(f"{v}\n" for v in np.random.default_rng(0).integers(1, 13, size=500)),
}

DATA_CORPUS = {
    "plain": "1 2\n3 4\n",
    "formats": _matrix_text(),
    "no-final-newline": "1 2\n3 4",
    "empty": "",
    "blank-only": "\n \t\n",
    "blank-lines": "1 2\n\n3 4\n\n",
    "crlf": "1 2\r\n3 4\r\n",
    "blanks-around": " 1\t2 \n\t3  4\t\n",
    "vt-ff-blanks": "1\x0b2\n3\x0c4\n",
    "file-separator": "1\x1c2\n3 4\n",
    "ragged": "1 2\n3\n",
    "ragged-same-total": "1 2 3\n4\n5 6\n",
    "nan": "1 nan\n",
    "inf": "inf 1\n",
    "overflow": "1e400 2\n",
    "underscore": "1_000 2\n",
    "letter": "1 x\n",
    "minus-inside": "1-2 3\n",
    "non-ascii-digit": "٣ 1\n",
    "single-column": "1\n2\n3\n",
}


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize(
    "kind, text",
    [("labels", t) for t in LABEL_CORPUS.values()] + [("data", t) for t in DATA_CORPUS.values()],
    ids=[f"labels-{k}" for k in LABEL_CORPUS] + [f"data-{k}" for k in DATA_CORPUS],
)
def test_bulk_read_equals_the_line_loop(tmp_path, kind, text, suffix):
    path = tmp_path / (f"f.{kind}" + suffix)
    raw = text.encode("utf-8")
    path.write_bytes(gzip.compress(raw) if suffix else raw)
    if kind == "labels":
        got = _outcome(dataio.load_labels, path)
        want = _outcome(lambda p: dataio._parse_labels(p, dataio._read_text(p)), path)
    else:
        got = _outcome(dataio.load_dataset, path)
        want = _outcome(lambda p: dataio.Dataset(dataio._parse_matrix(p, dataio._read_text(p))), path)
    assert got == want


def test_plain_files_take_the_bulk_path(tmp_path, monkeypatch):
    labels, data = tmp_path / "l.labels.gz", tmp_path / "d.data"
    dataio.save_labels(np.arange(40) % 7, labels)
    data.write_text(_matrix_text())
    want = (dataio.load_labels(labels), dataio.load_dataset(data).points)
    for name in ("_parse_labels", "_parse_matrix"):
        monkeypatch.setattr(dataio, name, None)
    assert np.array_equal(dataio.load_labels(labels), want[0])
    assert np.array_equal(dataio.load_dataset(data).points, want[1])


def test_label_beyond_int64_is_a_parse_error(tmp_path):
    path = tmp_path / "big.labels"
    path.write_text("1\n99999999999999999999\n")
    with pytest.raises(DataParseError, match=r"big\.labels:2: "):
        dataio.load_labels(path)


UNREADABLE = {
    "bad.labels": b"1\n\xff\n",
    "bad.data": b"1 2\n\xfe 4\n",
    "cut.labels.gz": gzip.compress(b"1\n2\n" * 100)[:-5],
    "cut.data.gz": gzip.compress(b"1 2\n" * 100)[:-5],
    "junk.data.gz": b"1 2\n3 4\n",
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_unreadable_file_is_a_parse_error_naming_it(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(UNREADABLE[name])
    load = dataio.load_labels if ".labels" in name else dataio.load_dataset
    with pytest.raises(DataParseError, match=name.replace(".", r"\.")):
        load(path)


@pytest.mark.parametrize(
    "derive",
    (lambda ds: nngraph.knn_for(ds, 10), geometry.pairwise, geometry.emst),
    ids=("knn_for", "pairwise", "emst"),
)
def test_first_calls_from_several_threads_get_one_object(derive):
    ds = make_dataset(np.random.default_rng(8), 1500, 2)
    barrier = threading.Barrier(6)
    got = []

    def call():
        barrier.wait(timeout=60)
        got.append(derive(ds))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 6 and all(g is got[0] for g in got)


def test_cached_data_is_freed_with_its_dataset():
    ds = make_dataset(np.random.default_rng(9), 40, 2)
    pool = optim._generated_candidates(ds, 3, 0, 2, 2, 2, 2)
    derived = (
        geometry.pairwise(ds),
        geometry.emst(ds)[0],
        nngraph.knn_for(ds, 3),
        nngraph.edges_for(ds, 3),
        pool[0].labels,
    )
    refs = [weakref.ref(obj) for obj in derived]
    del pool, derived
    assert all(ref() is not None for ref in refs)  # held by the dataset
    enabled = gc.isenabled()
    gc.disable()  # freed by reference counting, not by a cycle collection
    try:
        del ds
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
