import csv
import gzip
import json
import os

import numpy as np
import pytest

from conftest import counted_kmeans
from cviopt import cli, dataio
from cviopt.cli import RunConfig, discover_datasets, meta_cluster, run_benchmark, summarize
from cviopt.errors import ConfigError, ParameterError


def write_battery(root):
    """Two tiny datasets: four tight pairs (k=2 or k=4 references) and two
    blobs with a noise-marked reference point."""
    toy = root / "toy"
    toy.mkdir(parents=True)
    rng = np.random.default_rng(0)
    centers = [0.0, 1.0, 10.0, 11.0]
    pts = np.concatenate([c + 0.01 * rng.normal(size=4) for c in centers])
    lines = "\n".join(f"{x:.9f} {y:.9f}" for x, y in zip(pts, rng.normal(size=16) * 0.01))
    (toy / "pairs.data").write_text(lines + "\n")
    k2 = [1] * 8 + [2] * 8
    k4 = [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4
    (toy / "pairs.labels0").write_text("\n".join(map(str, k2)) + "\n")
    (toy / "pairs.labels1").write_text("\n".join(map(str, k4)) + "\n")

    blobs = np.concatenate([rng.normal(size=8) * 0.1, 20 + rng.normal(size=8) * 0.1])
    lines = "\n".join(f"{x:.9f} 0.0" for x in blobs)
    (toy / "blobs.data").write_text(lines + "\n")
    ref = [0] + [1] * 7 + [2] * 8  # first point marked noise
    (toy / "blobs.labels0").write_text("\n".join(map(str, ref)) + "\n")
    return root


def make_config(tmp_path, battery, out_name="out", **overrides):
    cfg = {
        "battery_root": str(battery),
        "output_dir": str(tmp_path / out_name),
        "specs": ["CalinskiHarabasz", "GDunn_d1_D1"],
        "seed": 0,
        "patience": 30,
        "n_random": 2,
        "n_vantage": 1,
        "kmeans_restarts": 2,
    }
    cfg.update(overrides)
    path = tmp_path / f"{out_name}_config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_records(out_dir):
    with open(os.path.join(out_dir, "records.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def run_outputs(out_dir) -> tuple[list[dict], dict]:
    """A run's records without ``seconds``, and the bytes of its label files."""
    rows = [{k: v for k, v in r.items() if k != "seconds"} for r in read_records(out_dir)]
    labels = {}
    for r in rows:
        if r["labels_path"]:
            with open(os.path.join(out_dir, r["labels_path"]), "rb") as fh:
                labels[r["labels_path"]] = fh.read()
    return rows, labels


def test_discover_datasets(tmp_path):
    battery = write_battery(tmp_path / "battery")
    assert discover_datasets(str(battery)) == ["toy/blobs", "toy/pairs"]


def test_battery_paths_takes_numbered_label_files_in_numeric_order(tmp_path):
    suite = tmp_path / "s"
    suite.mkdir()
    for suffix in ("data", "labels0", "labels0.bak", "labels1", "labels1.gz", "labels2", "labels10"):
        (suite / f"x.{suffix}").write_text("")
    data, refs = cli.battery_paths(str(tmp_path), "s/x")
    base = os.path.join(str(tmp_path), "s", "x")
    assert data == base + ".data"
    # a stray backup is no reference; the plain labels1 wins over its .gz
    assert refs == [f"{base}.labels{j}" for j in (0, 1, 2, 10)]


def test_config_validation(tmp_path):
    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(tmp_path, battery, specs=["Nonsense"])
    with pytest.raises(ConfigError):
        RunConfig.load(str(path))
    path2, _ = make_config(tmp_path, battery, bogus_key=1)
    with pytest.raises(ConfigError):
        RunConfig.load(str(path2))


@pytest.mark.parametrize(
    "key, value",
    [
        ("patience", "5"),
        ("seed", 1.5),
        ("jobs", True),
        ("min_component_policy", 1),
        ("specs", "BallHall"),
        ("include", ["toy/pairs", 3]),
        ("candidate_root", 7),
    ],
)
def test_config_value_of_the_wrong_type_is_a_clean_error(tmp_path, capsys, key, value):
    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(tmp_path, battery, **{key: value})
    with pytest.raises(ConfigError, match=key):
        RunConfig.load(str(path))
    assert cli.main(["run", "--config", str(path)]) == 1
    assert f"error: config key {key!r}" in capsys.readouterr().err


def test_config_accepts_every_declared_type(tmp_path):
    battery = write_battery(tmp_path / "battery")
    overrides = {"candidate_root": None, "min_component_policy": False, "include": []}
    path, _ = make_config(tmp_path, battery, **overrides)
    cfg = RunConfig.load(str(path))
    assert cfg.candidate_root is None and cfg.min_component_policy is False and cfg.include == []


def test_run_benchmark_smoke(tmp_path):
    battery = write_battery(tmp_path / "battery")
    path, cfg = make_config(tmp_path, battery)
    rows, failures = run_benchmark(RunConfig.load(str(path)))
    assert failures == 0
    ok = [r for r in rows if r["status"] == "ok"]
    # pairs has k in {2, 4}, blobs has k=2: 3 runs per spec
    assert len(ok) == 6
    for r in ok:
        labels_path = os.path.join(cfg["output_dir"], r["labels_path"])
        assert os.path.exists(labels_path)
        assert 0.0 <= float(r["q"]) <= 1.0
        assert int(r["candidates"]) >= 1
    # the well-separated configurations are recovered perfectly
    pairs_k2 = [r for r in ok if r["dataset"] == "toy/pairs" and r["k"] == "2"]
    assert float(pairs_k2[0]["q"]) == 1.0


def test_run_benchmark_multi_k_and_q_max(tmp_path):
    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(tmp_path, battery, specs=["CalinskiHarabasz"], include=["toy/pairs"])
    rows, _ = run_benchmark(RunConfig.load(str(path)))
    ks = sorted(r["k"] for r in rows if r["status"] == "ok")
    assert ks == ["2", "4"]  # one optimizer run per distinct cardinality


def test_rerun_is_deterministic(tmp_path):
    battery = write_battery(tmp_path / "battery")
    p1, c1 = make_config(tmp_path, battery, out_name="run1")
    p2, c2 = make_config(tmp_path, battery, out_name="run2")
    run_benchmark(RunConfig.load(str(p1)))
    run_benchmark(RunConfig.load(str(p2)))
    r1 = read_records(c1["output_dir"])
    r2 = read_records(c2["output_dir"])
    strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
    assert strip(r1) == strip(r2)
    for rec in r1:
        if rec["status"] != "ok":
            continue
        a = open(os.path.join(c1["output_dir"], rec["labels_path"]), "rb").read()
        b = open(os.path.join(c2["output_dir"], rec["labels_path"]), "rb").read()
        assert a == b


def test_resume_skips_completed(tmp_path):
    battery = write_battery(tmp_path / "battery")
    path, cfg = make_config(tmp_path, battery, specs=["CalinskiHarabasz"])
    rows1, _ = run_benchmark(RunConfig.load(str(path)))
    stamp = {}
    for r in rows1:
        if r["status"] == "ok":
            full = os.path.join(cfg["output_dir"], r["labels_path"])
            stamp[full] = os.path.getmtime(full)
    rows2, _ = run_benchmark(RunConfig.load(str(path)))
    assert len(rows2) == len(rows1)
    for full, t in stamp.items():
        assert os.path.getmtime(full) == t  # untouched on resume


def test_nn_component_sizes_never_below_policy_threshold(tmp_path):
    # every point's M out-neighbours land inside its own component, so a
    # symmetrized M-NN component always has >= M+1 points; the refusal
    # policy is a conservative guard that healthy data cannot trip
    from cviopt import dataio, nngraph

    battery = write_battery(tmp_path / "battery")
    ds = dataio.preprocess(dataio.load_dataset(battery / "toy" / "blobs.data"), 0)
    for m in (1, 3, 7):
        comps = nngraph.connected_components(nngraph.knn_for(ds, m))
        assert np.bincount(comps).min() >= m + 1


def test_nn_policy_skip(tmp_path, monkeypatch):
    battery = write_battery(tmp_path / "battery")
    # force the fragmented-graph report to exercise the refusal branch
    monkeypatch.setattr(cli, "_nn_component_minimum", lambda ds, m: 2)
    path, _ = make_config(tmp_path, battery, specs=["WCNN_3"], include=["toy/blobs"])
    rows, failures = run_benchmark(RunConfig.load(str(path)))
    assert failures == 0
    assert all(r["status"] == "skipped" for r in rows)
    assert "component" in rows[0]["message"]


def test_neighbourhood_budget_skip(tmp_path):
    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(
        tmp_path, battery, specs=["CalinskiHarabasz"], neighbourhood_budget=10
    )
    rows, failures = run_benchmark(RunConfig.load(str(path)))
    assert failures == 0
    assert all(r["status"] == "skipped" for r in rows)
    assert "budget" in rows[0]["message"]


def test_summarize_hand_values():
    rows = [
        {"method": "m", "dataset": f"d{i}", "k": "2", "status": "ok", "q": q}
        for i, q in enumerate(["0.0", "0.5", "1.0"])
    ]
    table = summarize(rows)
    assert len(table) == 1
    assert float(table[0]["mean"]) == 0.5
    assert float(table[0]["median"]) == 0.5
    assert float(table[0]["sd"]) == pytest.approx(np.std([0, 0.5, 1.0]))


def test_summarize_single_record():
    rows = [{"method": "m", "dataset": "d", "k": "2", "status": "ok", "q": "0.7"}]
    t = summarize(rows)[0]
    assert float(t["mean"]) == float(t["median"]) == 0.7
    assert float(t["sd"]) == 0.0


def test_summarize_takes_max_over_k():
    rows = [
        {"method": "m", "dataset": "d", "k": "2", "status": "ok", "q": "0.4"},
        {"method": "m", "dataset": "d", "k": "4", "status": "ok", "q": "0.9"},
    ]
    assert float(summarize(rows)[0]["mean"]) == 0.9


def test_quartile_convention_type7():
    # documented convention: linear interpolation between order statistics
    assert np.percentile([1, 2, 3, 4], 25) == pytest.approx(1.75)
    assert np.percentile([1, 2, 3, 4], 75) == pytest.approx(3.25)


def test_meta_cluster_outputs(tmp_path):
    battery = write_battery(tmp_path / "battery")
    path, cfg = make_config(tmp_path, battery, specs=["CalinskiHarabasz", "BallHall"])
    rows, _ = run_benchmark(RunConfig.load(str(path)))
    written = meta_cluster(rows, cfg["output_dir"])
    assert len(written) == 3  # mean, median, q3
    with open(written[0], newline="") as fh:
        merges = list(csv.DictReader(fh))
    assert len(merges) == 1  # two methods: one merge
    # CH and BallHall both recover these easy datasets: distance 0
    assert float(merges[0]["height"]) == pytest.approx(0.0)


def test_meta_cluster_bad_labels_file_is_a_clean_error(tmp_path, capsys):
    battery = write_battery(tmp_path / "battery")
    path, cfg = make_config(tmp_path, battery, specs=["CalinskiHarabasz", "BallHall"])
    rows, _ = run_benchmark(RunConfig.load(str(path)))
    bad = next(r for r in rows if r["status"] == "ok")
    with open(os.path.join(cfg["output_dir"], bad["labels_path"]), "a") as fh:
        fh.write("1.5\n")
    records = os.path.join(cfg["output_dir"], "records.csv")
    assert cli.main(["meta-cluster", "--records", records]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(": not an integer")


def test_cli_score_command(tmp_path, capsys):
    ref = tmp_path / "ref.labels"
    ref.write_text("1\n1\n2\n2\n")
    cand = tmp_path / "cand.labels"
    cand.write_text("2\n2\n1\n1\n")
    rc = cli.main(["score", "--labels", str(cand), "--refs", str(ref)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Q\t1.000000" in out


def test_cli_cvi_command(tmp_path, capsys):
    data = tmp_path / "d.data"
    data.write_text("0\n1\n10\n11\n")
    labels = tmp_path / "d.labels"
    labels.write_text("1\n1\n2\n2\n")
    rc = cli.main(
        ["cvi", "--data", str(data), "--labels", str(labels), "--spec",
         "CalinskiHarabasz", "--raw"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("CalinskiHarabasz\t200.0")


def test_cli_optimize_command(tmp_path, capsys):
    data = tmp_path / "d.data"
    data.write_text("0\n1\n10\n11\n")
    out_labels = tmp_path / "best.labels"
    rc = cli.main(
        ["optimize", "--data", str(data), "--spec", "CalinskiHarabasz", "--k", "2",
         "--seed", "3", "--out", str(out_labels), "--raw"]
    )
    assert rc == 0
    assert out_labels.read_text() in ("1\n1\n2\n2\n", "2\n2\n1\n1\n")
    assert "objective\t200.0" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file_is_a_clean_error(tmp_path, capsys):
    ref = tmp_path / "ref.labels"
    ref.write_text("1\n2\n")
    rc = cli.main(["score", "--labels", str(tmp_path / "nope.labels"), "--refs", str(ref)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_unreadable_files_are_clean_errors(tmp_path, capsys):
    good = tmp_path / "good.labels"
    good.write_text("1\n2\n")
    cut = tmp_path / "cut.labels.gz"
    cut.write_bytes(gzip.compress(b"1\n2\n" * 50)[:-5])
    big = tmp_path / "big.labels"
    big.write_text("1\n99999999999999999999\n")
    data = tmp_path / "d.data"
    data.write_bytes(b"0\n1\xff\n")
    for argv in (
        ["score", "--labels", str(good), "--refs", str(cut)],
        ["score", "--labels", str(big), "--refs", str(good)],
        ["cvi", "--data", str(data), "--labels", str(good), "--spec", "BallHall"],
    ):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_run_parallel_jobs_match_serial(tmp_path):
    # several specs per dataset: serial jobs share each dataset's set-up
    battery = write_battery(tmp_path / "battery")
    specs = ["BallHall", "WCNN_2", "GDunn_d1_D1", "DuNN_2_Min_Const"]
    p1, c1 = make_config(tmp_path, battery, out_name="serial", specs=specs)
    p2, c2 = make_config(tmp_path, battery, out_name="parallel", specs=specs, jobs=2)
    run_benchmark(RunConfig.load(str(p1)))
    run_benchmark(RunConfig.load(str(p2)))
    rows, labels = run_outputs(c1["output_dir"])
    assert (rows, labels) == run_outputs(c2["output_dir"])
    assert len(rows) == 12 and all(r["status"] == "ok" for r in rows)
    assert len(labels) == 12


def test_run_draws_one_kmeans_per_dataset_and_k(tmp_path, monkeypatch):
    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(tmp_path, battery)
    calls = counted_kmeans(monkeypatch)
    rows, failures = run_benchmark(RunConfig.load(str(path)))
    assert failures == 0 and len(rows) == 6
    # toy/blobs at k = 2, then toy/pairs at k = 2 and 4; the second spec
    # of each dataset climbs from the first one's pools
    assert calls == [2, 2, 4]


def test_run_climbs_every_spec_from_the_pool_of_its_dataset_and_k(tmp_path):
    # uniform points under a random reference: where a short climb ends
    # depends on the starts it is given
    battery = write_battery(tmp_path / "battery")
    rng = np.random.default_rng(1)
    lines = "\n".join(f"{x:.9f} {y:.9f}" for x, y in rng.uniform(size=(40, 2)))
    (battery / "toy" / "uniform.data").write_text(lines + "\n")
    ref = rng.permutation(np.arange(40) % 3) + 1
    (battery / "toy" / "uniform.labels0").write_text("\n".join(map(str, ref)) + "\n")
    path, _ = make_config(tmp_path, battery, patience=2, n_random=3, n_vantage=3)
    cfg = RunConfig.load(str(path))
    rows, _ = run_benchmark(cfg)
    assert len(rows) == 8
    for r in rows:
        ds, refs = cli._set_up(cfg, r["dataset"], {})
        k = int(r["k"])
        best, trace = cli.optim.optimise_dataset(
            cli.parse_spec(r["method"]),
            ds,
            k,
            refs=refs,
            seed=cli.derived_seed(cfg.seed, r["dataset"], "pool", str(k)),
            P=cfg.patience,
            n_random=cfg.n_random,
            n_vantage=cfg.n_vantage,
            vantage_v=cfg.vantage_v,
            kmeans_restarts=cfg.kmeans_restarts,
        )
        labels = dataio.load_labels(os.path.join(cfg.output_dir, r["labels_path"]))
        assert np.array_equal(labels - 1, best.labels)
        assert (r["candidates"], r["tabu_size"]) == (str(trace.candidate_count), str(trace.tabu_size))


def test_resumed_run_with_another_spec_equals_one_run_of_both(tmp_path):
    battery = write_battery(tmp_path / "battery")
    both = ["CalinskiHarabasz", "GDunn_d1_D1"]
    path, _ = make_config(tmp_path, battery, out_name="grown", specs=both[:1])
    run_benchmark(RunConfig.load(str(path)))
    path, grown = make_config(tmp_path, battery, out_name="grown", specs=both)
    run_benchmark(RunConfig.load(str(path)))
    path, whole = make_config(tmp_path, battery, out_name="whole", specs=both)
    run_benchmark(RunConfig.load(str(path)))
    rows, labels = run_outputs(grown["output_dir"])
    assert (rows, labels) == run_outputs(whole["output_dir"])
    assert len(rows) == len(labels) == 6


def counted_loads(monkeypatch) -> list:
    """The paths ``dataio.load_dataset`` is called with, from now on."""
    paths = []
    load = cli.dataio.load_dataset

    def counting(path):
        paths.append(os.path.basename(path))
        return load(path)

    monkeypatch.setattr(cli.dataio, "load_dataset", counting)
    return paths


def test_run_sets_each_dataset_up_once(tmp_path, monkeypatch):
    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(tmp_path, battery, specs=["BallHall", "WCNN_2", "GDunn_d1_D1"])
    loads = counted_loads(monkeypatch)
    rows, failures = run_benchmark(RunConfig.load(str(path)))
    assert failures == 0 and len(rows) == 9
    assert loads == ["blobs.data", "pairs.data"]


def test_data_file_rewritten_between_runs_is_read_afresh(tmp_path, monkeypatch):
    battery = write_battery(tmp_path / "battery")
    loads = counted_loads(monkeypatch)
    path, _ = make_config(tmp_path, battery, specs=["BallHall", "CalinskiHarabasz"])
    assert run_benchmark(RunConfig.load(str(path)))[1] == 0
    bad = battery / "toy" / "blobs.data"
    bad.write_text(bad.read_text().replace("0.0", "0.O", 1))
    path, _ = make_config(tmp_path, battery, out_name="again", specs=["BallHall", "CalinskiHarabasz"])
    rows, failures = run_benchmark(RunConfig.load(str(path)))
    # read again in the second run, and a bad file once per job
    assert loads == ["blobs.data", "pairs.data", "blobs.data", "blobs.data", "pairs.data"]
    assert failures == 2
    assert [(r["dataset"], r["method"], r["status"]) for r in rows if r["status"] != "ok"] == [
        ("toy/blobs", "BallHall", "failed"),
        ("toy/blobs", "CalinskiHarabasz", "failed"),
    ]


@pytest.mark.parametrize(
    "key, value",
    [("n_random", -1), ("n_vantage", -2), ("kmeans_restarts", -1), ("vantage_v", 0)],
)
def test_config_rejects_negative_generator_counts(tmp_path, capsys, key, value):
    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(tmp_path, battery, **{key: value})
    with pytest.raises(ConfigError, match=key):
        RunConfig.load(str(path))
    assert cli.main(["run", "--config", str(path)]) == 1
    assert f"error: {key} must be" in capsys.readouterr().err


def test_config_allows_any_vantage_v_without_vantage_candidates(tmp_path):
    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(tmp_path, battery, n_vantage=0, vantage_v=0, kmeans_restarts=0)
    rows, failures = run_benchmark(RunConfig.load(str(path)))
    assert failures == 0 and all(r["status"] == "ok" for r in rows)


def test_malformed_data_file_becomes_a_failed_row(tmp_path):
    battery = write_battery(tmp_path / "battery")
    bad = battery / "toy" / "blobs.data"
    bad.write_text(bad.read_text().replace("0.0", "0.O", 1))
    runs = []
    for name, jobs in (("serial", 1), ("parallel", 2)):
        path, cfg = make_config(tmp_path, battery, out_name=name, specs=["BallHall"], jobs=jobs)
        assert cli.main(["run", "--config", str(path)]) == 1
        rows = read_records(cfg["output_dir"])
        assert [(r["dataset"], r["k"], r["status"]) for r in rows] == [
            ("toy/blobs", "", "failed"),
            ("toy/pairs", "2", "ok"),
            ("toy/pairs", "4", "ok"),
        ]
        assert rows[0]["message"].startswith("DataParseError: ")
        runs.append([{k: v for k, v in r.items() if k != "seconds"} for r in rows])
    assert runs[0] == runs[1]


def test_rerun_replaces_earlier_failed_and_skipped_rows(tmp_path, capsys):
    battery = write_battery(tmp_path / "battery")
    bad = battery / "toy" / "blobs.data"
    bad.write_text(bad.read_text().replace("0.0", "0.O", 1))
    runs = []
    for name, jobs in (("serial", 1), ("parallel", 2)):
        path, cfg = make_config(
            tmp_path, battery, out_name=name, specs=["BallHall"], jobs=jobs, neighbourhood_budget=20
        )
        for _ in range(3):
            assert cli.main(["run", "--config", str(path)]) == 1
            assert "records: 3 (1 ok, 1 skipped, 1 failed)" in capsys.readouterr().out
            rows = read_records(cfg["output_dir"])
            assert [(r["dataset"], r["k"], r["status"]) for r in rows] == [
                ("toy/blobs", "", "failed"),
                ("toy/pairs", "2", "ok"),
                ("toy/pairs", "4", "skipped"),
            ]
        runs.append([{k: v for k, v in r.items() if k != "seconds"} for r in rows])
    assert runs[0] == runs[1]


def test_optimiser_failure_names_the_exception_type(tmp_path, monkeypatch):
    from cviopt import geometry

    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(tmp_path, battery, specs=["GDunn_d1_D1"], include=["toy/pairs"])
    # above the dense limit the EMST reads on-demand rows: d1 runs
    monkeypatch.setattr(geometry, "DENSE_LIMIT", 8)
    rows, failures = run_benchmark(RunConfig.load(str(path)))
    assert failures == 0
    assert [(r["k"], r["status"]) for r in rows] == [("2", "ok"), ("4", "ok")]

    def fail(*args, **kwargs):
        raise ParameterError("no climb today")

    monkeypatch.setattr(cli.optim, "optimise_dataset", fail)
    path, _ = make_config(
        tmp_path, battery, out_name="failing", specs=["GDunn_d1_D1"], include=["toy/pairs"]
    )
    rows, failures = run_benchmark(RunConfig.load(str(path)))
    assert failures == 2
    assert [(r["k"], r["status"]) for r in rows] == [("2", "failed"), ("4", "failed")]
    assert all(r["message"] == "ParameterError: no climb today" for r in rows)


def test_any_job_exception_becomes_a_failed_row(tmp_path, monkeypatch):
    battery = write_battery(tmp_path / "battery")
    real_optimise = cli.optim.optimise_dataset

    def fail_at_k4(spec, ds, k, **kwargs):
        if k == 4:
            raise ValueError("kernel broke")
        return real_optimise(spec, ds, k, **kwargs)

    monkeypatch.setattr(cli.optim, "optimise_dataset", fail_at_k4)
    runs = []
    for name, jobs in (("serial", 1), ("parallel", 2)):
        path, cfg = make_config(tmp_path, battery, out_name=name, specs=["BallHall"], jobs=jobs)
        rows, failures = run_benchmark(RunConfig.load(str(path)))
        assert failures == 1
        rows = read_records(cfg["output_dir"])
        assert [(r["dataset"], r["k"], r["status"], r["message"]) for r in rows] == [
            ("toy/blobs", "2", "ok", ""),
            ("toy/pairs", "2", "ok", ""),
            ("toy/pairs", "4", "failed", "ValueError: kernel broke"),
        ]
        runs.append([{k: v for k, v in r.items() if k != "seconds"} for r in rows])
    assert runs[0] == runs[1]

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.optim, "optimise_dataset", interrupt)
    path, _ = make_config(tmp_path, battery, out_name="interrupted", specs=["BallHall"])
    with pytest.raises(KeyboardInterrupt):
        run_benchmark(RunConfig.load(str(path)))


def test_interrupted_run_keeps_finished_jobs_and_resumes(tmp_path, monkeypatch):
    battery = write_battery(tmp_path / "battery")
    strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
    path, cfg = make_config(tmp_path, battery, out_name="interrupted")
    real_run_job = cli.run_job
    calls = []

    def interrupted_second_job(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_run_job(*args)

    monkeypatch.setattr(cli, "run_job", interrupted_second_job)
    with pytest.raises(KeyboardInterrupt):
        run_benchmark(RunConfig.load(str(path)))
    kept = read_records(cfg["output_dir"])
    assert [(r["dataset"], r["method"], r["status"]) for r in kept] == [
        ("toy/blobs", "CalinskiHarabasz", "ok")
    ]
    monkeypatch.setattr(cli, "run_job", real_run_job)
    run_benchmark(RunConfig.load(str(path)))
    resumed = strip(read_records(cfg["output_dir"]))

    whole = []
    for name, jobs in (("serial", 1), ("parallel", 2)):
        path, cfg = make_config(tmp_path, battery, out_name=name, jobs=jobs)
        run_benchmark(RunConfig.load(str(path)))
        whole.append(strip(read_records(cfg["output_dir"])))
    assert resumed == whole[0] == whole[1]


def test_resume_reruns_a_row_cut_off_mid_write(tmp_path):
    battery = write_battery(tmp_path / "battery")
    strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
    path, cfg = make_config(tmp_path, battery)
    run_benchmark(RunConfig.load(str(path)))
    whole = strip(read_records(cfg["output_dir"]))
    assert whole[-1]["status"] == "ok"
    records = os.path.join(cfg["output_dir"], "records.csv")
    with open(records, newline="") as fh:
        text = fh.read()
    with open(records, "w", newline="") as fh:
        fh.write(text[:-4])  # the last row loses its line end and a field's tail
    run_benchmark(RunConfig.load(str(path)))
    assert strip(read_records(cfg["output_dir"])) == whole


def test_foreign_records_file_is_a_clean_error_and_left_untouched(tmp_path, capsys):
    battery = write_battery(tmp_path / "battery")
    path, cfg = make_config(tmp_path, battery, specs=["BallHall"])
    os.makedirs(cfg["output_dir"])
    records = os.path.join(cfg["output_dir"], "records.csv")
    with open(records, "w", newline="") as fh:
        fh.write("foo,bar\n1,2\n")
    commands = (
        ["run", "--config", str(path)],
        ["summarize", "--records", records],
        ["meta-cluster", "--records", records],
    )
    for argv in commands:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {records} is not a records file") and "Traceback" not in err
    with open(records, newline="") as fh:
        assert fh.read() == "foo,bar\n1,2\n"


def test_summarize_non_numeric_q_is_a_clean_error(tmp_path, capsys):
    records = str(tmp_path / "records.csv")
    row = {f: "" for f in cli.RECORD_FIELDS}
    row.update(dataset="toy/pairs", method="BallHall", k="2", status="ok", q="abc")
    cli._write_records(records, [row])
    assert cli.main(["summarize", "--records", records]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'abc'" in err and "BallHall" in err and "toy/pairs" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_a_clean_error(tmp_path, capsys, jobs):
    battery = write_battery(tmp_path / "battery")
    path, _ = make_config(tmp_path, battery, jobs=jobs)
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        RunConfig.load(str(path))
    assert cli.main(["run", "--config", str(path)]) == 1
    # the flag goes through the same checks as the config key
    good, cfg = make_config(tmp_path, battery, out_name="flag")
    assert cli.main(["run", "--config", str(good), "--jobs", str(jobs)]) == 1
    assert capsys.readouterr().err.count("error: jobs must be >= 1") == 2
    assert not os.path.exists(cfg["output_dir"])


@pytest.mark.parametrize(
    "specs, message",
    [([], "specs must name at least one spec"), (["BallHall", "WCNN_2", "BallHall"], "'BallHall'")],
    ids=("empty", "twice"),
)
def test_empty_or_repeated_specs_are_a_clean_error(tmp_path, capsys, specs, message):
    # an empty list wrote an empty records.csv, and a repeated spec ran its
    # jobs twice, with two ok rows per (dataset, method, k)
    battery = write_battery(tmp_path / "battery")
    path, cfg = make_config(tmp_path, battery, specs=specs)
    with pytest.raises(ConfigError, match=message):
        RunConfig.load(str(path))
    assert cli.main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(cfg["output_dir"])
