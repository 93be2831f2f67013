"""Command-line interface: benchmark runs, single evaluations and summaries.

Subcommands:
    run          full benchmark over a battery directory (resumable)
    cvi          evaluate one index on one labeled dataset
    optimize     maximize one index on one dataset
    score        ARI / Q of a label file against reference label files
    summarize    per-method summary statistics of the Q scores
    meta-cluster complete-linkage dendrogram over method dissimilarities

The battery layout follows the benchmark-suite convention:
``<root>/<suite>/<name>.data.gz`` plus ``<name>.labels0.gz`` (one file per
reference labeling), all optionally uncompressed.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import io
import json
import os
import re
import sys
import time
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dataio, optim
from .cvi import parse_spec
from .errors import ConfigError, CviOptError, DataParseError
from .evaluation import (
    adjusted_rand,
    clamp_score,
    complete_linkage,
    method_dissimilarity,
)
from .nngraph import connected_components, knn_for
from .partition import cluster_size_gini, from_labels

RECORD_FIELDS = [
    "dataset",
    "method",
    "k",
    "status",
    "message",
    "labels_path",
    "ref_aris",
    "q",
    "gini",
    "seconds",
    "candidates",
    "tabu_size",
]


@dataclass
class RunConfig:
    """Keys of the JSON config accepted by ``cviopt run``."""

    battery_root: str
    output_dir: str
    specs: list[str]
    include: list[str] = field(default_factory=list)
    exclude: list[str] = field(default_factory=list)
    candidate_root: str | None = None
    seed: int = 0
    patience: int = 250
    n_random: int = 5
    n_vantage: int = 5
    vantage_v: int = 5
    kmeans_restarts: int = 10
    neighbourhood_budget: int = 50000
    min_component_policy: bool = True
    jobs: int = 1

    @classmethod
    def load(cls, path: str, **overrides) -> "RunConfig":
        """The config of the JSON file ``path``, its keys replaced by the
        ``overrides`` that are not None, all checked alike."""
        try:
            with open(path, "rt", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"battery_root", "output_dir", "specs"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        raw.update({key: value for key, value in overrides.items() if value is not None})
        hints = typing.get_type_hints(cls)
        for key, value in raw.items():
            if not _is_a(value, hints[key]):
                raise ConfigError(f"config key {key!r} must be {fields[key].type}: {value!r}")
        cfg = cls(**raw)
        for key in ("patience", "jobs"):
            if getattr(cfg, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("n_random", "n_vantage", "kmeans_restarts"):
            if getattr(cfg, key) < 0:
                raise ConfigError(f"{key} must be >= 0")
        if cfg.n_vantage > 0 and cfg.vantage_v < 1:
            raise ConfigError("vantage_v must be >= 1 when n_vantage > 0")
        if not os.path.isdir(cfg.battery_root):
            raise ConfigError(f"battery root {cfg.battery_root!r} is not a directory")
        if not cfg.specs:
            raise ConfigError("specs must name at least one spec")
        twice = sorted({s for s in cfg.specs if cfg.specs.count(s) > 1})
        if twice:
            raise ConfigError(f"specs listed more than once: {twice}")
        for s in cfg.specs:
            try:
                parse_spec(s)
            except CviOptError as exc:
                raise ConfigError(f"bad spec {s!r}: {exc}") from exc
        return cfg


def _is_a(value, hint) -> bool:
    """Whether the JSON value ``value`` has the type ``hint``; a bool is not an int."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_is_a(v, args[0]) for v in value)
    if args:  # a union such as str | None
        return any(_is_a(value, h) for h in args)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def derived_seed(base: int, *parts: str) -> int:
    """A stable seed from ``base`` and the path ``parts``: ``run`` seeds a
    dataset's preprocessing from (dataset, "preprocess") and its candidate
    pool at each k from (dataset, "pool", k), which no spec enters."""
    digest = hashlib.sha256("/".join(parts).encode("utf-8")).digest()
    return (base + int.from_bytes(digest[:8], "big")) % (2**63)


def discover_datasets(root: str) -> list[str]:
    """Dataset ids ("suite/name") under a battery root."""
    ids = set()
    for pattern in ("*/*.data", "*/*.data.gz"):
        for path in glob.glob(os.path.join(root, pattern)):
            rel = os.path.relpath(path, root)
            rel = rel[: -len(".gz")] if rel.endswith(".gz") else rel
            ids.add(rel[: -len(".data")])
    return sorted(ids)


def battery_paths(root: str, dataset_id: str) -> tuple[str, list[str]]:
    """(data file, [reference label files]) for one dataset id."""
    base = os.path.join(root, dataset_id)
    data = None
    for cand in (base + ".data.gz", base + ".data"):
        if os.path.exists(cand):
            data = cand
            break
    if data is None:
        raise ConfigError(f"no data file for {dataset_id!r} under {root!r}")
    # <name>.labels<digits>[.gz], one per number (a plain file wins over
    # its .gz), in numeric order
    by_number: dict[str, str] = {}
    found = glob.glob(glob.escape(base) + ".labels*")
    for path in sorted(found, key=lambda p: p.endswith(".gz")):
        match = re.fullmatch(r"\.labels([0-9]+)(?:\.gz)?", path[len(base) :])
        if match:
            by_number.setdefault(match[1], path)
    return data, [by_number[j] for j in sorted(by_number, key=lambda j: (int(j), j))]


def load_reference_set(root: str, dataset_id: str, n: int) -> dataio.ReferenceSet | None:
    _, ref_paths = battery_paths(root, dataset_id)
    if not ref_paths:
        return None
    return dataio.ReferenceSet([dataio.load_labels(p, n) for p in ref_paths])


def _nn_component_minimum(ds: dataio.Dataset, m: int) -> int:
    comps = connected_components(knn_for(ds, m))
    return int(np.bincount(comps).min())


def _failure(exc: Exception) -> str:
    """A failed row's message, ``"<Type>: <message>"``.  An exception the
    program does not raise itself also prints its traceback to stderr."""
    if not isinstance(exc, (CviOptError, OSError)):
        traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _set_up(
    cfg: RunConfig, dataset_id: str, setups: dict
) -> tuple[dataio.Dataset, dataio.ReferenceSet | None]:
    """The preprocessed dataset and its references.  ``setups`` keeps the
    dataset set up last, so the jobs of one dataset, which run one after
    another, share one ``Dataset`` and with it its cached distances, kNN
    graphs, EMST and candidate pools; a dataset that fails to load is
    tried again by each of its jobs."""
    if dataset_id in setups:
        return setups[dataset_id]
    data_path, _ = battery_paths(cfg.battery_root, dataset_id)
    raw = dataio.load_dataset(data_path)
    ds = dataio.preprocess(raw, derived_seed(cfg.seed, dataset_id, "preprocess"))
    setup = ds, load_reference_set(cfg.battery_root, dataset_id, ds.n)
    setups.clear()  # one dataset at a time bounds the memory held
    setups[dataset_id] = setup
    return setup


def run_job(cfg: RunConfig, dataset_id: str, spec_str: str, done: set, setups: dict) -> list[dict]:
    """All records for one (dataset, spec) pair; failures become rows.
    Jobs given the same ``setups`` dict share their dataset's set-up.
    The pool at each k is seeded by (dataset, k) alone, so every spec of
    a dataset climbs from the same candidates."""
    rows: list[dict] = []
    spec = parse_spec(spec_str)

    def row(**kw) -> dict:
        base = {f: "" for f in RECORD_FIELDS}
        base.update({"dataset": dataset_id, "method": spec_str})
        base.update({key: str(v) for key, v in kw.items()})
        return base

    try:
        ds, refs = _set_up(cfg, dataset_id, setups)
    except Exception as exc:
        return [row(k="", status="failed", message=_failure(exc))]

    if refs is None:
        return [row(k="", status="skipped", message="no reference labels")]

    if spec.needs_knn:
        if spec.m >= ds.n:
            return [row(k="", status="skipped", message=f"M={spec.m} >= n={ds.n}")]
        if cfg.min_component_policy:
            smallest = _nn_component_minimum(ds, spec.m)
            if smallest < spec.m + 1:
                return [
                    row(
                        k="",
                        status="skipped",
                        message=(
                            f"{spec.m}-NN graph has a component of size "
                            f"{smallest} < M+1"
                        ),
                    )
                ]

    candidate_dirs = []
    if cfg.candidate_root:
        cand_dir = os.path.join(cfg.candidate_root, dataset_id)
        if os.path.isdir(cand_dir):
            candidate_dirs.append(cand_dir)

    for k in refs.distinct_cardinalities():
        if (dataset_id, spec_str, str(k)) in done:
            continue
        if k < 2:
            rows.append(row(k=k, status="skipped", message="k < 2"))
            continue
        if ds.n * (k - 1) > cfg.neighbourhood_budget:
            rows.append(
                row(
                    k=k,
                    status="skipped",
                    message=f"n(k-1)={ds.n * (k - 1)} exceeds budget",
                )
            )
            continue
        t0 = time.perf_counter()
        try:
            best, trace = optim.optimise_dataset(
                spec,
                ds,
                k,
                refs=refs,
                external_candidate_dirs=candidate_dirs,
                seed=derived_seed(cfg.seed, dataset_id, "pool", str(k)),
                P=cfg.patience,
                n_random=cfg.n_random,
                n_vantage=cfg.n_vantage,
                vantage_v=cfg.vantage_v,
                kmeans_restarts=cfg.kmeans_restarts,
            )
        except Exception as exc:
            rows.append(row(k=k, status="failed", message=_failure(exc)))
            continue
        elapsed = time.perf_counter() - t0
        out_dir = os.path.join(cfg.output_dir, dataset_id)
        os.makedirs(out_dir, exist_ok=True)
        labels_path = os.path.join(out_dir, f"{spec_str}_k{k}.labels")
        dataio.save_labels(best.labels, labels_path)
        aris = []
        for j, (lab, card) in enumerate(zip(refs.labelings, refs.cardinalities)):
            if card == k:
                aris.append((j, adjusted_rand(lab, best.labels, exclude_noise=True)))
        q = max(clamp_score(v) for _, v in aris)
        rows.append(
            row(
                k=k,
                status="ok",
                labels_path=os.path.relpath(labels_path, cfg.output_dir),
                ref_aris=";".join(f"{j}:{v:.6f}" for j, v in aris),
                q=f"{q:.6f}",
                gini=f"{cluster_size_gini(best):.6f}",
                seconds=f"{elapsed:.3f}",
                candidates=trace.candidate_count,
                tabu_size=trace.tabu_size,
            )
        )
    return rows


def _read_records(path: str) -> list[dict]:
    """The rows of the records file ``path``, none if there is no file;
    a file whose header is not ``RECORD_FIELDS`` is a ``ConfigError``."""
    if not os.path.exists(path):
        return []
    with open(path, "rt", encoding="utf-8", newline="") as fh:
        text = fh.read()
    # a row counts once its line ends: a tail cut off mid-append is dropped
    reader = csv.DictReader(io.StringIO(text[: text.rfind("\n") + 1]))
    if reader.fieldnames != RECORD_FIELDS:
        raise ConfigError(f"{path} is not a records file: its header is not {','.join(RECORD_FIELDS)}")
    return list(reader)


def _write_records(path: str, rows: list[dict]) -> None:
    """Replace the records file, sorted, atomically and durably: a reader
    or an interrupted run sees the old file or the new one."""
    rows = sorted(rows, key=lambda r: (r["dataset"], r["method"], str(r["k"])))
    tmp = path + ".tmp"
    with open(tmp, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


#: a pool worker's set-ups: a worker lives for one ``run_benchmark`` call
_worker_setups: dict = {}


def _job_entry(cfg_dict: dict, dataset_id: str, spec_str: str, done: set) -> list[dict]:
    return run_job(RunConfig(**cfg_dict), dataset_id, spec_str, done, _worker_setups)


def run_benchmark(cfg: RunConfig) -> tuple[list[dict], int]:
    """Execute every (dataset, spec) job; returns (records, failure count).

    Completed (dataset, method, k) triples found in an existing records
    file are skipped, and each job's rows are appended to the file as the
    job finishes, so an interrupted run resumes where it stopped; the
    earlier skipped and failed rows of a job run again are replaced by its
    new ones.  The file is sorted once, at the end.
    """
    datasets = discover_datasets(cfg.battery_root)
    if cfg.include:
        datasets = [d for d in datasets if d in set(cfg.include)]
    if cfg.exclude:
        datasets = [d for d in datasets if d not in set(cfg.exclude)]
    if not datasets:
        raise ConfigError("no datasets selected")

    jobs = [(d, s) for d in datasets for s in cfg.specs]
    records_path = os.path.join(cfg.output_dir, "records.csv")
    # a job run again writes its skipped/failed rows afresh
    rerun = set(jobs)
    all_rows = [
        r
        for r in _read_records(records_path)
        if r["status"] == "ok" or (r["dataset"], r["method"]) not in rerun
    ]
    done = {(r["dataset"], r["method"], str(r["k"])) for r in all_rows if r["status"] == "ok"}

    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(
        os.path.join(cfg.output_dir, "config_snapshot.json"), "wt", encoding="utf-8"
    ) as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
    _write_records(records_path, all_rows)
    setups: dict = {}
    with open(records_path, "at", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)

        def record(rows: list[dict]) -> None:
            all_rows.extend(rows)
            writer.writerows(rows)
            fh.flush()
            os.fsync(fh.fileno())

        if cfg.jobs <= 1:
            for d, s in jobs:
                record(run_job(cfg, d, s, done, setups))
        else:
            cfg_dict = asdict(cfg)
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                futures = [pool.submit(_job_entry, cfg_dict, d, s, done) for d, s in jobs]
                for fut in as_completed(futures):
                    record(fut.result())
    _write_records(records_path, all_rows)

    failures = sum(1 for r in all_rows if r["status"] == "failed")
    return all_rows, failures


def summarize(rows: list[dict]) -> list[dict]:
    """Per-method mean / sd / quartiles of the per-dataset Q scores.

    The dataset-level Q is the max over that dataset's per-k records.
    Quartiles use linear interpolation (type 7).
    """
    per_method: dict[str, dict[str, float]] = {}
    for r in rows:
        if r["status"] != "ok" or r["q"] == "":
            continue
        method = r["method"]
        try:
            q = float(r["q"])
        except ValueError:
            q = np.nan
        if not np.isfinite(q):
            raise DataParseError(f"q {r['q']!r} of {method} on {r['dataset']} is not a finite number")
        bucket = per_method.setdefault(method, {})
        bucket[r["dataset"]] = max(bucket.get(r["dataset"], 0.0), q)
    out = []
    for method in sorted(per_method):
        qs = np.array(sorted(per_method[method].values()))
        out.append(
            {
                "method": method,
                "n_datasets": qs.size,
                "mean": f"{qs.mean():.6f}",
                "sd": f"{qs.std(ddof=0):.6f}",
                "q1": f"{np.percentile(qs, 25):.6f}",
                "median": f"{np.percentile(qs, 50):.6f}",
                "q3": f"{np.percentile(qs, 75):.6f}",
            }
        )
    return out


def meta_cluster(rows: list[dict], output_dir: str, aggregators=("mean", "median", "q3")) -> list[str]:
    """Dendrograms over method dissimilarities; reference labels unused."""
    results: dict[str, dict[str, np.ndarray]] = {}
    for r in rows:
        if r["status"] != "ok" or not r["labels_path"]:
            continue
        labels = dataio.load_labels(os.path.join(output_dir, r["labels_path"]))
        results.setdefault(r["method"], {})[f"{r['dataset']}::k{r['k']}"] = labels
    names, mats = method_dissimilarity(results, aggregators)
    written = []
    for agg in aggregators:
        dend = complete_linkage(mats[agg])
        path = os.path.join(output_dir, f"meta_{agg}.csv")
        with open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "left", "right", "height"])
            for step, (a, b, h) in enumerate(dend.merges):
                writer.writerow([step, a, b, f"{h:.9f}"])
        legend = os.path.join(output_dir, f"meta_{agg}_methods.csv")
        with open(legend, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "method"])
            for i, name in enumerate(names):
                writer.writerow([i, name])
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# subcommand handlers


def _load_labeled(data: str, labels: str, preprocess_seed: int | None):
    raw = dataio.load_dataset(data)
    ds = raw if preprocess_seed is None else dataio.preprocess(raw, preprocess_seed)
    ext = dataio.load_labels(labels, ds.n)
    internal = optim.resolve_noise(ds, ext)
    return ds, from_labels(internal, int(internal.max()) + 1)


def _cmd_cvi(args) -> int:
    from .cvi import evaluate

    spec = parse_spec(args.spec)
    seed = None if args.raw else args.preprocess_seed
    ds, part = _load_labeled(args.data, args.labels, seed)
    print(f"{args.spec}\t{evaluate(spec, ds, part)!r}")
    return 0


def _cmd_optimize(args) -> int:
    spec = parse_spec(args.spec)
    raw = dataio.load_dataset(args.data)
    ds = raw if args.raw else dataio.preprocess(raw, args.preprocess_seed)
    refs = None
    if args.refs:
        refs = dataio.ReferenceSet([dataio.load_labels(p, ds.n) for p in args.refs])
    dirs = [args.candidates] if args.candidates else []
    best, trace = optim.optimise_dataset(
        spec,
        ds,
        args.k,
        refs=refs,
        external_candidate_dirs=dirs,
        seed=args.seed,
        P=args.patience,
    )
    if args.out:
        dataio.save_labels(best.labels, args.out)
    print(f"objective\t{trace.best_value!r}")
    print(f"candidates\t{trace.candidate_count}")
    print(f"tabu_size\t{trace.tabu_size}")
    if refs is not None:
        for j, lab in enumerate(refs.labelings):
            ari = adjusted_rand(lab, best.labels, exclude_noise=True)
            print(f"ari_ref{j}\t{ari:.6f}")
    return 0


def _cmd_score(args) -> int:
    cand = dataio.load_labels(args.labels)
    best = 0.0
    for j, ref_path in enumerate(args.refs):
        ref = dataio.load_labels(ref_path, len(cand))
        raw = adjusted_rand(ref, cand, exclude_noise=True)
        clamped = clamp_score(raw)
        best = max(best, clamped)
        print(f"ref{j}\traw={raw:.6f}\tclamped={clamped:.6f}")
    print(f"Q\t{best:.6f}")
    return 0


def _cmd_run(args) -> int:
    cfg = RunConfig.load(args.config, jobs=args.jobs, output_dir=args.output_dir)
    rows, failures = run_benchmark(cfg)
    ok = sum(1 for r in rows if r["status"] == "ok")
    skipped = sum(1 for r in rows if r["status"] == "skipped")
    print(f"records: {len(rows)} ({ok} ok, {skipped} skipped, {failures} failed)")
    return 1 if failures else 0


def _cmd_summarize(args) -> int:
    rows = _read_records(args.records)
    table = summarize(rows)
    fields = ["method", "n_datasets", "mean", "sd", "q1", "median", "q3"]
    out = open(args.out, "wt", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(table)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_meta_cluster(args) -> int:
    rows = _read_records(args.records)
    output_dir = args.output_dir or os.path.dirname(os.path.abspath(args.records))
    aggs = args.aggregators.split(",")
    written = meta_cluster(rows, output_dir, aggs)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cviopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full benchmark from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--jobs", type=int, default=None)
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_cvi = sub.add_parser("cvi", help="evaluate one index on one labeled dataset")
    p_cvi.add_argument("--data", required=True)
    p_cvi.add_argument("--labels", required=True)
    p_cvi.add_argument("--spec", required=True)
    p_cvi.add_argument("--preprocess-seed", type=int, default=0)
    p_cvi.add_argument("--raw", action="store_true", help="skip preprocessing")
    p_cvi.set_defaults(func=_cmd_cvi)

    p_opt = sub.add_parser("optimize", help="maximize one index on one dataset")
    p_opt.add_argument("--data", required=True)
    p_opt.add_argument("--spec", required=True)
    p_opt.add_argument("--k", type=int, required=True)
    p_opt.add_argument("--refs", nargs="*", default=[])
    p_opt.add_argument("--candidates", default=None)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--patience", type=int, default=optim.DEFAULT_PATIENCE)
    p_opt.add_argument("--out", default=None)
    p_opt.add_argument("--preprocess-seed", type=int, default=0)
    p_opt.add_argument("--raw", action="store_true")
    p_opt.set_defaults(func=_cmd_optimize)

    p_score = sub.add_parser("score", help="score labels against references")
    p_score.add_argument("--labels", required=True)
    p_score.add_argument("--refs", nargs="+", required=True)
    p_score.set_defaults(func=_cmd_score)

    p_sum = sub.add_parser("summarize", help="summary statistics per method")
    p_sum.add_argument("--records", required=True)
    p_sum.add_argument("--out", default=None)
    p_sum.set_defaults(func=_cmd_summarize)

    p_meta = sub.add_parser("meta-cluster", help="cluster the clustering methods")
    p_meta.add_argument("--records", required=True)
    p_meta.add_argument("--output-dir", default=None)
    p_meta.add_argument("--aggregators", default="mean,median,q3")
    p_meta.set_defaults(func=_cmd_meta_cluster)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CviOptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
