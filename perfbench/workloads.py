"""The benchmark's four workloads: seeded inputs, the timed calls, outputs.

Every workload is a closed loop with one client: jobs run back to back in
one process (``jobs=1``).  ``setup`` builds every input from the seed and
writes any files the program reads; the timed calls reach only the
program's public entry points; ``digest`` fingerprints the outputs so
that repeated and traced runs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import functools
import gzip
import hashlib
import json
import os

import numpy as np
from scipy.spatial.distance import pdist

from cviopt import cli, dataio, optim
from cviopt.cvi import parse_spec

from checks import META_AGGREGATORS, ari_oracle, read_label_file, read_records

# Sizes for the full runs and for the smoke mode the benchmark's own
# test runs.  The full sizes keep the per-move loop (climb-light), the
# evaluator kernels (climb-heavy), geometry plus orchestration
# (battery-run) and ARI scoring (meta-cluster) dominant in turn, with one
# repetition short enough (1.5-6 s) that a 20 s run holds several.
SIZES = {
    "climb-light": {
        "full": {"n": 500, "P": 10},
        "smoke": {"n": 120, "P": 2},
    },
    "climb-heavy": {
        "full": {"n_slab": 600, "n_blob": 200, "P": 5},
        "smoke": {"n_slab": 80, "n_blob": 60, "P": 2},
    },
    "battery-run": {
        "full": {"shapes": [(1536, 3, 3), (1024, 4, 3), (512, 2, 3)], "restarts": 10},
        "smoke": {"shapes": [(200, 3, 3), (160, 2, 3)], "restarts": 2},
    },
    "meta-cluster": {
        "full": {"methods": 12, "units": 20, "n": 400, "k": 4},
        "smoke": {"methods": 4, "units": 3, "n": 100, "k": 3},
    },
}

CLIMB_LIGHT_SPECS = ["CalinskiHarabasz", "BallHall", "WCNN_10", "DuNN_10_Min_Const"]
CLIMB_HEAVY_SLAB_SPECS = ["GDunn_d1_D1", "Silhouette", "DaviesBouldin", "DuNN_10_SMin:5_Max"]
CLIMB_HEAVY_BLOB_SPECS = ["GDunn_d2_D1"]
BATTERY_SPECS = ["CalinskiHarabasz", "GDunn_d1_D1", "DuNN_25_SMin:5_Const", "WCNN_25"]
ALL_SPECS = sorted(
    set(CLIMB_LIGHT_SPECS + CLIMB_HEAVY_SLAB_SPECS + CLIMB_HEAVY_BLOB_SPECS + BATTERY_SPECS)
)


# ---------------------------------------------------------------------------
# input generators


def separated_centers(rng, k: int, d: int, gap: float) -> np.ndarray:
    """k points in a box, redrawn until every pair is at least ``gap`` apart."""
    while True:
        centers = rng.uniform(0.0, gap * k, size=(k, d))
        if pdist(centers).min() >= gap:
            return centers


def blobs(rng, n: int, centers: np.ndarray):
    """Unit-variance Gaussian blobs of equal size; labels 1..k name the blob."""
    k, d = centers.shape
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    labels = np.repeat(np.arange(1, k + 1), sizes)
    pts = centers[labels - 1] + rng.normal(size=(n, d))
    order = rng.permutation(n)
    return pts[order], labels[order]


def nested_blobs(rng, n: int, d: int, k: int):
    """k well-separated groups, the last split into two close blobs.

    Returns points and two references that are both natural partitions:
    the k+1 blobs, and the k groups.  Blobs 8 sd apart keep the index
    optima near the references, so climbs are short and Q is steady
    across seeds.
    """
    groups = separated_centers(rng, k, d, gap=16.0)
    offset = rng.normal(size=d)
    offset *= 4.0 / np.linalg.norm(offset)
    centers = np.vstack([groups[:-1], groups[-1] - offset, groups[-1] + offset])
    pts, fine = blobs(rng, n, centers)
    return pts, fine, np.minimum(fine, k)


def slabs(rng, n: int):
    """Two uniform slabs side by side (a wingnut stand-in); labels 1..2."""
    half = n // 2
    left = rng.uniform([0.0, 0.0], [1.0, 2.0], size=(half, 2))
    right = rng.uniform([1.3, 0.0], [2.3, 2.0], size=(n - half, 2))
    pts = np.vstack([left, right])
    labels = np.repeat([1, 2], [half, n - half])
    order = rng.permutation(n)
    return pts[order], labels[order]


# ---------------------------------------------------------------------------
# climb workloads: optim.optimise_dataset called directly


class ClimbJob:
    """One (dataset, spec, k) optimisation with its generating reference."""

    def __init__(self, name: str, spec: str, ds, ref: np.ndarray, seed: int, P: int):
        self.name = name
        self.spec_str = spec
        self.spec = parse_spec(spec)
        self.ds = ds
        self.ref = ref
        self.k = int(ref.max())
        self.refs = dataio.ReferenceSet([ref])
        self.seed = seed
        self.P = P


def climb_setup(workload: str, seed: int, workdir: str, smoke: bool) -> dict:
    size = SIZES[workload]["smoke" if smoke else "full"]
    rng = np.random.default_rng(seed)
    groups = []
    if workload == "climb-light":
        pts, ref = blobs(rng, size["n"], separated_centers(rng, 3, 2, gap=8.0))
        groups.append(("blobs", pts, ref, CLIMB_LIGHT_SPECS))
    else:
        pts, ref = slabs(rng, size["n_slab"])
        groups.append(("slabs", pts, ref, CLIMB_HEAVY_SLAB_SPECS))
        pts, ref = blobs(rng, size["n_blob"], separated_centers(rng, 3, 2, gap=8.0))
        groups.append(("blobs", pts, ref, CLIMB_HEAVY_BLOB_SPECS))
    plan = []
    for name, pts, ref, specs in groups:
        jitter_seed = int(rng.integers(2**31))
        plan.append((name, pts, ref, jitter_seed, [(s, int(rng.integers(2**31))) for s in specs]))
    return {"plan": plan, "P": size["P"]}


def climb_prepare(state: dict, rep: int) -> dict:
    """Fresh Dataset objects, so the program's per-dataset caches start cold."""
    jobs = []
    for name, pts, ref, jitter_seed, specs in state["plan"]:
        ds = dataio.preprocess(dataio.Dataset(pts), jitter_seed)
        jobs.extend(ClimbJob(name, spec, ds, ref, seed, state["P"]) for spec, seed in specs)
    return {"jobs": jobs}


def _optimise(job: ClimbJob):
    return optim.optimise_dataset(
        job.spec, job.ds, job.k, refs=job.refs, seed=job.seed, P=job.P, n_random=2, n_vantage=2
    )


def climb_calls(state: dict) -> list:
    return [functools.partial(_optimise, job) for job in state["jobs"]]


def climb_digest(state: dict, outs: list) -> str:
    h = hashlib.sha256()
    for job, (best, trace) in zip(state["jobs"], outs):
        h.update(job.spec_str.encode())
        h.update(np.asarray(best.labels, dtype=np.int64).tobytes())
        h.update(repr(trace.best_value).encode())
        h.update(repr((trace.steps, trace.tabu_size, trace.candidate_count)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# battery-run: a gzip battery on disk, then ``cviopt run`` in-process


def _write_ints(path: str, values) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("".join(f"{int(v)}\n" for v in values))


def battery_setup(workload: str, seed: int, workdir: str, smoke: bool) -> dict:
    size = SIZES[workload]["smoke" if smoke else "full"]
    rng = np.random.default_rng(seed)
    root = os.path.join(workdir, "battery")
    os.makedirs(os.path.join(root, "synth"))
    refs = {}
    for i, (n, d, k) in enumerate(size["shapes"]):
        dataset_id = f"synth/set{i}"
        pts, fine, coarse = nested_blobs(rng, n, d, k)
        coarse[rng.random(n) < 0.02] = 0  # ~2% noise labels
        base = os.path.join(root, dataset_id)
        with gzip.open(base + ".data.gz", "wt", encoding="utf-8") as fh:
            fh.write("".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in pts))
        _write_ints(base + ".labels0.gz", fine)
        _write_ints(base + ".labels1.gz", coarse)
        refs[dataset_id] = [fine, coarse]
    config = {
        "battery_root": root,
        "output_dir": os.path.join(workdir, "unused"),
        "specs": BATTERY_SPECS,
        "seed": int(rng.integers(2**31)),
        "patience": 1,
        "n_random": 0,
        "n_vantage": 0,
        "kmeans_restarts": size["restarts"],
        "jobs": 1,
    }
    config_path = os.path.join(workdir, "run.json")
    with open(config_path, "wt", encoding="utf-8") as fh:
        json.dump(config, fh)
    return {
        "config": config,
        "config_path": config_path,
        "refs": refs,
        "workdir": workdir,
    }


def battery_prepare(state: dict, rep: int) -> dict:
    # a fresh output directory per repetition: records.csv is resumable,
    # so a reused directory would skip every finished job
    return dict(state, output_dir=os.path.join(state["workdir"], f"out{rep}"))


def battery_calls(state: dict) -> list:
    argv = ["run", "--config", state["config_path"], "--output-dir", state["output_dir"]]
    return [functools.partial(cli.main, argv)]


def battery_digest(state: dict, outs: list) -> str:
    h = hashlib.sha256(repr(outs).encode())
    for row in read_records(state["output_dir"]):
        row = dict(row, seconds="")  # wall time per job is not an output
        h.update(json.dumps(row, sort_keys=True).encode())
        if row["labels_path"]:
            h.update(read_label_file(os.path.join(state["output_dir"], row["labels_path"])).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# meta-cluster: records plus label files on disk, then summarize and
# meta-cluster in-process


def meta_setup(workload: str, seed: int, workdir: str, smoke: bool) -> dict:
    size = SIZES[workload]["smoke" if smoke else "full"]
    rng = np.random.default_rng(seed)
    n, k = size["n"], size["k"]
    out_dir = os.path.join(workdir, "out")
    # method i relabels a share of points at random; distinct shares keep
    # the method dissimilarities distinct, so the dendrogram has no ties
    shares = np.linspace(0.05, 0.6, size["methods"])
    methods = [f"m{i:02d}" for i in range(size["methods"])]
    rows = []
    labels = {}
    for u in range(size["units"]):
        dataset_id = f"synth/u{u:02d}"
        base = rng.permutation(np.arange(n) % k) + 1
        os.makedirs(os.path.join(out_dir, dataset_id))
        for method, share in zip(methods, shares):
            lab = base.copy()
            hit = rng.random(n) < share
            lab[hit] = rng.integers(1, k + 1, size=int(hit.sum()))
            rel = os.path.join(dataset_id, f"{method}_k{k}.labels")
            with open(os.path.join(out_dir, rel), "wt", encoding="utf-8") as fh:
                fh.write("".join(f"{v}\n" for v in lab))
            ari = ari_oracle(base, lab)
            row = {f: "" for f in cli.RECORD_FIELDS}
            row.update(
                dataset=dataset_id,
                method=method,
                k=str(k),
                status="ok",
                labels_path=rel,
                ref_aris=f"0:{ari:.6f}",
                q=f"{max(0.0, ari):.6f}",
            )
            rows.append(row)
            labels[(method, f"{dataset_id}::k{k}")] = lab
    records = os.path.join(out_dir, "records.csv")
    with open(records, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cli.RECORD_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return {
        "records": records,
        "rows": rows,
        "labels": labels,
        "methods": methods,
        "output_dir": out_dir,
        "summary": os.path.join(workdir, "summary.csv"),
    }


def meta_calls(state: dict) -> list:
    return [
        functools.partial(cli.main, ["summarize", "--records", state["records"], "--out", state["summary"]]),
        functools.partial(
            cli.main, ["meta-cluster", "--records", state["records"], "--output-dir", state["output_dir"]]
        ),
    ]


def meta_digest(state: dict, outs: list) -> str:
    h = hashlib.sha256(repr(outs).encode())
    paths = [state["summary"]]
    for agg in META_AGGREGATORS:
        paths.append(os.path.join(state["output_dir"], f"meta_{agg}.csv"))
        paths.append(os.path.join(state["output_dir"], f"meta_{agg}_methods.csv"))
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def meta_prepare(state: dict, rep: int) -> dict:
    return state  # the inputs are read-only; every output is rewritten


#: name -> (setup, prepare, calls, digest).  ``setup`` runs once per
#: process and is timed as set-up; ``prepare`` gives each repetition fresh
#: inputs outside the timing; ``calls`` lists the timed calls into the
#: program, one per job where the program exposes jobs.
WORKLOADS = {
    "climb-light": (climb_setup, climb_prepare, climb_calls, climb_digest),
    "climb-heavy": (climb_setup, climb_prepare, climb_calls, climb_digest),
    "battery-run": (battery_setup, battery_prepare, battery_calls, battery_digest),
    "meta-cluster": (meta_setup, meta_prepare, meta_calls, meta_digest),
}
