"""Output checks, run after the timed region and never timed.

Each check returns a list of failure messages, one per failed job, so the
caller can count failures against the jobs attempted.  The ARI oracle
here is the benchmark's own: a numpy contingency table summed as Python
integers, independent of the dict loop in ``cviopt.evaluation``.
"""

from __future__ import annotations

import csv
import os

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from cviopt import cli, dataio
from cviopt.cvi import evaluate, make_evaluator
from cviopt.partition import Move, from_labels

REL_TOL = 1e-9  # the evaluators' contract with the definitional indices
META_AGGREGATORS = ("mean", "median", "q3")  # what ``cviopt meta-cluster`` writes by default


def _pairs(counts) -> int:
    return sum(int(c) * (int(c) - 1) // 2 for c in np.ravel(counts))


def ari_oracle(a, b, exclude_noise: bool = False) -> float:
    """Hubert-Arabie ARI from an integer contingency table; exact until the
    single final division."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if exclude_noise:
        keep = a != 0
        a, b = a[keep], b[keep]
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    sum_t = _pairs(table)
    sum_a = _pairs(table.sum(axis=1))
    sum_b = _pairs(table.sum(axis=0))
    n = int(a.shape[0])
    cn2 = n * (n - 1) // 2
    num = 2 * (cn2 * sum_t - sum_a * sum_b)
    den = cn2 * (sum_a + sum_b) - 2 * sum_a * sum_b
    return 1.0 if den == 0 else num / den


def read_csv(path: str) -> list[dict]:
    with open(path, "rt", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_records(output_dir: str) -> list[dict]:
    return read_csv(os.path.join(output_dir, "records.csv"))


def read_label_file(path: str) -> np.ndarray:
    with open(path, "rt", encoding="utf-8") as fh:
        return np.array([int(t) for t in fh.read().split()], dtype=np.int64)


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def improving_move(spec, ds, part, value: float):
    """First valid move a fresh evaluator rates strictly above ``value``
    (beyond the evaluator tolerance), or None for a local maximum."""
    ev = make_evaluator(spec, ds, part)
    labels, sizes = part.labels, part.sizes
    for i in range(part.n):
        src = int(labels[i])
        if sizes[src] < 2:
            continue
        for dst in range(part.k):
            if dst == src:
                continue
            v = ev.peek(Move(i, src, dst))
            if v > value and not close(v, value):
                return (i, src, dst, v)
    return None


def check_climbs(state: dict, outs: list) -> tuple[list[str], list[float]]:
    """(failures, clamped ARI per job) for the climb workloads."""
    failures, qs = [], []
    for job, (best, trace) in zip(state["jobs"], outs):
        tag = f"{job.name}/{job.spec_str}"
        value = evaluate(job.spec, job.ds, best)
        problems = []
        if not close(trace.best_value, value):
            problems.append(f"returned {trace.best_value!r} != evaluate {value!r}")
        if not trace.best_value >= trace.best_history[0]:
            problems.append("result worse than the best candidate")
        move = improving_move(job.spec, job.ds, best, value)
        if move is not None:
            problems.append(f"move {move[:3]} improves to {move[3]!r}")
        if problems:
            failures.append(f"{tag}: " + "; ".join(problems))
        qs.append(max(0.0, ari_oracle(job.ref, best.labels, exclude_noise=True)))
    return failures, qs


def check_battery(state: dict, outs: list) -> tuple[list[str], list[float]]:
    """Every (dataset, spec, k) record is ok, its ARIs and Q match the
    oracle, and its labels are a single-move local maximum."""
    cfg = state["config"]
    rows = {(r["dataset"], r["method"], r["k"]): r for r in read_records(state["output_dir"])}
    failures, qs = [], []
    if outs != [0]:
        failures.append(f"cviopt run exited {outs[0]}")
    for dataset_id, refs in state["refs"].items():
        data_path, _ = cli.battery_paths(cfg["battery_root"], dataset_id)
        ds = dataio.preprocess(
            dataio.load_dataset(data_path), cli.derived_seed(cfg["seed"], dataset_id, "preprocess")
        )
        cards = [int(r.max()) for r in refs]
        for spec_str in cfg["specs"]:
            for k in sorted(set(cards)):
                tag = f"{dataset_id}/{spec_str}/k{k}"
                row = rows.get((dataset_id, spec_str, str(k)))
                if row is None or row["status"] != "ok":
                    failures.append(f"{tag}: record {'missing' if row is None else row['status']}")
                    continue
                labels = read_label_file(os.path.join(state["output_dir"], row["labels_path"]))
                part = from_labels(labels - 1, k)
                aris = [(j, ari_oracle(r, labels, exclude_noise=True))
                        for j, r in enumerate(refs) if cards[j] == k]
                q = max(max(0.0, v) for _, v in aris)
                problems = []
                if row["ref_aris"] != ";".join(f"{j}:{v:.6f}" for j, v in aris):
                    problems.append(f"ref_aris {row['ref_aris']} disagree with the oracle")
                if row["q"] != f"{q:.6f}":
                    problems.append(f"q {row['q']} != oracle {q:.6f}")
                spec = cli.parse_spec(spec_str)
                move = improving_move(spec, ds, part, evaluate(spec, ds, part))
                if move is not None:
                    problems.append(f"move {move[:3]} improves to {move[3]!r}")
                if problems:
                    failures.append(f"{tag}: " + "; ".join(problems))
                qs.append(q)
    return failures, qs


def check_meta(state: dict, outs: list) -> tuple[list[str], list[float]]:
    """Summary means match the records, and each dendrogram's merge heights
    match scipy's complete linkage over oracle dissimilarities."""
    failures = []
    if outs != [0, 0]:
        failures.append(f"summarize/meta-cluster exited {outs}")
    methods = state["methods"]
    per_method: dict[str, list[float]] = {m: [] for m in methods}
    for row in state["rows"]:
        per_method[row["method"]].append(float(row["q"]))
    summary = {r["method"]: r for r in read_csv(state["summary"])}
    qs = []
    for m in methods:
        want = float(np.mean(per_method[m]))
        got = summary.get(m, {}).get("mean")
        # printed to 6 decimals; the summation order may differ in the last bit
        if got is None or abs(float(got) - want) > 0.5e-6 + 1e-12:
            failures.append(f"summary {m}: mean {got} != {want:.6f}")
        qs.extend(per_method[m])

    units = sorted({u for (_, u) in state["labels"]})
    one_minus = {}
    for i in range(len(methods)):
        for j in range(i + 1, len(methods)):
            one_minus[i, j] = [
                1.0 - ari_oracle(state["labels"][methods[i], u], state["labels"][methods[j], u])
                for u in units
            ]
    reducers = {"mean": np.mean, "median": np.median, "q3": lambda v: np.percentile(v, 75)}
    for agg in META_AGGREGATORS:
        mat = np.zeros((len(methods), len(methods)))
        for (i, j), vals in one_minus.items():
            mat[i, j] = mat[j, i] = float(reducers[agg](vals))
        want = linkage(squareform(mat, checks=False), "complete")[:, 2]
        legend = [r["method"] for r in read_csv(os.path.join(state["output_dir"], f"meta_{agg}_methods.csv"))]
        got = [float(r["height"]) for r in read_csv(os.path.join(state["output_dir"], f"meta_{agg}.csv"))]
        if legend != methods:
            failures.append(f"meta_{agg}: method legend {legend} != {methods}")
        elif len(got) != len(want) or not np.allclose(got, want, rtol=0.0, atol=1e-9):
            failures.append(f"meta_{agg}: merge heights {got} != linkage {want.tolist()}")
    return failures, qs


CHECKS = {
    "climb-light": check_climbs,
    "climb-heavy": check_climbs,
    "battery-run": check_battery,
    "meta-cluster": check_meta,
}


def job_count(workload: str, state: dict) -> int:
    """Jobs a run attempts: optimisations, or summary rows plus dendrograms."""
    if workload.startswith("climb"):
        return len(state["jobs"])
    if workload == "battery-run":
        ks = sum(len({int(r.max()) for r in refs}) for refs in state["refs"].values())
        return ks * len(state["config"]["specs"])
    return len(state["methods"]) + len(META_AGGREGATORS)
