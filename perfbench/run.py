"""cviopt benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload climb-light --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  One fresh ``worker.py`` process sets
up the inputs, repeats the timed call until ``--seconds`` are measured,
and checks the outputs; a few more processes only time the set-up, so
``setup_s`` is a median too.  Times are reported at the host's quiet
speed (see ``calibration.py``); the raw times are printed as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.  Each
metric line carries its unit; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any output check failed.  README.md in this directory
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("climb-light", "climb-heavy", "battery-run", "meta-cluster")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "q_mean": "1", "ok_frac": "ratio"}
SETUP_SAMPLES = 3  # set-ups timed per untraced run; the median is reported
WORKER_TIMEOUT_S = 160.0


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # jobs=1 and no helper threads; fixed hashing keeps set orders stable
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, *flags: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *flags] + ["--smoke"] * args.smoke
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_total(reps: list[list[float]]) -> float:
    """Median over repetitions of the batch time (the sum of its calls)."""
    return statistics.median(sum(times) for times in reps)


def _git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; do not let git search parent directories
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, one repetition")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cviopt", "__init__.py")):
        print(f"error: no cviopt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    try:
        res = run_worker(args, "--seconds", str(args.seconds), *["--traced"] * args.trace)
        setup_runs = [res]
        if not args.trace and not args.smoke:
            setup_runs += [run_worker(args, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
        setups = [r["setup_s"] for r in setup_runs]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    med = statistics.median
    for kind in ("raw_units", "units", "traced_units"):
        for i, times in enumerate(res[kind], start=1):
            print(f"{kind} repetition {i}: " + ", ".join(f"{t:.4f} s" for t in times)
                  + f"; total {sum(times):.4f} s")
    print(f"set-ups: setup_s {[round(s, 4) for s in setups]} s, "
          f"raw {[round(r['setup_raw_s'], 4) for r in setup_runs]} s")
    print(f"speed samples: {res['probe_samples']}")
    print("env: " + json.dumps({"git_sha": _git_sha(), **res["env"]}))
    for msg in res["failures"]:
        print(f"FAILED: {msg}")
    attempted = res["jobs"]
    failed = min(len(res["failures"]), attempted)

    if args.trace:
        from tracing import LAYER_METRICS  # imports the program; src/ is known to exist

        values = {name: med(layer[name] for layer in res["layers"])
                  for name in LAYER_METRICS if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = median_total(res["traced_units"]) / median_total(res["units"])
        units = LAYER_METRICS
    else:
        values = {
            "setup_s": med(setups),
            "wall_s": median_total(res["units"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "q_mean": res["q_mean"],
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
