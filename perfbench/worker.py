"""One benchmark run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--traced] [--smoke]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up (imports, input generation, files written) runs once and is timed.
Then repetitions of the workload's timed calls run back to back, each on
fresh inputs, until they reach ``--seconds`` (and at least ``MIN_REPS``);
with ``--traced`` every untraced repetition is followed by a traced one.
Each call is timed on its own.  A ``calibration.SpeedProbe`` samples the
host's speed from the first numpy import until the checks begin, and
set-up and every call are reported at the host's quiet speed; the raw
times are reported too.  Every
repetition must reproduce the first one's output digest.  After the
repetitions, outside any timing, the first one's outputs are checked.
Prints one JSON object as its last line.  Started by ``run.py``; a fresh
process per run keeps ``ru_maxrss`` from being inherited.
"""

import time

T_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy  # noqa: E402

import calibration  # noqa: E402

PROBE = calibration.SpeedProbe().start()  # main() stops it before the checks

import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cviopt import geometry  # noqa: E402


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "CVIOPT_DENSE_LIMIT": geometry.DENSE_LIMIT,
    }


MIN_REPS = 3  # untraced repetitions per run
TIME_LIMIT_S = 100.0  # no repetition starts that could end after this


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="smallest sizes, one repetition")
    parser.add_argument("--setup-only", action="store_true", help="time the set-up and stop")
    args = parser.parse_args(argv)
    setup, prepare, calls, digest = workloads.WORKLOADS[args.workload]

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        state = setup(args.workload, args.seed, workdir, args.smoke)
        setup_end = time.perf_counter()
        setup_raw_s = setup_end - T_START
        setup_s = PROBE.normalise(T_START, setup_end)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0

        # per repetition, the seconds of each timed call: raw, and at quiet speed
        raw = {False: [], True: []}
        units = {False: [], True: []}
        layers, missing, failures = [], set(), []
        first = None
        begun = time.monotonic()
        while True:
            for traced in (False, True) if args.traced else (False,):
                inputs = prepare(state, len(units[False]) + len(units[True]))
                tracer = tracing.Tracer() if traced else None
                outs, spans = [], []
                with tracing.installed(tracer):
                    for call in calls(inputs):
                        t0 = time.perf_counter()
                        outs.append(call())
                        spans.append((t0, time.perf_counter()))
                rep_span = (spans[0][0], spans[-1][1])
                raw[traced].append([t1 - t0 for t0, t1 in spans])
                units[traced].append([PROBE.normalise(t0, t1, rep_span) for t0, t1 in spans])
                fingerprint = digest(inputs, outs)
                if first is None:
                    first = (inputs, outs, fingerprint)
                elif fingerprint != first[2]:
                    kind = "traced" if traced else "untraced"
                    failures.append(f"{kind} repetition {len(units[traced])} output digest differs")
                if tracer is not None:
                    layers.append(tracer.metrics())
                    missing.update(tracer.missing(args.workload))
            measured = sum(sum(map(sum, reps)) for reps in raw.values())
            spent = time.monotonic() - begun
            enough = measured >= args.seconds and len(units[False]) >= MIN_REPS
            if args.smoke or enough or spent * (1 + 1 / len(units[False])) > TIME_LIMIT_S:
                break
        PROBE.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        inputs, out, _ = first
        failures += [f"wrapper {key} saw no call" for key in sorted(missing)]
        check_failures, qs = checks.CHECKS[args.workload](inputs, out)
        result = {
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "units": units[False],
            "traced_units": units[True],
            "raw_units": raw[False],
            "probe_samples": len(PROBE.samples),
            "peak_rss_mb": peak_rss_mb,
            "q_mean": sum(qs) / len(qs),
            "jobs": checks.job_count(args.workload, inputs) * len(units[False] + units[True]),
            "failures": failures + check_failures,
            "layers": layers,
            "env": environment(),
        }
    finally:
        PROBE.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
