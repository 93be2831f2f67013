"""Smoke test of the benchmark at its smallest sizes.

    python3 -m pytest perfbench

Runs every workload once untraced and once traced through ``run.py
--smoke`` and checks the printed result against BENCHMARK.json.  Timing
bounds are deliberately absent.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from checks import ari_oracle  # noqa: E402
from cviopt.evaluation import adjusted_rand  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, m in result["metrics"].items():
        assert f"{name} {m['value']!r} {m['unit']}" in proc.stdout


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_METRICS
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m["name"]
    assert "cvi.peek_us_mean.DuNN_10_SMin-5_Max" in LAYER_METRICS


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "--workload", "climb-light", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ari_oracle_agrees_with_the_program():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(1, 5, size=n)
        for noise in (False, True):
            if noise and (a != 0).sum() < 2:
                continue
            assert ari_oracle(a, b, noise) == adjusted_rand(a, b, exclude_noise=noise)
