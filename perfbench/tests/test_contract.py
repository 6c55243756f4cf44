"""The command of BENCHMARK.json, run the way the driver runs it."""

import json
import os
import shutil
import subprocess
import sys

from perfbench import catalogue

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def _contract(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_seed_one_runs_green_with_the_end_to_end_metric_set():
    proc = subprocess.run(
        RUN + ["--workload", "serve_bundle", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
        cwd=catalogue.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = _contract(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert tuple(line["metrics"]) == catalogue.E2E_NAMES
    for name, m in line["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == catalogue.UNITS[name]
        assert m["value"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(catalogue.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(catalogue.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        RUN + ["--workload", "train_small", "--seed", "0", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
