"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that no output check fails, that per-layer counts repeat exactly between
two traced runs of one seed, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIME_UNITS = ("s", "ms")


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:]]
    argv += ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def _summary(workload: str, trace: int) -> dict:
    out = _bench(workload, trace)
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1
    assert summary["failed"] == 0 and summary["correct"], out.stderr
    return summary


def _assert_metrics(emitted: dict, declared: list[dict]) -> None:
    assert set(emitted) == {m["name"] for m in declared}
    for m in declared:
        assert emitted[m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_outputs_correct(workload):
    summary = _summary(workload, 0)
    _assert_metrics(summary["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_between_traced_runs(workload):
    first, second = _summary(workload, 1), _summary(workload, 1)
    _assert_metrics(first["metrics"], SPEC["per_layer"])
    for name, metric in first["metrics"].items():
        if metric["unit"] not in TIME_UNITS:
            assert metric["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
