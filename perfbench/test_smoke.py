"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, and
checks that the result line names every metric with its unit and that the
correctness gate passes. Also checks that the gate fails a run whose digest
disagrees with an earlier run of the seed, and that the command fails
without printing a result where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 300


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_gate_fails_on_a_changed_digest():
    work_dir = HERE / ".work" / "simulate" / "seed424242-tiny"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    (work_dir / "digest.json").write_text(json.dumps({"digest": "0" * 64}))
    try:
        proc = run_bench(ROOT, "--workload", "simulate", "--seed", "424242", "--seconds", "0.2",
                         "--trace", "0", "--size", "tiny")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    assert proc.returncode == 1
    result = result_line(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "GATE VIOLATION" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
