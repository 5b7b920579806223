"""Smoke tests of the benchmark itself, on the seconds-long ``tiny`` shape.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--shape", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # The raw rate and the host-speed factor printed beside the metrics
    # give back the scaled rate.
    host = {
        line.split()[1]: float(line.split()[2])
        for line in proc.stdout.splitlines()
        if line.startswith("(host) ")
    }
    scaled = result["metrics"]["cells_per_s"]["value"]
    assert scaled == pytest.approx(host["raw_cells_per_s"] / host["host_scale"], rel=1e-4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                 "--trace", "1", "--shape", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"]
    assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["bench.trace_overhead_x"]["value"] > 0


def test_corrupted_golden_digest_fails_the_check(tmp_path):
    goldens = json.loads((HERE / "goldens.json").read_text())
    first = "e-buff/sunny/fresh"  # the first cell of the first block
    goldens["tiny"]["paper_sweep"][first] = "0" * 16
    corrupted = tmp_path / "goldens.json"
    corrupted.write_text(json.dumps(goldens))
    proc = bench("--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--shape", "tiny", "--goldens", str(corrupted))
    assert proc.returncode == 1
    assert not result_of(proc)["correct"]
    assert f"CHECK FAILED: {first}" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_fleet_digest_is_stepper_independent():
    script = (
        "import dataclasses, workloads as w\n"
        "spec = w.FleetDay(1, w.SHAPES['tiny'], None).spec_for(8, w.FleetDay.days)\n"
        "ref = dataclasses.replace(spec, scenario=dataclasses.replace("
        "spec.scenario, stepper='reference'))\n"
        "print(w.digest(spec.execute()), w.digest(ref.execute()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    fleet, reference = proc.stdout.split()
    assert fleet == reference
