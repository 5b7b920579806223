#!/usr/bin/env python3
"""Benchmark of the BAAT reproduction: one workload per invocation.

Timed run (every end-to-end metric, with output checks)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Traced run (every per-layer metric)::

    python3 perfbench/run.py --workload fleet_day --seed 1 --seconds 30 --trace 1

Steadiness report (every workload, repeated with alternating order)::

    python3 perfbench/run.py --report --seed 1

Run from the repository root. Each set-up is timed in a fresh
interpreter running ``perfbench/workloads.py``; the timed run reuses the
last of them. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every output check passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Dict, List, Optional, Tuple

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"

#: Set-ups timed per timed run; ``setup_s`` is their median.
SETUPS = 7
#: Runs of each workload in a steadiness report.
REPORT_RUNS = 10
#: Seed whose per-cell digests are pinned in ``goldens.json``.
GOLDEN_SEED = 1
#: A workload process that has not answered by then is killed.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not path.is_file():
        raise BenchError(f"no repro sources or BENCHMARK.json under {ROOT}")
    with open(path) as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_BACKEND", None)
    return env


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """One stdout line of ``proc``, or BenchError past ``deadline``."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=max(0.0, deadline - monotonic())):
            raise BenchError("workload process timed out")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"workload process exited early (code {proc.wait()})")
    return line


def send_last(proc: subprocess.Popen, command: str) -> None:
    """Send the workload process its one command and close its stdin."""
    try:
        proc.stdin.write(command + "\n")
        proc.stdin.close()
    except BrokenPipeError:
        pass


def measure(args: argparse.Namespace) -> Tuple[List[float], float, Dict[str, Any]]:
    """Time the set-ups, then run the measured pass in the last process.

    Also returns the host-speed scale of the set-ups (see hostclock.py).
    """
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--shape", args.shape,
    ]
    deadline = monotonic() + DEADLINE_S
    setups: List[float] = []
    clock = HostClock()
    n_setups = 1 if args.trace else SETUPS
    for i in range(n_setups):
        clock.sample()
        t0 = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            if read_line(proc, deadline).strip() != "ready":
                raise BenchError("workload process did not report ready")
            setups.append(perf_counter() - t0)
            if i + 1 < n_setups:
                send_last(proc, "exit")
                proc.wait(timeout=max(1.0, deadline - monotonic()))
                continue
            send_last(proc, "run")
            out = json.loads(read_line(proc, deadline))
            if proc.wait(timeout=max(1.0, deadline - monotonic())) != 0:
                raise BenchError(f"workload process failed (code {proc.returncode})")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return setups, clock.scale(), out


def check_goldens(args: argparse.Namespace, digests: Dict[str, str]) -> List[str]:
    """Compare per-cell digests with the pinned ones (golden seed only)."""
    if args.seed != GOLDEN_SEED:
        return []
    with open(args.goldens) as fh:
        pinned = json.load(fh).get(args.shape, {}).get(args.workload, {})
    problems = [
        f"{cell}: digest {value} != golden {pinned[cell]}"
        for cell, value in sorted(digests.items())
        if cell in pinned and pinned[cell] != value
    ]
    if pinned and not set(pinned) & set(digests):
        problems.append("no cell with a golden digest ran")
    return problems


def record_goldens(args: argparse.Namespace, digests: Dict[str, str]) -> None:
    data: Dict[str, Any] = {}
    if args.goldens.is_file():
        with open(args.goldens) as fh:
            data = json.load(fh)
    # Merged, so a timed and a traced run can each pin the cells they run.
    pinned = data.setdefault(args.shape, {}).setdefault(args.workload, {})
    pinned.update(digests)
    data[args.shape][args.workload] = dict(sorted(pinned.items()))
    with open(args.goldens, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_once(args: argparse.Namespace) -> int:
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    setups, setup_scale, out = measure(args)
    problems = list(out["problems"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(out["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups) * setup_scale
    metrics: Dict[str, Dict[str, Any]] = {}
    for m in declared:
        value = values.get(m["name"])
        if value is None and args.trace:
            value = 0.0  # a layer this workload never calls
        if value is None or (not args.trace and not value > 0):
            problems.append(f"metric {m['name']} missing or not positive: {value}")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.record_goldens:
        if args.seed != GOLDEN_SEED:
            raise BenchError(f"goldens are recorded for --seed {GOLDEN_SEED} only")
        record_goldens(args, out["digests"])
    else:
        problems += check_goldens(args, out["digests"])

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        host = dict(out["host"], setup_host_scale=setup_scale)
        for name, value in host.items():
            print(f"(host) {name:33s} {value:>16.6g}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and out["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def report(args: argparse.Namespace) -> int:
    """Repeat every workload, alternating order; print quartile spreads."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    failures = 0
    for i in range(REPORT_RUNS):
        for name in names if i % 2 == 0 else names[::-1]:
            cmd = [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                "--trace", "0", "--shape", args.shape,
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                failures += 1
                print(f"run {i} {name}: FAILED (code {proc.returncode})", file=sys.stderr)
                print(proc.stdout + proc.stderr, file=sys.stderr)
                continue
            for metric, m in result["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
            print(f"run {i} {name}: ok", file=sys.stderr)

    over = 0
    print(f"{'workload':14s} {'metric':26s} {'n':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name in names:
        for metric, vals in values[name].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[metric]
            flag = ""
            if spread > bound:
                flag, over = "OVER BOUND", over + 1
            elif spread > bound / 3:
                flag = "above bound/3"
            print(f"{name:14s} {metric:26s} {len(vals):3d} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {bound:6.2f} {flag}")
    print(json.dumps({"values": values, "failures": failures, "over_bound": over}))
    return 1 if failures or over else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="BAAT reproduction benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="problem size; tiny runs every path in seconds")
    parser.add_argument("--goldens", type=Path, default=GOLDENS,
                        help="per-cell digests checked for the golden seed")
    parser.add_argument("--record-goldens", action="store_true",
                        help="write this run's digests as the goldens")
    parser.add_argument("--report", action="store_true",
                        help="steadiness report over every workload")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.report:
            return report(args)
        if not args.workload:
            parser.error("--workload is required")
        return run_once(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
