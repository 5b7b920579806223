"""Workload process of the benchmark: sets up, warms up, then measures.

``run.py`` starts this script once per set-up it times, in a fresh
interpreter, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds S \
        --trace 0|1 --shape full|tiny

The script imports ``repro``, builds the workload's inputs from the seed,
runs one untimed warm-up cell and prints ``ready``. It then reads one
command from stdin: ``exit`` ends it (a set-up-only process), ``run``
measures for ``--seconds`` and prints one JSON line with the metrics,
the per-cell digests and any consistency problems found.

Workloads are closed loops: the next cell (or round of submissions)
starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import spans
from hostclock import HostClock
from repro.campaign import RunSpec, run_campaign
from repro.core.policies.factory import POLICY_NAMES
from repro.obs import (
    ALERTS,
    BUS,
    REGISTRY,
    SPANS,
    disable_observability,
    enable_observability,
)
from repro.obs.provenance import validate_trace
from repro.service import ServiceClient, wait_for_socket
from repro.sim.results import SimResult
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Problem sizes. ``tiny`` keeps every code path of ``full`` but runs in
#: seconds; the smoke tests use it.
SHAPES: Dict[str, Dict[str, Any]] = {
    "full": {
        "paper_nodes": 6,
        "paper_dt": 60.0,
        "fleet_day_nodes": 4096,
        "fleet_traced_nodes": 1024,
        "warm_fleet_nodes": 64,
    },
    "tiny": {
        "paper_nodes": 6,
        "paper_dt": 300.0,
        "fleet_day_nodes": 64,
        "fleet_traced_nodes": 32,
        "warm_fleet_nodes": 8,
    },
}

#: Fig. 13/14 weather and battery-age axes of the paper sweep.
WEATHERS = (DayClass.SUNNY, DayClass.CLOUDY, DayClass.RAINY)
AGES = (("fresh", 0.0), ("aged", 0.12))

#: Service campaigns: 6-node, 1-day, dt=300 cells of all four policies.
SERVICE_CELL = {"days": 1, "dt": 300.0, "nodes": 6, "day_mix": "cloudy"}
SERVICE_CELL_STEPS = SERVICE_CELL["nodes"] * int(86400 / SERVICE_CELL["dt"])
SERVICE_CLIENTS = 2
#: Rounds of the default seed whose cells have golden digests.
SERVICE_GOLDEN_ROUNDS = 4
#: Latency samples a run needs before it reports a 95th percentile.
P95_MIN_SAMPLES = 200
#: Fleet steps timed between two host-speed samples (about 0.2 s at
#: 4096 nodes), so the samples spread through a cell.
SEGMENT_STEPS = 24


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def digest(result: SimResult) -> str:
    """Stable hash of every compared field of a result (not its recorder)."""
    fields = tuple(
        getattr(result, f.name) for f in dataclasses.fields(result) if f.compare
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def summary_digest(summary: Dict[str, Any]) -> str:
    """Stable hash of a service ``cell_result`` summary."""
    text = json.dumps(summary, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def node_steps(spec: RunSpec) -> int:
    return spec.scenario.n_nodes * len(spec.trace.power_w)


def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident memory of one process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid``, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return found


def p50_p95(values: List[float]) -> Tuple[float, float]:
    """Median and 95th percentile of a sample.

    Below ``P95_MIN_SAMPLES`` fewer than ten samples lie beyond the 95th
    percentile, which then reads the slowest one or two; the median
    stands in for it.
    """
    p50 = statistics.median(values)
    if len(values) < P95_MIN_SAMPLES:
        return p50, p50
    return p50, statistics.quantiles(values, n=100, method="inclusive")[94]


def reset_obs() -> None:
    """Return every observability singleton to its start-of-process state."""
    disable_observability()
    BUS.clear_sinks()
    REGISTRY.reset()
    ALERTS.reset()
    SPANS.reset()


class Tally:
    """What one measured pass did: timed items, cells, digests, problems."""

    def __init__(self) -> None:
        #: item key -> walls of its repeats; cells and node-steps per item.
        self.walls: Dict[str, List[float]] = {}
        self.cells: Dict[str, int] = {}
        self.steps: Dict[str, int] = {}
        #: distinct cell -> latencies of its repeats.
        self.latencies: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}
        self.problems: List[str] = []
        self.items = 0
        self.wall = 0.0

    def item(self, key: str, wall: float, cells: int, steps: int) -> None:
        self.walls.setdefault(key, []).append(wall)
        self.cells[key] = cells
        self.steps[key] = steps

    def latency(self, cell: str, seconds: float) -> None:
        self.latencies.setdefault(cell, []).append(seconds)

    def latency_samples(self) -> List[float]:
        """One latency per distinct cell: the mean of its repeats."""
        return [statistics.fmean(v) for v in self.latencies.values()]

    def merge(self, other: "Tally") -> None:
        """Add another pass's cells, failures, problems and digests."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        for cell, value in other.digests.items():
            self.record(cell, value)

    def record(self, cell: str, value: str) -> None:
        """Keep a cell's digest; a repeat must reproduce it exactly."""
        old = self.digests.setdefault(cell, value)
        if old != value:
            self.problems.append(f"{cell}: repeat gave digest {value}, first {old}")

    def rates(self) -> Tuple[float, float]:
        """(cells/s, node-steps/s): per item key, the mean wall.

        The host's speed changes in spells of several seconds, so a
        run's items split into fast and slow ones. A median picks one
        group or the other and jumps between runs; the mean moves with
        the share of slow time.
        """
        wall = sum(statistics.fmean(w) for w in self.walls.values())
        return sum(self.cells.values()) / wall, sum(self.steps.values()) / wall


def timed_loop(budget_s: float, n_items: Optional[int], one: Callable[[int], None]) -> int:
    """Run ``one(i)`` until the budget is used up (or ``n_items``).

    Starts another item only if, at the last item's pace, it would end
    less than half an item past the budget; always runs at least one.
    """
    t0 = perf_counter()
    i = 0
    while True:
        ts = perf_counter()
        one(i)
        i += 1
        now = perf_counter()
        if n_items is not None:
            if i >= n_items:
                return i
        elif now - t0 + (now - ts) / 2 > budget_s:
            return i


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload: inputs from the seed, a warm-up, a measured pass."""

    def __init__(self, seed: int, shape: Dict[str, Any], workdir: Path):
        self.seed = seed
        self.shape = shape
        self.workdir = workdir
        self.clock = HostClock()

    def setup(self) -> None:
        self.prepare()
        self.warm_up()

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, tally: Tally, budget_s: float, n_items: Optional[int] = None) -> None:
        t0 = perf_counter()
        tally.items = timed_loop(budget_s, n_items, lambda i: self.item(i, tally))
        tally.wall = perf_counter() - t0

    def item(self, i: int, tally: Tally) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def trace_bytes_per_node_step(self, tally: Tally) -> float:
        raise NotImplementedError

    def metrics(self, tally: Tally) -> Dict[str, float]:
        """End-to-end metrics, in host time scaled by ``hostclock``."""
        scale = self.clock.scale()
        cells_per_s, steps_per_s = tally.rates()
        p50, p95 = p50_p95(tally.latency_samples())
        return {
            "cells_per_s": cells_per_s / scale,
            "node_steps_per_s": steps_per_s / scale,
            "latency_p50_s": p50 * scale,
            "latency_p95_s": p95 * scale,
            "peak_rss_mb": self.peak_rss_mb(),
            "trace_bytes_per_node_step": self.trace_bytes_per_node_step(tally),
        }

    def host(self, tally: Tally) -> Dict[str, float]:
        """Unscaled figures of the pass, printed beside the metrics."""
        return {
            "host_scale": self.clock.scale(),
            "raw_cells_per_s": tally.rates()[0],
        }

    def traced(self, budget_s: float) -> Tuple[Dict[str, float], Tally, Tally]:
        """Per-layer metrics: a pass without spans, then the same items
        again with span wrappers installed. Returns both passes' tallies."""
        plain = Tally()
        self.run(plain, budget_s)
        rec = spans.SpanRecorder()
        spans.install_engine_spans(rec)
        try:
            traced = Tally()
            self.prepare_traced(rec)
            self.run(traced, budget_s, n_items=plain.items)
        finally:
            rec.restore()
        rec.dump(str(self.workdir / "spans.json"))
        out = spans.layer_metrics(rec.summary())
        out["bench.trace_overhead_x"] = traced.wall / plain.wall
        out.update(self.extra_layer_metrics(plain, traced))
        return out, plain, traced

    def prepare_traced(self, rec: spans.SpanRecorder) -> None:
        """Rebuild the inputs under the tracer, so set-up layers show."""
        self.prepare()

    def extra_layer_metrics(self, plain: Tally, traced: Tally) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class PaperSweep(Workload):
    """Fig. 13/14 grid, inline through ``run_campaign(n_workers=1)``.

    One item is one (weather, age) block of the four policies, the unit
    a figure compares.
    """

    name = "paper_sweep"

    def prepare(self) -> None:
        fresh = Scenario(
            n_nodes=self.shape["paper_nodes"], dt_s=self.shape["paper_dt"], seed=self.seed
        )
        generator = fresh.trace_generator()
        traces = {w: generator.days([w]) for w in WEATHERS}
        self.blocks: List[List[RunSpec]] = []
        for weather in WEATHERS:
            for tag, fade in AGES:
                scenario = dataclasses.replace(fresh, initial_fade=fade)
                self.blocks.append(
                    [
                        RunSpec(
                            scenario=scenario,
                            trace=traces[weather],
                            policy=policy,
                            label=f"{policy}/{weather.value}/{tag}",
                        )
                        for policy in POLICY_NAMES
                    ]
                )
        self.result_bytes: Dict[str, float] = {}
        self.rec: Optional[spans.SpanRecorder] = None

    def warm_up(self) -> None:
        report = run_campaign(self.blocks[0][:1], n_workers=1, cache=None)
        if report.failures:
            raise RuntimeError(f"warm-up cell failed: {report.failures[0].errors}")

    def prepare_traced(self, rec: spans.SpanRecorder) -> None:
        self.prepare()
        self.rec = rec

    def item(self, i: int, tally: Tally) -> None:
        block = self.blocks[i % len(self.blocks)]
        gc.collect()
        self.clock.sample()
        t0 = perf_counter()
        if self.rec is not None:
            with self.rec.span("campaign.run"):
                report = run_campaign(block, n_workers=1, cache=None)
        else:
            report = run_campaign(block, n_workers=1, cache=None)
        wall = perf_counter() - t0
        tally.item(f"block{i % len(self.blocks)}", wall, len(block), sum(map(node_steps, block)))
        for outcome in report.outcomes:
            tally.attempted += 1
            if not outcome.ok:
                tally.failed += 1
                tally.problems.append(f"{outcome.label}: {outcome.errors}")
                continue
            tally.latency(outcome.label, outcome.duration_s)
            tally.record(outcome.label, digest(outcome.result))
            if outcome.label not in self.result_bytes:
                size = len(pickle.dumps(outcome.result, pickle.HIGHEST_PROTOCOL))
                self.result_bytes[outcome.label] = size / node_steps(outcome.spec)

    def trace_bytes_per_node_step(self, tally: Tally) -> float:
        return statistics.mean(self.result_bytes.values())

    def extra_layer_metrics(self, plain: Tally, traced: Tally) -> Dict[str, float]:
        per_step = statistics.mean(self.result_bytes.values())
        steps = node_steps(self.blocks[0][0])
        return {"campaign.result_kb": per_step * steps / 1024.0}


class FleetCells(Workload):
    """Fixed-shape fleet-stepper cells; subclasses fix policy, days and size.

    Cells cycle over a few seeds derived from the benchmark seed. A
    cell's cost depends on the weather drawn (by up to about 20% between
    seeds), and the mean over several draws moves less from one
    benchmark seed to the next.
    """

    name: str
    policy: str
    days: Tuple[DayClass, ...]
    nodes_key: str
    subseeds = 4

    def spec_for(self, n_nodes: int, days, seed: Optional[int] = None) -> RunSpec:
        seed = self.seed if seed is None else seed
        scenario = Scenario(n_nodes=n_nodes, dt_s=300.0, stepper="fleet", seed=seed)
        trace = scenario.trace_generator().days(list(days))
        return RunSpec(scenario=scenario, trace=trace, policy=self.policy)

    def make_specs(self) -> None:
        self.specs = [
            self.spec_for(self.shape[self.nodes_key], self.days, seed=self.seed * 1000 + k)
            for k in range(self.subseeds)
        ]
        self.spec = self.specs[0]
        self.result_bytes = 0.0

    def prepare(self) -> None:
        self.make_specs()
        self.sim = self.spec.build_simulation()

    def warm_up(self) -> None:
        self.spec_for(self.shape["warm_fleet_nodes"], self.days[:1]).execute()

    def run_cell(self, sim, tally: Tally, cell: str) -> None:
        """Step ``sim`` to the end in timed segments, then collect."""
        gc.collect()
        wall = 0.0
        while sim.steps_done < sim.steps_total:
            self.clock.sample()
            t0 = perf_counter()
            for _ in range(min(SEGMENT_STEPS, sim.steps_total - sim.steps_done)):
                sim.step_once()
            wall += perf_counter() - t0
        t0 = perf_counter()
        result = sim.run()  # nothing left to step: collects
        wall += perf_counter() - t0
        steps = node_steps(self.spec)
        tally.item(cell, wall, 1, steps)
        tally.attempted += 1
        tally.latency(cell, wall)
        tally.record(cell, digest(result))
        if not self.result_bytes:
            self.result_bytes = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)) / steps

    def item(self, i: int, tally: Tally) -> None:
        # The first cell runs on the simulation set-up built; later ones
        # build theirs outside the timed section.
        k = i % self.subseeds
        sim, self.sim = self.sim, None
        if sim is None:
            sim = self.specs[k].build_simulation()
        self.run_cell(sim, tally, f"{self.name}/{k}")

    def trace_bytes_per_node_step(self, tally: Tally) -> float:
        return self.result_bytes

    def extra_layer_metrics(self, plain: Tally, traced: Tally) -> Dict[str, float]:
        return {"campaign.result_kb": self.result_bytes * node_steps(self.spec) / 1024.0}


class FleetDay(FleetCells):
    """One 4096-node fleet-stepper BAAT run over a cloudy and a sunny day."""

    name = "fleet_day"
    policy = "baat"
    days = (DayClass.CLOUDY, DayClass.SUNNY)
    nodes_key = "fleet_day_nodes"

    def traced(self, budget_s: float) -> Tuple[Dict[str, float], Tally, Tally]:
        """Per-layer metrics of the fleet cells, plus the obs layer's.

        No timed workload runs the obs layer: timed traced fleet cells
        spread too widely on a shared host to gate on. Its metrics come
        from observed cells run here, after this workload's own passes.
        """
        out, plain, traced = super().traced(budget_s)
        observed = FleetTraced(self.seed, self.shape, self.workdir / "observed")
        observed.workdir.mkdir()
        observed.setup()
        obs_out, obs_plain, obs_traced = observed.traced(budget_s)
        out.update({k: v for k, v in obs_out.items() if k.startswith("obs.")})
        out["obs.trace_bytes_per_node_step"] = observed.trace_bytes_per_node_step(obs_plain)
        traced.merge(obs_plain)
        traced.merge(obs_traced)
        return out, plain, traced


class FleetTraced(FleetCells):
    """1024-node fleet-stepper e-buff days traced to JSONL, full telemetry.

    ``fleet_day``'s traced run measures the obs layer on these cells and
    checks every trace with ``validate_trace``. e-buff keeps the array
    control pass with alerts on, so the extra time is the observability
    layer's, not the object control path's. Trace size, too, depends on
    the weather drawn, so it is the mean over the cells' seeds.
    """

    name = "fleet_traced"
    policy = "e-buff"
    days = (DayClass.CLOUDY,)
    nodes_key = "fleet_traced_nodes"
    observe = True

    def prepare(self) -> None:
        self.make_specs()
        self.trace_bytes: Dict[int, int] = {}

    def warm_up(self) -> None:
        spec = self.spec_for(self.shape["warm_fleet_nodes"], self.days)
        path = self.workdir / "warm.jsonl"
        enable_observability(str(path), telemetry="full")
        try:
            spec.execute()
        finally:
            reset_obs()
        path.unlink()

    def item(self, i: int, tally: Tally) -> None:
        k = i % self.subseeds
        path = self.workdir / f"trace-{i}.jsonl"
        reset_obs()
        if self.observe:
            enable_observability(str(path), telemetry="full")
        try:
            self.run_cell(self.specs[k].build_simulation(), tally, f"{self.name}/{k}")
        finally:
            reset_obs()
        if not self.observe:
            return
        size = path.stat().st_size
        tally.record(f"{self.name}/{k}/trace_bytes", str(size))
        check = validate_trace(str(path))
        if not check.ok:
            tally.failed += 1
            tally.problems.append(f"trace {i} invalid: {check.summary()}")
        self.trace_bytes[k] = size
        path.unlink()

    def trace_bytes_per_node_step(self, tally: Tally) -> float:
        return statistics.mean(self.trace_bytes.values()) / node_steps(self.spec)

    def extra_layer_metrics(self, plain: Tally, traced: Tally) -> Dict[str, float]:
        # The same cells with the observability layer off.
        self.observe = False
        try:
            off = Tally()
            self.run(off, 0.0, n_items=plain.items)
        finally:
            self.observe = True
        out = super().extra_layer_metrics(plain, traced)
        out["obs.overhead_x"] = off.rates()[1] / plain.rates()[1]
        return out


class ServiceMixed(Workload):
    """A ``repro serve`` daemon driven by two closed-loop clients.

    One round: both clients submit the same fresh campaign together (one
    executes and writes the cache, the other joins in flight), then each
    resubmits three cells of the previous round's campaign (cache reads).
    """

    name = "service_mixed"

    def prepare(self) -> None:
        self.policies = list(POLICY_NAMES)
        self.daemon: Optional[subprocess.Popen] = None
        self.spans_file: Optional[Path] = None
        self.cells: List[Dict[str, Any]] = []
        self.start_daemon(traced=False)

    def campaign(self, r: int, policies: List[str]) -> Dict[str, Any]:
        """Round ``r``'s fresh campaign (round -1 is the warm-up's)."""
        return dict(SERVICE_CELL, seed=self.seed * 100_000 + r + 1, policies=policies)

    def start_daemon(self, traced: bool) -> None:
        workers = min(SERVICE_CLIENTS, os.cpu_count() or 1)
        tag = "traced" if traced else "plain"
        # Relative to the repository root, where both processes run: a
        # unix socket path must stay short.
        rel = os.path.relpath(self.workdir, ROOT)
        self.socket = os.path.join(rel, f"{tag}.sock")
        self.cache_dir = self.workdir / f"cache-{tag}"
        serve_args = [
            "--socket", self.socket,
            "--cache-dir", str(self.cache_dir),
            "--cache-backend", "dir",
            "--workers", str(workers),
        ]
        if traced:
            self.spans_file = self.workdir / "daemon-spans.json"
            cmd = [sys.executable, str(HERE / "daemon.py"), str(self.spans_file), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.daemon = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        wait_for_socket(self.socket, timeout_s=60.0)

    def stop_daemon(self) -> None:
        if self.daemon is None:
            return
        try:
            with ServiceClient(socket_path=self.socket, timeout_s=30) as client:
                client.shutdown()
            self.daemon.wait(timeout=60)
        finally:
            if self.daemon.poll() is None:
                self.daemon.kill()
                self.daemon.wait(timeout=60)
            self.daemon = None

    def warm_up(self) -> None:
        # More cells than pool workers, so the whole pool is started.
        with ServiceClient(socket_path=self.socket, timeout_s=120) as client:
            client.submit_wait(self.campaign(-1, self.policies))

    def submit(self, client: ServiceClient, r: int, c: int, tally: Tally, policies: List[str]) -> int:
        """One submission; every cell_result is kept. Returns cell count."""
        campaign = self.campaign(c, policies)
        starts: Dict[str, float] = {}
        n = 0
        t0 = perf_counter()
        for line in client.submit(campaign):
            kind = line.get("kind")
            now = perf_counter() - t0
            if kind == "cell_start":
                starts[line["label"]] = now
            elif kind == "cell_result":
                n += 1
                self.cells.append(
                    {
                        "round": r,
                        "campaign": c,
                        "seed": campaign["seed"],
                        "policy": line["label"],
                        "source": line["source"],
                        "ok": line["ok"],
                        "attempts": line["attempts"],
                        "latency": now,
                        "start": starts.get(line["label"]),
                        "summary": line.get("summary"),
                    }
                )
            elif kind == "service_error":
                tally.problems.append(f"round {r}: {line.get('error')}")
        return n

    def run(self, tally: Tally, budget_s: float, n_items: Optional[int] = None) -> None:
        first = len(self.cells)
        barrier = threading.Barrier(SERVICE_CLIENTS + 1)
        state = {"round": 0, "stop": False}
        counts = [0] * SERVICE_CLIENTS
        errors: List[str] = []
        shares = [self.policies[:3], self.policies[1:]]

        def client_loop(slot: int) -> None:
            try:
                with ServiceClient(socket_path=self.socket, timeout_s=300) as client:
                    while True:
                        barrier.wait()
                        if state["stop"]:
                            return
                        r = state["round"]
                        n = self.submit(client, r, r, tally, self.policies)
                        n += self.submit(client, r, r - 1, tally, shares[slot])
                        counts[slot] = n
                        barrier.wait()
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                errors.append(f"client {slot}: {type(exc).__name__}: {exc}")
                barrier.abort()

        threads = [
            threading.Thread(target=client_loop, args=(slot,), daemon=True)
            for slot in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()

        def one(r: int) -> None:
            state["round"] = r
            gc.collect()
            self.clock.sample()
            t0 = perf_counter()
            barrier.wait()
            barrier.wait()
            wall = perf_counter() - t0
            cells = sum(counts)
            tally.item("round", wall, cells, cells * SERVICE_CELL_STEPS)

        t0 = perf_counter()
        try:
            tally.items = timed_loop(budget_s, n_items, one)
            tally.wall = perf_counter() - t0
            state["stop"] = True
            barrier.wait()
        except threading.BrokenBarrierError:
            tally.problems.extend(errors or ["client barrier broken"])
        for thread in threads:
            thread.join(timeout=60)
        self.tally_cells(self.cells[first:], tally)

    def tally_cells(self, cells: List[Dict[str, Any]], tally: Tally) -> None:
        by_key: Dict[Tuple[int, str], Dict[str, str]] = {}
        for n, cell in enumerate(cells):
            tally.attempted += 1
            if not cell["ok"]:
                tally.failed += 1
                tally.problems.append(f"{cell['seed']}/{cell['policy']} failed")
                continue
            # Each submitted cell is a request of its own.
            tally.latency(f"request{n}", cell["latency"])
            value = summary_digest(cell["summary"])
            sources = by_key.setdefault((cell["seed"], cell["policy"]), {})
            if cell["source"] == "executed" and "executed" in sources:
                tally.problems.append(f"{cell['seed']}/{cell['policy']} executed twice")
            sources.setdefault(cell["source"], value)
            if len(set(sources.values())) > 1:
                tally.problems.append(
                    f"{cell['seed']}/{cell['policy']}: results differ by source {sources}"
                )
            if cell["campaign"] < SERVICE_GOLDEN_ROUNDS:
                tally.record(f"c{cell['campaign']}/{cell['policy']}", value)

    def peak_rss_mb(self) -> float:
        pids = [self.daemon.pid, *descendants(self.daemon.pid)]
        total = 0.0
        for pid in pids:
            try:
                total += vm_hwm_mb(pid)
            except OSError:
                pass
        return total

    def cache_bytes(self) -> Tuple[int, int]:
        """(bytes, entries) of the daemon's on-disk cache."""
        files = [p for p in self.cache_dir.rglob("*.pkl")]
        return sum(p.stat().st_size for p in files), len(files)

    def trace_bytes_per_node_step(self, tally: Tally) -> float:
        size, entries = self.cache_bytes()
        return size / (entries * SERVICE_CELL_STEPS)

    def prepare_traced(self, rec: spans.SpanRecorder) -> None:
        self.stop_daemon()
        self.start_daemon(traced=True)
        self.warm_up()

    def extra_layer_metrics(self, plain: Tally, traced: Tally) -> Dict[str, float]:
        cells = [c for c in self.cells[len(self.cells) - traced.attempted:] if c["ok"]]
        with ServiceClient(socket_path=self.socket, timeout_s=30) as client:
            stats = client.status()["stats"]
        size, entries = self.cache_bytes()
        self.stop_daemon()
        daemon = spans.load_summary(str(self.spans_file))
        out = {
            k: v
            for k, v in spans.layer_metrics(daemon).items()
            if k.startswith("campaign.") and k != "campaign.overhead_share"
        }
        out["campaign.result_kb"] = size / entries / 1024.0
        executed = [c for c in cells if c["source"] == "executed" and c["start"] is not None]
        out["service.wait_p50_s"] = statistics.median(c["start"] for c in executed)
        out["service.exec_p50_s"] = statistics.median(
            c["latency"] - c["start"] for c in executed
        )
        for source in ("executed", "dedupe", "cache"):
            lat = [c["latency"] for c in cells if c["source"] == source]
            out[f"service.share.{source}"] = len(lat) / len(cells)
            out[f"service.latency_p50_s.{source}"] = statistics.median(lat) if lat else 0.0
        out["service.pool_rebuilds"] = float(stats["pool_rebuilds"])
        out["service.retries"] = float(sum(c["attempts"] - 1 for c in executed))
        return out

    def close(self) -> None:
        self.stop_daemon()


WORKLOADS = {w.name: w for w in (PaperSweep, FleetDay, ServiceMixed)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=sorted(SHAPES), default="full")
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SHAPES[args.shape], workdir)
    try:
        workload.setup()
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        tally = Tally()
        host: Dict[str, float] = {}
        if args.trace:
            metrics, plain, traced = workload.traced(args.seconds / 4.0)
            tally.merge(plain)
            tally.merge(traced)
        else:
            workload.run(tally, args.seconds)
            metrics = workload.metrics(tally)
            host = workload.host(tally)
        print(
            json.dumps(
                {
                    "metrics": metrics,
                    "host": host,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "digests": tally.digests,
                    "problems": tally.problems,
                }
            ),
            flush=True,
        )
        return 0
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
