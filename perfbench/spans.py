"""In-memory span tracer for the benchmark's traced mode.

Spans are recorded at layer boundaries by wrapping public methods of the
simulator's classes from here, in the benchmark's own code; nothing in
``src/`` is instrumented. Each span keeps its name, start, end, the span
that was open when it started (its parent) and an optional weight (node
count of a step, truthiness of a control pass). Spans live in flat
arrays while the run goes on and are written out once, at the end.

A layer's *self* time is its span's duration minus the time its child
spans cover. A call nested directly inside a span of the same name (a
subclass method calling the base one) does not open a second span, so
every layer total counts each interval once.
"""

from __future__ import annotations

import functools
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Weigh = Callable[[Any, Any], float]


class SpanRecorder:
    """Collects spans from wrapped methods and benchmark call sites."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.weight = array("d")
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> Optional[int]:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        if stack and self.name_id[stack[-1]] == nid:
            return None
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.weight.append(0.0)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)

    def wrap(self, owner: Any, attr: str, name: str, weigh: Optional[Weigh] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            idx = self._open(name)
            if idx is None:
                return original(obj, *args, **kwargs)
            try:
                result = original(obj, *args, **kwargs)
            finally:
                self._close(idx)
            if weigh is not None:
                self.weight[idx] = weigh(obj, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped method back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, summed weight."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "weight": 0.0}
            for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            row["weight"] += self.weight[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "weight": self.weight.tolist(),
                },
                fh,
            )


def load_summary(path: str) -> Dict[str, Dict[str, float]]:
    """Summary of a span file written by :meth:`SpanRecorder.dump`."""
    with open(path) as fh:
        data = json.load(fh)
    rec = SpanRecorder()
    rec.names = data["names"]
    for key in ("name_id", "parent", "start", "end", "weight"):
        getattr(rec, key).extend(data[key])
    return rec.summary()


def _cluster_size(obj: Any, _result: Any) -> float:
    return float(len(obj.cluster))


def _truthy(_obj: Any, result: Any) -> float:
    return 1.0 if result else 0.0


def _defining(base: type, attr: str) -> List[type]:
    """``base`` and every subclass that defines ``attr`` itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install_engine_spans(rec: SpanRecorder) -> None:
    """Wrap the layer boundaries a simulation crosses, in one process."""
    from repro.battery.unit import BatteryUnit
    from repro.campaign.spec import RunSpec
    from repro.core.policies.base import Policy
    from repro.core.policies.factory import make_policy  # noqa: F401 - registers policies
    from repro.datacenter.power_path import PowerPath
    from repro.obs.bus import TraceBus
    from repro.obs.sinks import JsonlSink
    from repro.obs.telemetry import BatteryTelemetry
    from repro.sim.engine import Simulation
    from repro.sim.fleet import FleetPowerPath
    from repro.sim.recorder import TraceRecorder
    from repro.sim.scenario import Scenario
    from repro.solar.trace import SolarTraceGenerator

    rec.wrap(SolarTraceGenerator, "days", "solar.trace")
    rec.wrap(Scenario, "build_cluster", "datacenter.build_cluster")
    rec.wrap(PowerPath, "step", "datacenter.power", _cluster_size)
    for method in ("discharge", "charge", "rest"):
        rec.wrap(BatteryUnit, method, "battery")
    for cls in _defining(Policy, "control"):
        rec.wrap(cls, "control", "core.control")
    for cls in _defining(Policy, "control_fleet"):
        rec.wrap(cls, "control_fleet", "core.control_fleet", _truthy)
    rec.wrap(Simulation, "__init__", "sim.build")
    rec.wrap(Simulation, "step_once", "sim.step", _cluster_size)
    rec.wrap(FleetPowerPath, "step", "sim.power", _cluster_size)
    rec.wrap(TraceRecorder, "record", "sim.record")
    rec.wrap(TraceRecorder, "record_arrays", "sim.record")
    rec.wrap(RunSpec, "cache_key", "campaign.key")
    rec.wrap(RunSpec, "execute", "campaign.execute")
    rec.wrap(TraceBus, "emit", "obs.emit")
    rec.wrap(BatteryTelemetry, "record_fleet_step", "obs.telemetry")
    rec.wrap(JsonlSink, "emit", "obs.sink")


def install_service_spans(rec: SpanRecorder) -> None:
    """Wrap the campaign-layer boundaries the service daemon crosses."""
    from repro.campaign.cache import ResultCache
    from repro.campaign.spec import RunSpec

    rec.wrap(RunSpec, "cache_key", "campaign.key")
    rec.wrap(ResultCache, "get", "campaign.cache_get")
    rec.wrap(ResultCache, "put", "campaign.cache_put")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics derivable from span summaries alone.

    A layer the workload never calls reads 0.
    """
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "weight": 0.0}

    def get(name: str) -> Dict[str, float]:
        return spans.get(name, zero)

    us = 1e6
    ref_power, fleet_power = get("datacenter.power"), get("sim.power")
    battery, step = get("battery"), get("sim.step")
    control, fleet_pass = get("core.control"), get("core.control_fleet")
    # A fleet control tick calls control_fleet and, when that returns
    # False, falls back to control: ticks = control calls + True passes.
    ticks = control["calls"] + fleet_pass["weight"]
    run, execute = get("campaign.run"), get("campaign.execute")
    emit, telemetry, sink = get("obs.emit"), get("obs.telemetry"), get("obs.sink")

    def mean(name: str, scale: float = 1.0) -> float:
        row = get(name)
        return _ratio(row["total_s"], row["calls"], scale)

    return {
        "solar.trace_s": mean("solar.trace"),
        "datacenter.build_cluster_s": mean("datacenter.build_cluster"),
        "datacenter.power_us_per_node_step": _ratio(
            ref_power["total_s"], ref_power["weight"], us
        ),
        "battery.calls_per_node_step": _ratio(battery["calls"], ref_power["weight"]),
        "battery.us_per_call": mean("battery", us),
        "core.control_us_per_tick": _ratio(
            control["total_s"] + fleet_pass["total_s"], ticks, us
        ),
        "core.fleet_pass_ratio": _ratio(fleet_pass["weight"], fleet_pass["calls"]),
        "sim.step_us_per_node_step": _ratio(step["total_s"], step["weight"], us),
        "sim.power_us_per_node_step": _ratio(
            fleet_power["total_s"], fleet_power["weight"], us
        ),
        "sim.power_share": _ratio(
            ref_power["total_s"] + fleet_power["total_s"], step["total_s"]
        ),
        "sim.record_us_per_step": mean("sim.record", us),
        "sim.build_s": mean("sim.build"),
        "campaign.key_us": mean("campaign.key", us),
        "campaign.cache_get_us": mean("campaign.cache_get", us),
        "campaign.cache_put_us": mean("campaign.cache_put", us),
        "campaign.overhead_share": _ratio(
            run["total_s"] - execute["total_s"], run["total_s"]
        )
        if run["calls"]
        else 0.0,
        "obs.events_per_step": _ratio(emit["calls"], step["calls"]),
        "obs.emit_us_per_event": _ratio(emit["self_s"], emit["calls"], us),
        "obs.telemetry_us_per_step": _ratio(telemetry["self_s"], telemetry["calls"], us),
        "obs.sink_us_per_event": _ratio(sink["self_s"], sink["calls"], us),
    }
