"""Golden equivalence: the fleet stepper is bit-identical to the reference.

The vectorized struct-of-arrays fast path (``stepper="fleet"``) promises
*exact* reproduction of the per-node reference stepper — not "close",
the same floats. These tests run both steppers over multi-day traces and
require the full :class:`SimResult`, every recorder series, the SoC
residence/low-SoC accumulators, and the engine RNG's end-of-run state to
match exactly. Any reordering of float operations or RNG draws in the
fast path shows up here as a hard failure.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.policies.factory import make_policy
from repro.datacenter.server import ServerPowerState
from repro.datacenter.workloads import PAPER_WORKLOADS, standard_mix
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass

THREE_DAYS = [DayClass.SUNNY, DayClass.CLOUDY, DayClass.RAINY]


def _workloads(*names):
    return tuple(PAPER_WORKLOADS[n] for n in names)


def _run(scenario: Scenario, policy_name: str, days):
    trace = scenario.trace_generator().days(days)
    sim = Simulation(scenario, make_policy(policy_name), trace, record_series=True)
    result = sim.run()
    return sim, result


def _assert_equivalent(ref_scenario: Scenario, policy_name: str, days):
    fleet_scenario = dataclasses.replace(ref_scenario, stepper="fleet")
    ref_sim, ref = _run(ref_scenario, policy_name, days)
    fleet_sim, fleet = _run(fleet_scenario, policy_name, days)
    _assert_runs_match(ref_sim, ref, fleet_sim, fleet)
    return ref_sim, fleet_sim


def _assert_runs_match(ref_sim, ref, fleet_sim, fleet):

    # Whole-run outcome: frozen dataclass equality covers throughput,
    # downtime, migrations, unserved/feedback energy, and every per-node
    # NodeResult (fade, Ah, metrics, SoC distribution, final SoC).
    assert fleet == ref

    # Recorder series must be the same floats, sample by sample.
    ref_arrays = ref_sim.recorder.as_arrays()
    fleet_arrays = fleet_sim.recorder.as_arrays()
    assert set(fleet_arrays) == set(ref_arrays)
    for key, ref_arr in ref_arrays.items():
        assert np.array_equal(fleet_arrays[key], ref_arr), key

    # Accumulated distributions (Fig. 18/19 inputs).
    for name in ref_sim.recorder.node_names:
        assert np.array_equal(
            fleet_sim.recorder.soc_time_s[name], ref_sim.recorder.soc_time_s[name]
        )
    assert fleet_sim.recorder.low_soc_time_s == ref_sim.recorder.low_soc_time_s

    # Same number and order of RNG draws: the generators end in the same
    # state, so the equivalence holds for any continuation of the run.
    assert (
        fleet_sim._rng.bit_generator.state == ref_sim._rng.bit_generator.state
    )


class TestGoldenEquivalence:
    """ISSUE acceptance: e-Buff and BAAT over a >= 3-day trace."""

    @pytest.mark.parametrize("policy_name", ["e-buff", "baat"])
    def test_three_day_mixed_trace(self, policy_name):
        scenario = Scenario(n_nodes=6, dt_s=300.0)
        _assert_equivalent(scenario, policy_name, THREE_DAYS)


class TestStressEquivalence:
    """Harder corners: aged fleets, rainy stretches, utility backing."""

    def test_old_batteries_rainy_days(self):
        scenario = Scenario(
            n_nodes=4,
            dt_s=300.0,
            initial_fade=0.12,
            workloads=_workloads("web_serving", "data_analytics", "word_count"),
        )
        _assert_equivalent(
            scenario, "baat", [DayClass.RAINY, DayClass.RAINY, DayClass.CLOUDY]
        )

    def test_utility_budget_low_soc(self):
        scenario = Scenario(
            n_nodes=4,
            dt_s=300.0,
            utility_budget_w=150.0,
            initial_soc=0.5,
            workloads=_workloads("web_serving", "kmeans_clustering"),
        )
        _assert_equivalent(
            scenario, "e-buff", [DayClass.CLOUDY, DayClass.RAINY, DayClass.SUNNY]
        )

    @pytest.mark.parametrize("policy_name", ["baat-s", "baat-h"])
    def test_single_knob_policies(self, policy_name):
        scenario = Scenario(
            n_nodes=3,
            dt_s=300.0,
            workloads=_workloads("web_serving", "data_analytics", "word_count"),
        )
        _assert_equivalent(scenario, policy_name, [DayClass.CLOUDY] * 3)


class TestActionRichFleetEquivalence:
    """A 48-node under-provisioned fleet where every BAAT action class
    fires: slowdown migrations, consolidation epochs, and parks.

    This is the scenario the vectorized control plane must survive: the
    array decision kernels run every pass, but triggers force frequent
    fallbacks into the object-path action ladders, so any drift in the
    batched predicates (thresholds, reserve, rationing, budget, wake
    accounting) diverges the runs and fails the golden comparison.
    """

    def _scenario(self):
        mix = standard_mix()
        profiles = tuple(
            dataclasses.replace(
                mix[i % len(mix)], name=f"{mix[i % len(mix)].name}-{i}"
            )
            for i in range(24)
        )
        return Scenario(
            n_nodes=48,
            dt_s=300.0,
            initial_soc=0.55,
            sunny_day_kwh=24.0,
            workloads=profiles,
        )

    def test_48_node_stressed_baat(self):
        ref_sim, fleet_sim = _assert_equivalent(
            self._scenario(), "baat", THREE_DAYS
        )
        # The comparison is only meaningful if the hard cases actually
        # happened; guard against the scenario rotting into a quiet one.
        result_migrations = sum(
            vm.migrations for vm in fleet_sim.cluster.vms.values()
        )
        assert result_migrations > 0
        assert fleet_sim.policy.monitor.migrations > 0  # Fig.-9 ladder
        assert fleet_sim.policy.consolidations > 0
        parked = sum(1 for n in fleet_sim.cluster if n.server.policy_off)
        assert parked > 0
        # Both steppers took identical actions, not merely similar ones.
        assert ref_sim.policy.consolidations == fleet_sim.policy.consolidations
        assert ref_sim.policy.monitor.migrations == fleet_sim.policy.monitor.migrations
        assert ref_sim.policy.monitor.parks == fleet_sim.policy.monitor.parks
        assert ref_sim.policy.monitor.throttles == fleet_sim.policy.monitor.throttles


class TestServerStateGolden:
    """Server state the fleet power path keeps in arrays.

    Three battery-starved web/analytics hosts brown out, stay down across
    the evening admin-window flip and restart (DOWN -> BOOTING -> UP over
    several 60-s steps) the next morning. Mid-run, object code parks one
    VM-less node and DVFS-throttles another, followed by the documented
    ``refresh_policy_view()`` re-read on the fleet side. Per-step power
    states, the final server objects (downtime, boot timers) and the RNG
    must match the reference exactly, with and without a utility budget.
    """

    DAYS = [DayClass.CLOUDY, DayClass.RAINY, DayClass.SUNNY]
    PARK_STEP, UNPARK_STEP, THROTTLE_STEP = 600, 1000, 700

    def _scenario(self, utility_budget_w):
        return Scenario(
            n_nodes=6,
            dt_s=60.0,
            initial_soc=0.3,
            utility_budget_w=utility_budget_w,
            workloads=_workloads("web_serving", "data_analytics", "word_count"),
        )

    def _inject(self, sim):
        """Object-side control actions on VM-less nodes 4 and 5."""
        step = sim.steps_done
        parked, throttled = sim.cluster.nodes[4], sim.cluster.nodes[5]
        if step == self.PARK_STEP:
            parked.server.policy_off = True
            parked.discharge_cap_w = 0.0
        elif step == self.UNPARK_STEP:
            parked.server.policy_off = False
            parked.discharge_cap_w = float("inf")
        elif step == self.THROTTLE_STEP:
            throttled.server.set_freq_index(2)
        else:
            return
        assert not parked.server.vms and not throttled.server.vms
        if sim._fleet is not None:
            sim._fleet.refresh_policy_view()

    @staticmethod
    def _server_state(sim):
        return [
            (
                n.server.state,
                n.server.downtime_s,
                n.server._boot_remaining_s,
                n.server.freq_index,
                n.server.policy_off,
                n.server.admin_off,
            )
            for n in sim.cluster
        ]

    @pytest.mark.parametrize("utility_budget_w", [0.0, 40.0])
    def test_restart_cycles_parks_and_throttles(self, utility_budget_w):
        scenario = self._scenario(utility_budget_w)
        sims = []
        for stepper in ("reference", "fleet"):
            sc = dataclasses.replace(scenario, stepper=stepper)
            trace = sc.trace_generator().days(self.DAYS)
            sims.append(
                Simulation(sc, make_policy("e-buff"), trace, record_series=True)
            )
        ref_sim, fleet_sim = sims
        booted = down_overnight = 0
        while ref_sim.steps_done < ref_sim.steps_total:
            for sim in sims:
                self._inject(sim)
                sim.step_once()
            states = [n.server.state for n in fleet_sim.cluster]
            # Restart, brownout and boot completion reach the objects in
            # the same step.
            assert states == [n.server.state for n in ref_sim.cluster]
            booted += states.count(ServerPowerState.BOOTING)
            if fleet_sim.cluster.nodes[0].server.admin_off:
                down_overnight += states.count(ServerPowerState.DOWN)
        ref, fleet = ref_sim.run(), fleet_sim.run()
        _assert_runs_match(ref_sim, ref, fleet_sim, fleet)
        assert self._server_state(fleet_sim) == self._server_state(ref_sim)
        # Guard against the scenario going quiet.
        assert booted > 0 and down_overnight > 0
        assert fleet.total_downtime_s > 0.0
        assert fleet_sim.cluster.nodes[5].server.freq_index == 2


class TestTracedEquivalence:
    """The golden contract extends to telemetry: tracing either stepper
    yields the same event stream, in per-node events and in columnar
    frames, and a frame-mode trace replays to the engine's metrics.
    """

    DAYS = [DayClass.CLOUDY, DayClass.SUNNY]

    def _traced_events(self, scenario, telemetry):
        from repro.obs import BUS, TELEMETRY, TelemetryPolicy, parse_telemetry

        BUS.clear_sinks()
        TELEMETRY.set_policy(parse_telemetry(telemetry))
        try:
            with BUS.capture(maxlen=None) as sink:
                _run(scenario, "baat", self.DAYS)
                return [e.to_dict() for e in sink.events]
        finally:
            BUS.clear_sinks()
            TELEMETRY.set_policy(TelemetryPolicy())

    def _both_streams(self, telemetry):
        scenario = Scenario(n_nodes=6, dt_s=300.0)
        ref = self._traced_events(scenario, telemetry)
        fleet = self._traced_events(
            dataclasses.replace(scenario, stepper="fleet"), telemetry
        )
        return ref, fleet

    @staticmethod
    def _split_meta(events):
        meta = [e for e in events if e["kind"] == "trace_meta"]
        rest = [e for e in events if e["kind"] != "trace_meta"]
        return meta, rest

    def test_event_mode_streams_identical(self):
        ref, fleet = self._both_streams("full-events")
        ref_meta, ref_rest = self._split_meta(ref)
        fleet_meta, fleet_rest = self._split_meta(fleet)
        # trace_meta records which stepper ran — the only sanctioned
        # difference between the two traces.
        assert [m["stepper"] for m in ref_meta] == ["reference"]
        assert [m["stepper"] for m in fleet_meta] == ["fleet"]
        assert fleet_rest == ref_rest
        samples = [e for e in ref_rest if e["kind"] == "battery_sample"]
        steps = len(self.DAYS) * int(86400 / 300)
        assert len(samples) == 6 * steps

    def test_frame_mode_streams_identical(self):
        ref, fleet = self._both_streams("full")
        _, ref_rest = self._split_meta(ref)
        _, fleet_rest = self._split_meta(fleet)
        assert fleet_rest == ref_rest
        frames = [e for e in ref_rest if e["kind"] == "battery_frame"]
        assert len(frames) == len(self.DAYS) * int(86400 / 300)
        assert not any(e["kind"] == "battery_sample" for e in ref_rest)

    def test_frame_trace_replays_to_engine_metrics(self, tmp_path):
        import math

        from repro.obs import (
            FleetHealthModel,
            disable_observability,
            enable_observability,
        )
        from repro.obs.health import METRIC_NAMES

        scenario = Scenario(n_nodes=6, dt_s=300.0, stepper="fleet")
        path = str(tmp_path / "frames.jsonl")
        enable_observability(path, telemetry="full")
        try:
            sim, _ = _run(scenario, "baat", self.DAYS)
        finally:
            disable_observability()
        model = FleetHealthModel.from_trace(path)
        assert len(model.runs) == 1
        run = model.runs[0]
        assert run.telemetry == "full"
        assert run.stepper == "fleet"
        for node in sim.cluster:
            engine_side = node.tracker.lifetime()
            replay_side = run.batteries[node.name].metrics()
            for name in METRIC_NAMES + ("dr_peak",):
                a = getattr(engine_side, name)
                b = getattr(replay_side, name)
                if math.isinf(a) or math.isinf(b):
                    assert a == b, name
                else:
                    assert b == pytest.approx(a, rel=1e-6, abs=1e-9), name


class TestStepperSelection:
    def test_unknown_stepper_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(stepper="warp")

    def test_fleet_requires_per_server(self):
        with pytest.raises(ConfigurationError):
            Scenario(stepper="fleet", architecture="rack-pool")

    def test_fleet_stepper_builds_fleet_power_path(self):
        from repro.sim.fleet import FleetPowerPath

        scenario = Scenario(n_nodes=3, dt_s=300.0, stepper="fleet")
        trace = scenario.trace_generator().day(DayClass.SUNNY)
        sim = Simulation(scenario, make_policy("e-buff"), trace)
        assert isinstance(sim.power_path, FleetPowerPath)
