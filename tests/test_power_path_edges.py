"""Edge-case tests for the per-step power router.

Pins down the corner behaviours the hot-path fixes touched: the order in
which a capped utility budget is consumed, the brownout tolerance band
(>2 W / >2 % of the deficit), the rule that a battery which discharged
this step cannot also charge, the UPS restart hysteresis around
``RESTART_SOC`` with its drawing-nodes solar divisor, and the
one-RNG-draw-per-step utilisation contract.

The budget, brownout and restart classes run against both routers: the
reference :class:`PowerPath` and the array-native
:class:`~repro.sim.fleet.FleetPowerPath` (``*Fleet`` subclasses).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.battery.unit import BatteryUnit
from repro.core.policies.factory import make_policy
from repro.datacenter.cluster import Cluster
from repro.datacenter.node import Node
from repro.datacenter.power_path import RESTART_SOC, PowerFlows, PowerPath
from repro.datacenter.server import Server, ServerParams, ServerPowerState
from repro.datacenter.vm import VM
from repro.datacenter.workloads import PAPER_WORKLOADS
from repro.sim.engine import Simulation
from repro.sim.fleet import FleetPowerPath
from repro.sim.recorder import TraceRecorder
from repro.sim.scenario import Scenario
from repro.solar.weather import DayClass


def _node(name: str, soc: float = 1.0, idle_w: float = 60.0, peak_w: float = 150.0):
    """A bare node: idle server (no VMs) + fresh battery at ``soc``."""
    server = Server(params=ServerParams(idle_w=idle_w, peak_w=peak_w), name=name)
    battery = BatteryUnit(name=f"{name}/battery", initial_soc=soc)
    return Node.build(name, server=server, battery=battery)


class _Router:
    """Builds the router under test; ``*Fleet`` subclasses swap in the
    array-native path and write its arrays back after each step so the
    node objects can be inspected the same way."""

    path_cls = PowerPath

    def route(self, nodes, utility_budget_w=0.0):
        return self.path_cls(Cluster(nodes), utility_budget_w=utility_budget_w)

    @staticmethod
    def step(path, **kwargs) -> PowerFlows:
        flows = path.step(**kwargs)
        fleet = getattr(path, "fleet", None)
        if fleet is not None:
            fleet.materialize()
        return flows


class TestUtilityBudgetOrdering(_Router):
    """The capped grid assist drains in node order, before batteries."""

    def test_budget_covers_first_node_then_batteries_bridge(self):
        nodes = [_node("node0"), _node("node1")]
        path = self.route(nodes, utility_budget_w=60.0)
        flows = self.step(path, t=0.0, dt=60.0, solar_w=0.0)
        # node0's whole 60 W idle deficit came from the grid; node1 had
        # to draw its own battery.
        assert flows.utility_to_load_w == pytest.approx(60.0)
        assert nodes[0].battery.sample().current_a == 0.0
        assert nodes[1].battery.sample().current_a > 0.0
        assert flows.battery_to_load_w == pytest.approx(60.0, rel=0.05)
        assert flows.unserved_w == 0.0
        assert flows.browned_out_nodes == 0

    def test_partial_budget_splits_across_nodes_in_order(self):
        nodes = [_node("node0"), _node("node1")]
        path = self.route(nodes, utility_budget_w=90.0)
        flows = self.step(path, t=0.0, dt=60.0, solar_w=0.0)
        # 60 W to node0, the remaining 30 W to node1; node1's battery
        # bridges only its residual ~30 W.
        assert flows.utility_to_load_w == pytest.approx(90.0)
        assert nodes[0].battery.sample().current_a == 0.0
        assert flows.battery_to_load_w == pytest.approx(30.0, rel=0.05)

    def test_exhausted_budget_leaves_batteries_carrying_everything(self):
        nodes = [_node("node0"), _node("node1")]
        path = self.route(nodes, utility_budget_w=0.0)
        flows = self.step(path, t=0.0, dt=60.0, solar_w=0.0)
        assert flows.utility_to_load_w == 0.0
        assert flows.battery_to_load_w == pytest.approx(120.0, rel=0.05)


class TestBrownoutToleranceBand(_Router):
    """A server browns out only on a materially unmet deficit."""

    def test_sub_two_watt_sag_is_tolerated(self):
        node = _node("node0")
        node.discharge_cap_w = 59.0  # 1 W short of the 60 W idle demand
        path = self.route([node])
        flows = self.step(path, t=0.0, dt=60.0, solar_w=0.0)
        assert flows.browned_out_nodes == 0
        assert flows.unserved_w == 0.0
        assert node.server.state is ServerPowerState.UP

    def test_two_percent_band_scales_with_deficit(self):
        # 200 W deficit: the band is max(2, 0.02*200) = 4 W, so a 3 W
        # shortfall — although above the absolute 2 W floor — is tolerated.
        node = _node("node0", idle_w=200.0, peak_w=300.0)
        node.discharge_cap_w = 197.0
        path = self.route([node])
        flows = self.step(path, t=0.0, dt=60.0, solar_w=0.0)
        assert flows.browned_out_nodes == 0
        assert node.server.state is ServerPowerState.UP

    def test_material_shortfall_browns_out(self):
        node = _node("node0")
        node.discharge_cap_w = 40.0  # 20 W short of 60 W
        path = self.route([node])
        flows = self.step(path, t=0.0, dt=60.0, solar_w=0.0)
        assert flows.browned_out_nodes == 1
        assert flows.unserved_w == pytest.approx(20.0, rel=0.05)
        assert node.server.state is ServerPowerState.DOWN
        assert node.unserved_wh > 0.0


class TestChargeExcludesDischargedBatteries:
    """No battery both discharges and charges within one routing step.

    The invariant is checked over a whole cloudy-day run (where both
    discharging and charging genuinely occur) by instrumenting every
    battery and the power path's step counter.
    """

    def test_invariant_over_cloudy_day(self):
        scenario = Scenario(
            n_nodes=3,
            dt_s=300.0,
            manufacturing_variation=False,
            initial_soc=0.6,
            workloads=tuple(
                PAPER_WORKLOADS[n]
                for n in ("web_serving", "data_analytics", "word_count")
            ),
        )
        trace = scenario.trace_generator().day(DayClass.CLOUDY)
        sim = Simulation(scenario, make_policy("e-buff"), trace)

        step_idx = {"i": -1}
        discharges: set = set()
        charges: set = set()

        def _wrap(battery, name):
            orig_discharge, orig_charge = battery.discharge, battery.charge

            def discharge(power_w, dt, strict=False):
                discharges.add((step_idx["i"], name))
                return orig_discharge(power_w, dt, strict=strict)

            def charge(power_w, dt):
                charges.add((step_idx["i"], name))
                return orig_charge(power_w, dt)

            battery.discharge, battery.charge = discharge, charge

        for node in sim.cluster:
            _wrap(node.battery, node.name)
        orig_step = sim.power_path.step

        def step(*args, **kwargs):
            step_idx["i"] += 1
            return orig_step(*args, **kwargs)

        sim.power_path.step = step
        sim.run()

        assert discharges, "run never discharged a battery (vacuous test)"
        assert charges, "run never charged a battery (vacuous test)"
        assert not discharges & charges, (
            "a battery charged in the same step it discharged"
        )


class TestRestartHysteresis(_Router):
    """A cut-off server stays down until its battery clears RESTART_SOC
    or the solar share alone can carry it."""

    def test_below_restart_soc_stays_down(self):
        node = _node("node0", soc=RESTART_SOC - 0.05)
        node.server.state = ServerPowerState.DOWN
        path = self.route([node])
        self.step(path, t=0.0, dt=60.0, solar_w=0.0)
        assert node.server.state is ServerPowerState.DOWN

    def test_recovered_battery_restarts(self):
        node = _node("node0", soc=RESTART_SOC + 0.05)
        node.server.state = ServerPowerState.DOWN
        path = self.route([node])
        self.step(path, t=0.0, dt=60.0, solar_w=0.0)
        assert node.server.state is ServerPowerState.BOOTING

    def test_solar_share_divides_across_drawing_nodes_only(self):
        # node0 is down with a dead battery, node1 is admin-off, node2 is
        # up. Only node2 is drawing, so the restart estimate shares the
        # solar line across {node2, node0} = 2 nodes, not all 3. 130 W of
        # solar gives node0 a 65 W prospect >= its 60 W idle -> restart.
        # The pre-fix divisor (all nodes + 1) would see 130/4 = 32.5 W
        # and wrongly keep the server down.
        nodes = [_node("node0", soc=0.05), _node("node1"), _node("node2")]
        nodes[0].server.state = ServerPowerState.DOWN
        nodes[1].server.admin_off = True
        path = self.route(nodes)
        self.step(path, t=0.0, dt=60.0, solar_w=130.0)
        assert nodes[0].server.state is ServerPowerState.BOOTING

    def test_insufficient_solar_and_dead_battery_stays_down(self):
        nodes = [_node("node0", soc=0.05), _node("node2")]
        nodes[0].server.state = ServerPowerState.DOWN
        path = self.route(nodes)
        # 100 W across {node2, node0} = 50 W each < 60 W idle, and the
        # battery is below RESTART_SOC: no restart.
        self.step(path, t=0.0, dt=60.0, solar_w=100.0)
        assert nodes[0].server.state is ServerPowerState.DOWN


class TestUtilityBudgetOrderingFleet(TestUtilityBudgetOrdering):
    path_cls = FleetPowerPath


class TestBrownoutToleranceBandFleet(TestBrownoutToleranceBand):
    path_cls = FleetPowerPath


class TestRestartHysteresisFleet(TestRestartHysteresis):
    path_cls = FleetPowerPath


class TestSampleOnceUtilization:
    """One utilisation draw per (VM, step): the routing pass and the
    progress pass must see the same sample without a second RNG draw."""

    def test_utilization_cached_per_timestamp(self):
        vm = VM(name="vm0", workload=PAPER_WORKLOADS["web_serving"])
        rng = np.random.default_rng(7)
        u1 = vm.utilization(600.0, rng)
        state = rng.bit_generator.state
        u2 = vm.utilization(600.0, rng)
        assert u2 == u1
        assert rng.bit_generator.state == state

    def test_advance_with_explicit_util_burns_no_draw(self):
        vm = VM(name="vm0", workload=PAPER_WORKLOADS["web_serving"])
        rng = np.random.default_rng(7)
        util = vm.utilization(600.0, rng)
        state = rng.bit_generator.state
        vm.advance(60.0, 1.0, 600.0, rng, util=util)
        assert rng.bit_generator.state == state
        assert vm.progress == pytest.approx(util * 60.0)


class TestRecorderCurrentSeries:
    """as_arrays() exposes the per-node signed current series."""

    def test_current_keys_roundtrip(self):
        rec = TraceRecorder(["a", "b"])
        flows = PowerFlows(
            demand_w=100.0,
            solar_available_w=50.0,
            solar_to_load_w=50.0,
            solar_to_battery_w=0.0,
            battery_to_load_w=50.0,
            utility_to_load_w=0.0,
            grid_feedback_w=0.0,
            unserved_w=0.0,
            browned_out_nodes=0,
        )
        rec.record(0.0, 60.0, flows, {"a": 0.5, "b": 0.6}, {"a": 1.5, "b": -2.0})
        rec.record(60.0, 60.0, flows, {"a": 0.4, "b": 0.7}, {"a": 0.0, "b": 3.0})
        arrays = rec.as_arrays()
        assert np.array_equal(arrays["current/a"], [1.5, 0.0])
        assert np.array_equal(arrays["current/b"], [-2.0, 3.0])
        assert np.array_equal(arrays["soc/a"], [0.5, 0.4])
