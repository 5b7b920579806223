"""Vectorised fleet stepping: struct-of-arrays battery state + power path.

The reference engine advances each node's :class:`~repro.battery.unit.
BatteryUnit` object through a deep per-node call chain every step. At
fleet sizes (48-192 nodes) that chain dominates wall-clock. This module
provides a fast path that holds the whole fleet's battery/tracker state,
and the server state the power path reads every step, in flat numpy
arrays (:class:`FleetState`) and replays the *exact* same arithmetic as
array passes (:class:`FleetPowerPath`).

Bit-compatibility contract
--------------------------
The fast path must produce bit-identical results to the per-node path —
same ``SimResult``, same recorder series, same RNG draw order. Two rules
make that possible:

- every add/sub/mul/div/min/max is IEEE-754-exact elementwise, so those
  move to numpy with the *same association order* as the scalar code;
- ``**`` and ``exp`` are *not* guaranteed to match between numpy array
  kernels and Python's libm-backed scalar operators, so every
  transcendental (Arrhenius, OCV fade, Peukert, rate/mass stress,
  thermal decay, self-discharge) is computed per element with Python
  floats, exactly as the scalar models do.

Sequential semantics (the charge walk's surplus accounting, the utility
budget, flow accumulators) stay as Python-float folds in the reference
iteration order.

The fast path intentionally supports only the configuration the scalar
models ship with: per-server architecture, plain :class:`BatteryUnit`
instances, and the five default aging mechanisms. Anything else raises
:class:`~repro.errors.ConfigurationError` at build time so experiments
silently fall back to nothing.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.battery.aging.mechanisms import (
    EOL_FADE,
    ActiveMassDegradation,
    GridCorrosion,
    Stratification,
    Sulphation,
    WaterLoss,
)
from repro.battery.aging.model import (
    COULOMBIC_DEGRADATION,
    RESISTANCE_GROWTH_GAIN,
    AgingModel,
)
from repro.battery.charger import Charger
from repro.battery.peukert import peukert_factor_array
from repro.battery.unit import BatteryUnit
from repro.battery.voltage import (
    LOW_SOC_KNEE,
    LOW_SOC_SAG_V,
    OCV_FADE_COEFF,
    OCV_FADE_EXPONENT,
)
from repro.datacenter.cluster import Cluster
from repro.datacenter.power_path import RESTART_SOC, PowerFlows, PowerPath
from repro.datacenter.node import Node
from repro.datacenter.server import (
    BOOT_SECONDS,
    IDLE_DYNAMIC_FRACTION,
    ServerPowerState,
)
from repro.errors import ConfigurationError
from repro.obs import BUS, REGISTRY
from repro.obs.events import BrownoutEvent
from repro.obs.telemetry import TELEMETRY
from repro.units import SECONDS_PER_HOUR

#: Canonical mechanism order; row indices of ``FleetState.damage``.
MECHANISM_ORDER = (
    GridCorrosion,
    ActiveMassDegradation,
    Sulphation,
    WaterLoss,
    Stratification,
)
_STRAT_ROW = 4

#: Node-op codes for one step (every battery is touched exactly once).
_OP_REST = 0  # rest(): age at 0 A, reset last_current
_OP_REST_KEEP = 1  # discharge cut-off/dead branch: age at 0 A, keep last_current
_OP_DISCHARGE = 2
_OP_CHARGE = 3

#: Tracker region rows (paper Eq. 3): A (>=0.8), B, C, D.
_REGION_LABELS = ("A", "B", "C", "D")

#: Active-mass SoC stress weights indexed by region (A..D).
_SOC_WEIGHTS = np.array([1.0, 1.5, 2.1, 3.0])

#: Server power-state codes of ``FleetState.power_state``.
_UP, _DOWN, _BOOTING = 0, 1, 2
_STATE_CODE = {
    ServerPowerState.UP: _UP,
    ServerPowerState.DOWN: _DOWN,
    ServerPowerState.BOOTING: _BOOTING,
}

#: (owner, attribute, array) of every scalar per-node field the arrays
#: own between :meth:`FleetState.capture` and
#: :meth:`FleetState.materialize`; owners are keys of
#: :meth:`FleetState._owners`. The two dict-valued fields (aging damage,
#: tracker regions) are synced row by row beside these.
_SYNCED = (
    ("battery", "_soc", "soc"),
    ("thermal", "temperature_c", "temp_c"),
    ("thermal", "ambient_c", "ambient_c"),
    ("battery", "_time_s", "time_s"),
    ("battery", "_last_current", "last_current"),
    ("battery", "_hours_since_full", "h_full"),
    ("battery", "energy_in_wh", "energy_in_wh"),
    ("battery", "energy_out_wh", "energy_out_wh"),
    ("aging_state", "discharged_ah", "aging_discharged_ah"),
    ("aging_state", "charged_ah", "aging_charged_ah"),
    ("aging", "_recoverable_stratification", "recoverable_strat"),
    ("acc", "discharged_ah", "tr_discharged_ah"),
    ("acc", "charged_ah", "tr_charged_ah"),
    ("acc", "total_time_s", "tr_total_time_s"),
    ("acc", "deep_discharge_time_s", "tr_deep_time_s"),
    ("acc", "discharge_time_s", "tr_discharge_time_s"),
    ("acc", "discharge_current_time_as", "tr_current_time_as"),
    ("acc", "peak_discharge_current_a", "tr_peak_a"),
    ("acc", "high_rate_low_soc_time_s", "tr_high_rate_s"),
    ("node", "feedback_wh", "feedback_wh"),
    ("server", "downtime_s", "downtime_s"),
    ("server", "_boot_remaining_s", "boot_remaining_s"),
)


#: (array, dtype) of the server control-plane columns, in the order
#: :func:`_server_row` reads them.
_SERVER_COLUMNS = (
    ("power_state", np.int8),
    ("admin_off", bool),
    ("policy_off_mask", bool),
    ("freq_index", np.intp),
    ("idle_f", float),
    ("hosts_vms", bool),
    ("discharge_cap", float),
)


def _server_row(node: Node) -> tuple:
    """One node's :data:`_SERVER_COLUMNS` values, read off the objects.

    ``idle_f`` is the idle draw at the current DVFS level: the constant
    :meth:`Server.power` returns for a booting server or a VM-less up
    one (same expression, so the same float).
    """
    s = node.server
    p = s.params
    return (
        _STATE_CODE[s.state],
        s.admin_off,
        s.policy_off,
        s.freq_index,
        p.idle_w * (1.0 - IDLE_DYNAMIC_FRACTION * (1.0 - s.frequency)),
        bool(s.vms),
        node.discharge_cap_w,
    )


def _clamp01(values: np.ndarray) -> np.ndarray:
    """Vector twin of ``clamp(v, 0.0, 1.0)`` (= max(0, min(1, v)))."""
    return np.maximum(0.0, np.minimum(1.0, values))


class FleetState:
    """Struct-of-arrays mirror of every node's battery + tracker state,
    plus the server state the power path reads each step.

    Battery, tracker and the servers' downtime/boot-timer arrays are
    authoritative between :meth:`capture` and :meth:`materialize`; the
    per-node objects are only synchronised at policy/inspection
    boundaries. The server control-plane arrays mirror the objects (see
    :meth:`refresh_policy_view`). All arrays are ordered like
    ``cluster.nodes``.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.nodes = list(cluster.nodes)
        self.n = len(self.nodes)
        self.validate(cluster)
        self._alloc_constants()
        # Cached per-dt exponential factors (thermal decay, self-discharge).
        self._decay_dt: float | None = None
        self._decay: np.ndarray | None = None
        self._sd_factor: np.ndarray | None = None
        #: Monotone battery-state generation: bumped whenever the arrays
        #: take new values (capture, end of a power step) so per-step
        #: derived() results can be memoized safely.
        self._state_version = 0
        self._derived_cache: Dict[float, Tuple[int, Dict[str, np.ndarray]]] = {}
        # Per-label (epoch, arrays) snapshots of tracker marks.
        self._mark_cache: Dict[str, Tuple[int, Dict[str, np.ndarray]]] = {}
        self.capture()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    @staticmethod
    def validate(cluster: Cluster) -> None:
        """Reject configurations the vectorised kernels do not replicate.

        The kernels transcribe the concrete default models; subclasses or
        custom mechanism sets would silently diverge, so they are refused
        loudly instead.
        """
        for node in cluster.nodes:
            b = node.battery
            if type(b) is not BatteryUnit:
                raise ConfigurationError(
                    f"fleet stepper requires plain BatteryUnit nodes; "
                    f"{node.name} has {type(b).__name__}"
                )
            if type(b.aging) is not AgingModel:
                raise ConfigurationError(
                    f"fleet stepper requires the default AgingModel; "
                    f"{node.name} has {type(b.aging).__name__}"
                )
            if type(b.charger) is not Charger:
                raise ConfigurationError(
                    f"fleet stepper requires the default Charger; "
                    f"{node.name} has {type(b.charger).__name__}"
                )
            mechs = b.aging.mechanisms
            if len(mechs) != len(MECHANISM_ORDER) or any(
                type(m) is not cls for m, cls in zip(mechs, MECHANISM_ORDER)
            ):
                raise ConfigurationError(
                    f"fleet stepper requires the five default aging "
                    f"mechanisms in canonical order; {node.name} differs"
                )

    # ------------------------------------------------------------------
    # Allocation and synchronisation
    # ------------------------------------------------------------------
    def _alloc_constants(self) -> None:
        n = self.n

        def arr(get) -> np.ndarray:
            return np.array([float(get(node)) for node in self.nodes])

        p = lambda node: node.battery.params  # noqa: E731
        #: The aging model's capacity base (manufacturing-adjusted, unfaded).
        self.cap_scaled = np.array(
            [
                float(nd.battery.params.capacity_ah * nd.battery.capacity_factor)
                for nd in self.nodes
            ]
        )
        self.cutoff_soc = arr(lambda nd: p(nd).cutoff_soc)
        self.cutoff_v = arr(lambda nd: p(nd).cutoff_voltage)
        self.r0 = arr(lambda nd: p(nd).internal_resistance_ohm)
        self.ocv_full = arr(lambda nd: p(nd).ocv_full)
        self.ocv_empty = arr(lambda nd: p(nd).ocv_empty)
        self.i_ref = arr(lambda nd: p(nd).reference_current)
        self.k_minus_1 = arr(lambda nd: p(nd).peukert_exponent - 1.0)
        self.gassing_soc = arr(lambda nd: p(nd).gassing_soc)
        self.coul_base = arr(lambda nd: p(nd).coulombic_efficiency)
        self.tau = arr(
            lambda nd: p(nd).thermal_capacity_j_per_k * p(nd).thermal_resistance_k_per_w
        )
        self.r_th = arr(lambda nd: p(nd).thermal_resistance_k_per_w)
        self.sd_rate = arr(lambda nd: p(nd).self_discharge_per_day)
        self.charge_max = arr(lambda nd: nd.battery.charger.max_current)
        self.charge_float = arr(lambda nd: nd.battery.charger.float_current)
        self.taper_start = arr(lambda nd: nd.battery.charger.params.taper_start_soc)
        self.feedback_gain = arr(lambda nd: nd.battery.aging.feedback_gain)
        # Mechanism calibration, read off the instances so re-calibrated
        # (but structurally default) models still match.
        mech = lambda nd, i: nd.battery.aging.mechanisms[i]  # noqa: E731
        self.cor_base = arr(lambda nd: mech(nd, 0).base_rate)
        self.cor_float_mult = arr(lambda nd: mech(nd, 0).float_multiplier)
        self.cor_high_mult = arr(lambda nd: mech(nd, 0).high_soc_multiplier)
        self.am_pcf = np.array(
            [
                float(EOL_FADE / mech(nd, 1).lifetime_full_cycles)
                for nd in self.nodes
            ]
        )
        self.sul_thresh = arr(lambda nd: mech(nd, 2).low_soc_threshold)
        self.sul_base = arr(lambda nd: mech(nd, 2).base_rate)
        self.wl_fpc = arr(lambda nd: mech(nd, 3).fade_per_gassing_cycle)
        self.st_base = arr(lambda nd: mech(nd, 4).base_rate)
        self.st_sat = arr(lambda nd: mech(nd, 4).saturation_hours)
        self.resistance_shares = np.array(
            [
                [float(m.resistance_share) for m in nd.battery.aging.mechanisms]
                for nd in self.nodes
            ]
        ).T  # (5, n)
        self.mech_names = [m.name for m in self.nodes[0].battery.aging.mechanisms]
        self.tracker_ref_current = arr(lambda nd: nd.tracker.params.reference_current)
        self.tracker_lifetime_ah = arr(
            lambda nd: nd.tracker.params.lifetime_ah_throughput
        )
        self.node_names = [nd.name for nd in self.nodes]
        assert len(self.node_names) == n

    def _owners(self) -> Dict[str, list]:
        """Per-node objects holding the :data:`_SYNCED` attributes, in
        node order (fetched fresh: a sync must follow the live objects)."""
        nodes = self.nodes
        bats = [nd.battery for nd in nodes]
        return {
            "battery": bats,
            "thermal": [b.thermal for b in bats],
            "aging": [b.aging for b in bats],
            "aging_state": [b.aging.state for b in bats],
            "acc": [nd.tracker.acc for nd in nodes],
            "node": nodes,
            "server": [nd.server for nd in nodes],
        }

    def capture(self) -> None:
        """Load all mutable per-node state from the objects into arrays."""
        owners = self._owners()
        for owner, attr, name in _SYNCED:
            setattr(
                self,
                name,
                np.array([getattr(o, attr) for o in owners[owner]], dtype=float),
            )
        damage = [st.damage for st in owners["aging_state"]]
        self.damage = np.array(
            [[d.get(key, 0.0) for d in damage] for key in self.mech_names],
            dtype=float,
        )  # (5, n)
        region = [acc.region_discharged_ah for acc in owners["acc"]]
        self.tr_region = np.array(
            [[r[key] for r in region] for key in _REGION_LABELS], dtype=float
        )  # (4, n)
        self._dirty = False
        self._state_version += 1
        self.refresh_policy_view()

    def refresh_policy_view(self) -> None:
        """Re-read the server control-plane state from the objects.

        The power path reads power state, ``admin_off``/``policy_off``,
        DVFS level (as the idle draw ``idle_f``), discharge cap and the
        VM-hosting set from these arrays, and the policy decision
        kernels select eligible nodes through ``server_up``,
        ``policy_off_mask`` and ``policy_restricted``. Object code that
        changes any of them must be followed by this call (or
        :meth:`refresh_node`): the engine does so after an object-path
        control pass and the day-start hook. The power path keeps the
        arrays and the objects in step for the changes it makes itself
        (restart, brownout, boot completion).
        """
        columns = zip(*[_server_row(nd) for nd in self.nodes])
        for (name, dtype), column in zip(_SERVER_COLUMNS, columns):
            setattr(self, name, np.array(column, dtype=dtype))
        self._derive_server_masks()

    def refresh_node(self, i: int) -> None:
        """:meth:`refresh_policy_view` for the single node ``i``."""
        for (name, _dtype), value in zip(_SERVER_COLUMNS, _server_row(self.nodes[i])):
            getattr(self, name)[i] = value
        self._derive_server_masks()

    def _derive_server_masks(self) -> None:
        self.server_up = self.power_state == _UP
        self.policy_restricted = (self.freq_index > 0) | (self.discharge_cap != math.inf)
        #: Indices of the nodes hosting VMs, in node order.
        self.vm_hosts: List[int] = np.flatnonzero(self.hosts_vms).tolist()

    def materialize(self) -> None:
        """Write array state back into the per-node objects.

        Called before any code that reads batteries/trackers (or server
        downtime and boot timers) through the object API (policy control,
        day hooks, result collection). A no-op when the arrays have not
        advanced since the last sync. ``tolist()`` yields the same Python
        floats as per-element ``float()`` reads.
        """
        if not self._dirty:
            return
        owners = self._owners()
        for owner, attr, name in _SYNCED:
            for obj, value in zip(owners[owner], getattr(self, name).tolist()):
                setattr(obj, attr, value)
        damage = [st.damage for st in owners["aging_state"]]
        region = [acc.region_discharged_ah for acc in owners["acc"]]
        for dicts, keys, arr in (
            (damage, self.mech_names, self.damage),
            (region, _REGION_LABELS, self.tr_region),
        ):
            for key, row in zip(keys, arr.tolist()):
                for d, value in zip(dicts, row):
                    d[key] = value
        self._dirty = False

    def set_ambient(self, ambient_c: float) -> None:
        """Fan one ambient temperature out to every battery (array write)."""
        self.ambient_c[:] = ambient_c
        self._dirty = True

    # ------------------------------------------------------------------
    # Per-step derived quantities
    # ------------------------------------------------------------------
    def derived(self, dt: float) -> Dict[str, np.ndarray]:
        """Aging-derived electrical quantities, valid for one whole step.

        Every battery is touched exactly once per power-path step and all
        aging/thermal inputs use the pre-step state, so fade, resistance
        growth, OCV endpoints, Arrhenius factors etc. can be computed once
        here and shared by the restart check and all kernels.

        Memoized on (dt, battery-state generation): control-plane passes
        between power steps reuse the step's arrays instead of re-running
        the scalar-pow loops.
        """
        cached = self._derived_cache.get(dt)
        if cached is not None and cached[0] == self._state_version:
            return cached[1]
        d = self.damage
        total_raw = d[0] + d[1] + d[2] + d[3] + d[4]
        fade = np.maximum(0.0, np.minimum(0.95, total_raw))
        sh = self.resistance_shares
        resistive = d[0] * sh[0] + d[1] * sh[1] + d[2] * sh[2] + d[3] * sh[3] + d[4] * sh[4]
        growth = RESISTANCE_GROWTH_GAIN * resistive
        res = self.r0 * (1.0 + np.maximum(0.0, growth))
        eff_cap = self.cap_scaled * (1.0 - fade)
        fade_c = _clamp01(fade)
        # Scalar pow per element: numpy's array ** is not bit-identical to
        # Python's float ** for every operand, and the reference models go
        # through the scalar operator.
        fade_pow = np.array([f ** OCV_FADE_EXPONENT for f in fade_c.tolist()])
        full = self.ocv_full * (1.0 - OCV_FADE_COEFF * fade_pow)
        full = np.where(full < self.ocv_empty, self.ocv_empty, full)
        feedback = 1.0 + self.feedback_gain * total_raw
        ceff = np.maximum(
            0.3, np.minimum(1.0, 1.0 - COULOMBIC_DEGRADATION * fade)
        )
        arr = np.array(
            [2.0 ** ((tc - 20.0) / 10.0) for tc in self.temp_c.tolist()]
        )
        if self._decay_dt != dt:
            self._decay = np.array(
                [math.exp(-dt / t) if t > 0 else 0.0 for t in self.tau.tolist()]
            )
            self._sd_factor = np.array(
                [
                    math.exp(-rate * dt / 86400.0) if rate > 0.0 else 1.0
                    for rate in self.sd_rate.tolist()
                ]
            )
            self._decay_dt = dt
        out = {
            "total_raw": total_raw,
            "fade": fade,
            "growth": growth,
            "res": res,
            "eff_cap": eff_cap,
            "ocv_hi": full,
            "feedback": feedback,
            "ceff": ceff,
            "arr": arr,
            "decay": self._decay,
            "sd_factor": self._sd_factor,
        }
        self._derived_cache[dt] = (self._state_version, out)
        return out

    def derived_now(self) -> Dict[str, np.ndarray]:
        """Derived quantities at the step dt the run is using (60 s until
        the first step) — the dt only affects the decay/self-discharge
        factors, which control-plane readers never consult."""
        return self.derived(self._decay_dt if self._decay_dt is not None else 60.0)

    # ------------------------------------------------------------------
    # Electrical helpers (vector + scalar twins)
    # ------------------------------------------------------------------
    def ocv(self, soc: np.ndarray, der: Dict[str, np.ndarray]) -> np.ndarray:
        """Vector :meth:`VoltageModel.ocv` at the derived aging state."""
        soc_c = _clamp01(soc)
        return self.ocv_empty + (der["ocv_hi"] - self.ocv_empty) * soc_c

    def terminal_voltage(
        self,
        soc: np.ndarray,
        current: np.ndarray,
        der: Dict[str, np.ndarray],
        idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vector :meth:`VoltageModel.terminal_voltage` (signed current)."""
        if idx is None:
            ocv_hi, empty, res, i_ref = (
                der["ocv_hi"], self.ocv_empty, der["res"], self.i_ref,
            )
        else:
            ocv_hi, empty, res, i_ref = (
                der["ocv_hi"][idx], self.ocv_empty[idx],
                der["res"][idx], self.i_ref[idx],
            )
        soc_c = _clamp01(soc)
        v = (empty + (ocv_hi - empty) * soc_c) - current * res
        knee = (current > 0.0) & (soc < LOW_SOC_KNEE)
        if knee.any():
            depth = (LOW_SOC_KNEE - soc_c) / LOW_SOC_KNEE
            rate = np.minimum(current / i_ref, 4.0) / 4.0
            v = np.where(knee, v - LOW_SOC_SAG_V * depth * rate, v)
        return v

    def _ocv_scalar(self, i: int, soc: float, der: Dict[str, np.ndarray]) -> float:
        soc_c = max(0.0, min(1.0, soc))
        empty = float(self.ocv_empty[i])
        full = float(der["ocv_hi"][i])
        return empty + (full - empty) * soc_c

    def _tv_scalar(
        self, i: int, soc: float, current: float, der: Dict[str, np.ndarray]
    ) -> float:
        v = self._ocv_scalar(i, soc, der)
        v -= current * float(der["res"][i])
        if current > 0.0 and soc < LOW_SOC_KNEE:
            depth = (LOW_SOC_KNEE - max(0.0, min(1.0, soc))) / LOW_SOC_KNEE
            rate = min(current / float(self.i_ref[i]), 4.0) / 4.0
            v -= LOW_SOC_SAG_V * depth * rate
        return v

    def max_discharge_power_i(self, i: int, der: Dict[str, np.ndarray]) -> float:
        """Scalar twin of :meth:`BatteryUnit.max_discharge_power`."""
        soc = float(self.soc[i])
        if soc <= float(self.cutoff_soc[i]):
            return 0.0
        v = self._ocv_scalar(i, soc, der)
        headroom = v - float(self.cutoff_v[i])
        if headroom <= 0.0:
            i_max = 0.0
        else:
            i_max = headroom / float(der["res"][i])
        if i_max <= 0.0:
            return 0.0
        v = self._tv_scalar(i, soc, i_max, der)
        return max(0.0, i_max * v)

    def last_draw_powers(self) -> Dict[str, float]:
        """Per-node battery draw (W) from the last step's terminal state.

        Replicates the engine's reference draw refresh: it is only read
        at control steps, and battery state is untouched between the end
        of a power step and the next control call, so computing it lazily
        here is bit-equal to refreshing it every step.
        """
        der = self.derived_now()
        current = np.maximum(0.0, self.last_current)
        voltage = self.terminal_voltage(self.soc, current, der)
        draws = current * np.maximum(voltage, 0.0)
        return {name: float(w) for name, w in zip(self.node_names, draws)}

    def mark_arrays(self, label: str, epoch: int) -> Dict[str, np.ndarray]:
        """Array snapshots of every tracker's ``label`` mark accumulator.

        Marks are frozen copies taken while the objects were current, so
        ``live array - mark array`` equals the object path's
        ``acc - mark`` elementwise. Cached per label until ``epoch`` (the
        controller's window counter) moves.
        """
        cached = self._mark_cache.get(label)
        if cached is not None and cached[0] == epoch:
            return cached[1]

        def arr(get) -> np.ndarray:
            return np.array([float(get(node)) for node in self.nodes])

        m = lambda nd: nd.tracker.mark_acc(label)  # noqa: E731
        out = {
            "discharged_ah": arr(lambda nd: m(nd).discharged_ah),
            "charged_ah": arr(lambda nd: m(nd).charged_ah),
            "region": np.array(
                [
                    [
                        float(m(nd).region_discharged_ah[k])
                        for nd in self.nodes
                    ]
                    for k in _REGION_LABELS
                ]
            ),
            "total_time_s": arr(lambda nd: m(nd).total_time_s),
            "deep_time_s": arr(lambda nd: m(nd).deep_discharge_time_s),
        }
        self._mark_cache[label] = (epoch, out)
        return out


class FleetPowerPath(PowerPath):
    """Array-native power routing, bit-compatible with :class:`PowerPath`.

    Per-node ``BatteryUnit`` calls are replaced by four vector kernels
    (discharge, charge, rest, tracker-observe) over :class:`FleetState`
    arrays, and the per-node server walks (restart scan, demand,
    deficits, brownouts, server advance) by mask passes over its server
    arrays. Cross-node reductions keep the reference's own: builtin
    ``sum()`` for total demand, sequential folds (``cumsum``, Python
    ``+=``) for the utility budget, charge-walk surplus and flow sums.
    """

    def __init__(self, cluster: Cluster, utility_budget_w: float = 0.0):
        super().__init__(cluster, utility_budget_w=utility_budget_w)
        self.fleet = FleetState(cluster)
        # Reusable per-step op buffers (zeroed at each step).
        n = self.fleet.n
        self._mode = np.zeros(n, dtype=np.int8)
        self._op_current = np.zeros(n)
        self._op_gassing = np.zeros(n)
        self._op_float = np.zeros(n, dtype=bool)
        self._op_drain_ah = np.zeros(n)
        self._op_stored_ah = np.zeros(n)
        self._op_delivered_w = np.zeros(n)
        self._op_absorbed_w = np.zeros(n)

    # ------------------------------------------------------------------
    def step(
        self,
        t: float,
        dt: float,
        solar_w: float,
        rng: Optional[np.random.Generator] = None,
        charging_enabled: bool = True,
    ) -> PowerFlows:
        nodes = self.cluster.nodes
        fs = self.fleet
        der = fs.derived(dt)
        state = fs.power_state
        admin_off = fs.admin_off

        # --- restart any down node that now has a power prospect --------
        # Scalar work only for the down, not-admin-off candidates.
        down = state == _DOWN
        cand = np.flatnonzero(down & ~admin_off)
        if len(cand):
            drawing = fs.n - int(np.count_nonzero(down | admin_off))
            per_node_solar_guess = solar_w / float(drawing + 1)
            for i in cand.tolist():
                node = nodes[i]
                idle = node.server.params.idle_w
                solar_ok = per_node_solar_guess >= idle
                battery_ok = (
                    float(fs.soc[i]) >= RESTART_SOC
                    and min(fs.max_discharge_power_i(i, der), node.discharge_cap_w)
                    + per_node_solar_guess
                    >= idle
                )
                if solar_ok or battery_ok:
                    node.server.power_on()
                    state[i] = _BOOTING
                    fs.boot_remaining_s[i] = BOOT_SECONDS

        # --- demand ------------------------------------------------------
        # Off and down servers draw 0; a booting or VM-less up server
        # draws exactly its idle(f) constant and makes no RNG draw. Only
        # VM hosts go through Server.power, in node order, so the RNG
        # draw order is the reference's.
        off = admin_off | fs.policy_off_mask | (state == _DOWN)
        demand = np.where(off, 0.0, fs.idle_f)
        for i in fs.vm_hosts:
            server = nodes[i].server
            demand[i] = server.power(server.utilization(t, rng))
        total_demand = sum(demand.tolist())

        solar_to_load = min(solar_w, total_demand)

        # --- per-node deficits and the utility budget --------------------
        share = solar_to_load * demand / total_demand if total_demand > 0 else 0.0
        deficit = demand - share
        utility_used = 0.0
        if self.utility_budget_w != 0.0:
            # A capped budget drains in node order: sequential walk.
            utility_left = self.utility_budget_w
            for i in np.flatnonzero(deficit > 1e-9).tolist():
                d = float(deficit[i])
                from_utility = min(d, utility_left)
                utility_left -= from_utility
                utility_used += from_utility
                deficit[i] = d - from_utility
        need = deficit > 1e-9
        allowed = np.minimum(deficit, fs.discharge_cap)
        idx = np.flatnonzero(need & (allowed > 0.0))

        # Per-node op buffers: every battery resolves to exactly one op.
        mode = self._mode
        mode.fill(0)
        op_current = self._op_current  # signed (+ discharge, - charge)
        op_current.fill(0.0)
        op_gassing = self._op_gassing
        op_gassing.fill(0.0)
        op_float = self._op_float
        op_float.fill(False)
        op_drain_ah = self._op_drain_ah
        op_drain_ah.fill(0.0)
        op_stored_ah = self._op_stored_ah
        op_stored_ah.fill(0.0)
        op_delivered_w = self._op_delivered_w
        op_delivered_w.fill(0.0)
        op_absorbed_w = self._op_absorbed_w
        op_absorbed_w.fill(0.0)

        # --- battery bridges the deficit (vector kernel) ------------------
        battery_to_load = 0.0
        if len(idx):
            delivered = self._discharge_kernel(
                idx, allowed[idx], dt, der,
                mode, op_current, op_drain_ah, op_delivered_w,
            )
            # cumsum is a sequential left fold: the reference's `+=`.
            battery_to_load = float(np.cumsum(delivered)[-1])

        # --- brownouts: a materially unmet deficit ------------------------
        unserved = 0.0
        browned_out = 0
        ni = np.flatnonzero(need)
        shortfall = deficit[ni] - op_delivered_w[ni]
        brown = shortfall > np.maximum(2.0, 0.02 * deficit[ni])
        for i, short in zip(ni[brown].tolist(), shortfall[brown].tolist()):
            node = nodes[i]
            unserved += short
            node.unserved_wh += short * dt / SECONDS_PER_HOUR
            node.server.brownout()  # checkpoints the VMs
            state[i] = _DOWN
            browned_out += 1
            if BUS.enabled:
                BUS.emit(BrownoutEvent(t=t, node=node.name, shortfall_w=short))
            if REGISTRY.enabled:
                REGISTRY.counter("power/brownouts").inc()

        # --- surplus solar charges batteries, emptiest first --------------
        surplus = max(0.0, solar_w - solar_to_load)
        solar_to_battery = 0.0
        if charging_enabled and surplus > 0.0:
            touched = mode != _OP_REST
            cand = np.nonzero((fs.soc < 1.0) & ~touched)[0]
            if len(cand):
                surplus, solar_to_battery = self._charge_walk(
                    cand, surplus, dt, der,
                    mode, op_current, op_gassing, op_float,
                    op_stored_ah, op_absorbed_w,
                )

        feedback = max(0.0, surplus)
        if feedback > 0.0:
            per_node = feedback / len(nodes)
            fs.feedback_wh += per_node * dt / SECONDS_PER_HOUR

        # --- advance all batteries in one pass -----------------------------
        self._advance_all(
            dt, der, mode, op_current, op_gassing, op_float,
            op_drain_ah, op_stored_ah, op_delivered_w, op_absorbed_w,
        )

        # --- advance servers and sensors ----------------------------------
        self._advance_servers(dt)
        self._observe_all(dt)
        fs._dirty = True
        fs._state_version += 1

        return PowerFlows(
            demand_w=total_demand,
            solar_available_w=solar_w,
            solar_to_load_w=solar_to_load,
            solar_to_battery_w=solar_to_battery,
            battery_to_load_w=battery_to_load,
            utility_to_load_w=utility_used,
            grid_feedback_w=feedback,
            unserved_w=unserved,
            browned_out_nodes=browned_out,
        )

    def _advance_servers(self, dt: float) -> None:
        """Vectorised :meth:`Server.advance_state` for the whole fleet.

        Downtime and boot timers stay in the arrays (written back by
        :meth:`FleetState.materialize`); a completed boot is written to
        its server object at once, like every other power-state change.
        """
        fs = self.fleet
        state = fs.power_state
        active = ~(fs.admin_off | fs.policy_off_mask)
        fs.downtime_s[active & (state == _DOWN)] += dt
        bi = np.flatnonzero(active & (state == _BOOTING))
        if len(bi):
            rem = fs.boot_remaining_s[bi]
            fs.downtime_s[bi] += np.minimum(dt, rem)
            rem -= dt
            done = rem <= 0.0
            rem[done] = 0.0
            fs.boot_remaining_s[bi] = rem
            if done.any():
                up_i = bi[done]
                state[up_i] = _UP
                for i in up_i.tolist():
                    server = fs.nodes[i].server
                    server._boot_remaining_s = 0.0
                    server.state = ServerPowerState.UP
        np.equal(state, _UP, out=fs.server_up)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _peukert(
        self, current: np.ndarray, i_ref: np.ndarray, k_minus_1: np.ndarray
    ) -> np.ndarray:
        """Vector :func:`peukert_factor`, pow via scalar Python floats."""
        return peukert_factor_array(current, i_ref, k_minus_1)

    def _discharge_kernel(
        self,
        idx: np.ndarray,
        power: np.ndarray,
        dt: float,
        der: Dict[str, np.ndarray],
        mode: np.ndarray,
        op_current: np.ndarray,
        op_drain_ah: np.ndarray,
        op_delivered_w: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`BatteryUnit.discharge` over the deficit set.

        Returns per-element delivered power (0 for the cut-off / zero-
        current branches, which rest-age while keeping their stale
        ``last_current`` exactly like the scalar path).
        """
        fs = self.fleet
        soc = fs.soc[idx]
        cutoff = fs.cutoff_soc[idx]
        res = der["res"][idx]
        cap = der["eff_cap"][idx]
        i_ref = fs.i_ref[idx]
        km1 = fs.k_minus_1[idx]
        m = len(idx)

        m_cut = soc <= cutoff
        live = ~m_cut

        # Fixed-point solve for current at the requested power (2 rounds).
        v0 = fs.ocv_empty[idx] + (der["ocv_hi"][idx] - fs.ocv_empty[idx]) * _clamp01(soc)
        current = np.where(live, power / np.maximum(v0, 1e-6), 0.0)
        running = live.copy()
        for _ in range(2):
            v = self.fleet.terminal_voltage(soc, current, der, idx)
            cont = running & (v > 0.0)
            current = np.divide(
                power, v, out=current.copy(), where=cont
            )
            running = cont

        # Voltage cut-off limit.
        headroom = v0 - fs.cutoff_v[idx]
        i_max = np.where(headroom <= 0.0, 0.0, headroom / res)
        current = np.where(live & (current > i_max), i_max, current)
        m_dead = live & (current <= 0.0)
        m_live = live & ~m_dead

        # Charge-availability limit.
        pf = self._peukert(current, i_ref, km1)
        drain_ah = current * pf * dt / SECONDS_PER_HOUR
        avail_ah = np.maximum(0.0, (soc - cutoff) * cap)
        m_scale = m_live & (drain_ah > avail_ah)
        if m_scale.any():
            scale = np.divide(
                avail_ah, drain_ah, out=np.zeros(m), where=m_scale & (drain_ah > 0.0)
            )
            current = np.where(m_scale, current * scale, current)
            pf = np.where(m_scale, self._peukert(current, i_ref, km1), pf)
            drain_ah = np.where(m_scale, current * pf * dt / SECONDS_PER_HOUR, drain_ah)

        v = self.fleet.terminal_voltage(soc, current, der, idx)
        delivered = np.where(m_live, current * np.maximum(v, 0.0), 0.0)

        mode[idx] = np.where(m_live, _OP_DISCHARGE, _OP_REST_KEEP)
        op_current[idx] = np.where(m_live, current, 0.0)
        op_drain_ah[idx] = np.where(m_live, drain_ah, 0.0)
        op_delivered_w[idx] = delivered
        return delivered

    def _charge_walk(
        self,
        cand: np.ndarray,
        surplus: float,
        dt: float,
        der: Dict[str, np.ndarray],
        mode: np.ndarray,
        op_current: np.ndarray,
        op_gassing: np.ndarray,
        op_float: np.ndarray,
        op_stored_ah: np.ndarray,
        op_absorbed_w: np.ndarray,
    ) -> Tuple[float, float]:
        """Sequential emptiest-first charge walk with vector precompute.

        The acceptance-limited outcome of :meth:`BatteryUnit.charge` does
        not depend on the offered power, so it is precomputed for every
        candidate in one vector pass; the walk applies it whenever the
        candidate is acceptance-limited and free of the overshoot clamp,
        falling back to a literal scalar transcription otherwise (the
        marginal last-charged node of a step).
        """
        fs = self.fleet
        soc = fs.soc[cand]
        res = der["res"][cand]
        cap = der["eff_cap"][cand]
        ceff = der["ceff"][cand]
        empty = fs.ocv_empty[cand]
        ocv_hi = der["ocv_hi"][cand]
        soc_c = _clamp01(soc)

        ocv = empty + (ocv_hi - empty) * soc_c
        v1 = ocv - (-1.0) * res
        bulk = fs.charge_max[cand] * (1.0 - _clamp01(der["fade"][cand]))
        start = fs.taper_start[cand]
        flt = fs.charge_float[cand]
        i_accept = np.where(
            soc_c < start,
            bulk,
            np.where(
                soc_c >= 1.0,
                flt,
                bulk + (flt - bulk) * ((soc_c - start) / (1.0 - start)),
            ),
        )
        gas_soc = fs.gassing_soc[cand]
        base = fs.coul_base[cand]
        coul = np.where(
            soc_c <= gas_soc,
            base,
            base + (0.60 - base) * ((soc_c - gas_soc) / np.maximum(1e-9, 1.0 - gas_soc)),
        )
        eta = coul * ceff

        # Acceptance-limited hypothesis: current = i_accept.
        cur0 = i_accept.copy()
        stored0 = cur0 * eta
        gas0 = cur0 - stored0
        st_ah0 = stored0 * dt / SECONDS_PER_HOUR
        room = np.maximum(0.0, (1.0 - soc) * cap)
        m_room = st_ah0 > room
        if m_room.any():
            scale = np.divide(
                room, st_ah0, out=np.zeros(len(cand)), where=m_room & (st_ah0 > 0.0)
            )
            cur0 = np.where(m_room, cur0 * scale, cur0)
            stored0 = np.where(m_room, stored0 * scale, stored0)
            gas0 = np.where(m_room, gas0 * scale, gas0)
            st_ah0 = np.where(m_room, room, st_ah0)
        v2 = ocv - (-cur0) * res
        absorbed0 = cur0 * v2
        float0 = (soc >= 0.99) & (cur0 <= flt * 2.0)

        solar_to_battery = 0.0
        order = np.argsort(soc, kind="stable")
        for j in order.tolist():
            if surplus <= 1e-9:
                break
            i = int(cand[j])
            v1_j = float(v1[j])
            i_request = surplus / max(v1_j, 1e-6)
            ia = float(i_accept[j])
            if ia <= i_request and float(absorbed0[j]) <= surplus:
                cur = float(cur0[j])
                gas = float(gas0[j])
                st_ah = float(st_ah0[j])
                absorbed = float(absorbed0[j])
                is_float = bool(float0[j])
            else:
                cur, gas, st_ah, absorbed, is_float = self._charge_scalar(
                    i, surplus, dt, der
                )
            mode[i] = _OP_CHARGE
            op_current[i] = -cur
            op_gassing[i] = gas
            op_float[i] = is_float
            op_stored_ah[i] = st_ah
            op_absorbed_w[i] = absorbed
            solar_to_battery += absorbed
            surplus -= absorbed
        return surplus, solar_to_battery

    def _charge_scalar(
        self, i: int, power_w: float, dt: float, der: Dict[str, np.ndarray]
    ) -> Tuple[float, float, float, float, bool]:
        """Literal scalar transcription of :meth:`BatteryUnit.charge`
        (state updates deferred to the batched advance)."""
        fs = self.fleet
        soc = float(fs.soc[i])
        v = self.fleet._tv_scalar(i, soc, -1.0, der)
        i_request = power_w / max(v, 1e-6)
        # Charger.acceptance_current
        soc_c = max(0.0, min(1.0, soc))
        fade = float(der["fade"][i])
        bulk = float(fs.charge_max[i]) * (1.0 - max(0.0, min(1.0, fade)))
        start = float(fs.taper_start[i])
        flt = float(fs.charge_float[i])
        if soc_c < start:
            i_accept = bulk
        elif soc_c >= 1.0:
            i_accept = flt
        else:
            frac = (soc_c - start) / (1.0 - start)
            i_accept = bulk + (flt - bulk) * frac
        current = min(i_request, i_accept)
        # Charger.coulombic_efficiency
        gas_soc = float(fs.gassing_soc[i])
        base = float(fs.coul_base[i])
        if soc_c <= gas_soc:
            coul = base
        else:
            frac = (soc_c - gas_soc) / max(1e-9, 1.0 - gas_soc)
            coul = base + (0.60 - base) * frac
        eta = coul * float(der["ceff"][i])
        stored_current = current * eta
        gassing_current = current - stored_current
        cap = float(der["eff_cap"][i])
        stored_ah = stored_current * dt / SECONDS_PER_HOUR
        room_ah = max(0.0, (1.0 - soc) * cap)
        if stored_ah > room_ah:
            scale = room_ah / stored_ah if stored_ah > 0 else 0.0
            current *= scale
            stored_current *= scale
            gassing_current *= scale
            stored_ah = room_ah
        v = self.fleet._tv_scalar(i, soc, -current, der)
        absorbed_w = current * v
        if absorbed_w > power_w > 0.0:
            scale = power_w / absorbed_w
            current *= scale
            stored_current *= scale
            gassing_current *= scale
            stored_ah *= scale
            absorbed_w = power_w
        is_float = soc >= 0.99 and current <= flt * 2.0
        return current, gassing_current, stored_ah, absorbed_w, is_float

    # ------------------------------------------------------------------
    def _advance_all(
        self,
        dt: float,
        der: Dict[str, np.ndarray],
        mode: np.ndarray,
        op_current: np.ndarray,
        op_gassing: np.ndarray,
        op_float: np.ndarray,
        op_drain_ah: np.ndarray,
        op_stored_ah: np.ndarray,
        op_delivered_w: np.ndarray,
        op_absorbed_w: np.ndarray,
    ) -> None:
        """One batched ``_apply_step`` + SoC/energy update for all nodes.

        Valid because every node's op is independent: aging, thermal, and
        SoC updates read only that node's pre-step state, which no other
        node's op can touch.
        """
        fs = self.fleet
        current = op_current  # signed
        pre_soc = fs.soc
        fbk = der["feedback"]
        arr = der["arr"]

        # --- aging mechanisms (pre-step soc/temp/hours, exact formulas) --
        # Each mechanism touches only its active subset: the adds below
        # are bit-equal to full-fleet adds of masked zeros (x + 0.0 == x).
        # Grid corrosion (always active).
        rate = fs.cor_base * arr
        fi = np.nonzero(op_float)[0]
        if len(fi):
            rate[fi] *= 1.0 + fs.cor_float_mult[fi]
        hsi = np.nonzero(pre_soc > 0.9)[0]
        if len(hsi):
            rate[hsi] *= 1.0 + fs.cor_high_mult[hsi] * (pre_soc[hsi] - 0.9) / 0.1
        fs.damage[0] += (rate * dt) * fbk
        # Active-mass degradation (discharge only; op currents are
        # strictly positive exactly on the discharge ops).
        di = np.nonzero(current > 0.0)[0]
        rn_d: np.ndarray | None = None
        if len(di):
            cd = current[di]
            ird = fs.i_ref[di]
            rn_d = np.where(ird > 0.0, cd / np.where(ird > 0.0, ird, 1.0), 0.0)
            ah = cd * dt / SECONDS_PER_HOUR
            nat = ah / fs.cap_scaled[di]
            s = _clamp01(pre_soc[di])
            socw = _SOC_WEIGHTS[
                (s < 0.80).astype(np.intp) + (s < 0.60) + (s < 0.40)
            ]
            ratew = np.ones(len(di))
            hot = np.nonzero(rn_d > 1.0)[0]
            if len(hot):
                ratew[hot] = [min(2.0, r ** 0.25) for r in rn_d[hot].tolist()]
            arr_sqrt = np.array([a ** 0.5 for a in arr[di].tolist()])
            weight = socw * ratew * arr_sqrt
            fs.damage[1][di] += (fs.am_pcf[di] * nat * weight) * fbk[di]
        # Sulphation (low SoC only; uses pre-step hours-since-full).
        si = np.nonzero(pre_soc < fs.sul_thresh)[0]
        if len(si):
            depth = (fs.sul_thresh[si] - pre_soc[si]) / fs.sul_thresh[si]
            stale_s = np.maximum(0.1, np.minimum(1.0, fs.h_full[si] / 48.0))
            fs.damage[2][si] += (
                (fs.sul_base[si] * depth * stale_s * arr[si]) * dt
            ) * fbk[si]
        # Water loss (gassing only; damage already integrates dt via Ah).
        wli = np.nonzero(op_gassing > 0.0)[0]
        if len(wli):
            gah = op_gassing[wli] * dt / SECONDS_PER_HOUR
            fs.damage[3][wli] += (
                fs.wl_fpc[wli] * (gah / fs.cap_scaled[wli]) * arr[wli]
            ) * fbk[wli]
        # Stratification (any current, stale full charge).
        stale_t = np.maximum(0.0, np.minimum(1.0, fs.h_full / fs.st_sat))
        ti = np.nonzero((current != 0.0) & (stale_t != 0.0))[0]
        if len(ti):
            rate_t = fs.st_base * stale_t
            if len(di):
                # The 1.5x worst-case factor is harmless on stale==0 rows
                # (their rate is already zero and they are outside `ti`).
                worst = di[(pre_soc[di] < 0.4) & (rn_d < 1.0)]
                rate_t[worst] *= 1.5
            d_str = (rate_t[ti] * dt) * fbk[ti]
            fs.damage[_STRAT_ROW][ti] += d_str
            fs.recoverable_strat[ti] += d_str

        if len(di):
            fs.aging_discharged_ah[di] += current[di] * dt / 3600.0
        ci = np.nonzero(current < 0.0)[0]
        if len(ci):
            fs.aging_charged_ah[ci] += -current[ci] * dt / 3600.0

        # --- thermal (uses start-of-step resistance; aging already read
        # the pre-step temperature through `arr`) -------------------------
        p_loss = current * current * der["res"]
        t_inf = fs.ambient_c + p_loss * fs.r_th
        fs.temp_c = t_inf + (fs.temp_c - t_inf) * der["decay"]

        # --- time and hours-since-full (pre-update SoC, like _apply_step)
        fs.time_s += dt
        fs.h_full[pre_soc < 0.99] += dt / SECONDS_PER_HOUR

        # --- SoC updates per op ------------------------------------------
        soc = pre_soc.copy()
        if len(di):
            cap_d = np.maximum(der["eff_cap"][di], 1e-9)
            soc[di] = _clamp01(pre_soc[di] - op_drain_ah[di] / cap_d)
        chg_i = np.nonzero(mode == _OP_CHARGE)[0]
        if len(chg_i):
            cap_c = np.maximum(der["eff_cap"][chg_i], 1e-9)
            soc[chg_i] = _clamp01(pre_soc[chg_i] + op_stored_ah[chg_i] / cap_c)
        sd_i = np.nonzero(
            (mode <= _OP_REST_KEEP) & (fs.sd_rate > 0.0) & (pre_soc > 0.0)
        )[0]
        if len(sd_i):
            soc[sd_i] *= der["sd_factor"][sd_i]
        fs.soc = soc

        # --- full-charge bookkeeping (charge op only) ---------------------
        if len(chg_i):
            full_i = chg_i[soc[chg_i] >= 0.99]
            if len(full_i):
                rec_i = full_i[pre_soc[full_i] < 0.99]
                if len(rec_i):
                    d4 = fs.damage[_STRAT_ROW]
                    rec = np.minimum(d4[rec_i], fs.recoverable_strat[rec_i] * 0.25)
                    pos = np.nonzero(rec > 0.0)[0]
                    if len(pos):
                        d4[rec_i[pos]] -= rec[pos]
                    fs.recoverable_strat[rec_i] = 0.0
                fs.h_full[full_i] = 0.0

        # --- terminal energy and last current -----------------------------
        if len(di):
            fs.energy_out_wh[di] += op_delivered_w[di] * dt / SECONDS_PER_HOUR
        if len(chg_i):
            fs.energy_in_wh[chg_i] += op_absorbed_w[chg_i] * dt / SECONDS_PER_HOUR
        last = fs.last_current
        last[mode == _OP_REST] = 0.0
        act = np.nonzero(mode >= _OP_DISCHARGE)[0]
        if len(act):
            last[act] = current[act]

    def _observe_all(self, dt: float) -> None:
        """Vectorised :meth:`Node.observe_battery` for the whole fleet."""
        fs = self.fleet
        soc = fs.soc
        current = fs.last_current
        fs.tr_total_time_s += dt
        deep = soc < 0.40
        dpi = np.nonzero(deep)[0]
        if len(dpi):
            fs.tr_deep_time_s[dpi] += dt
        di = np.nonzero(current > 0.0)[0]
        if len(di):
            cd = current[di]
            ah = cd * dt / SECONDS_PER_HOUR
            fs.tr_discharged_ah[di] += ah
            sd = soc[di]
            region = (sd < 0.80).astype(np.intp) + (sd < 0.60) + (sd < 0.40)
            fs.tr_region[region, di] += ah
            fs.tr_discharge_time_s[di] += dt
            fs.tr_current_time_as[di] += cd * dt
            peak = fs.tr_peak_a[di]
            upd = np.nonzero(cd > peak)[0]
            if len(upd):
                fs.tr_peak_a[di[upd]] = cd[upd]
            hri = di[deep[di] & (cd > fs.tracker_ref_current[di])]
            if len(hri):
                fs.tr_high_rate_s[hri] += dt
        ci = np.nonzero(current < 0.0)[0]
        if len(ci):
            fs.tr_charged_ah[ci] += -current[ci] * dt / SECONDS_PER_HOUR
        if BUS.enabled:
            # One call per step; the active TelemetryPolicy decides
            # whether this becomes a columnar frame, per-node samples
            # (byte-identical with the reference stepper), or a summary.
            TELEMETRY.record_fleet_step(BUS.now, dt, fs)
