"""BAAT-h: hiding-only scheme (paper Table 4).

"Only use aging-aware VM migration technique to hide battery aging
variation." Per section VI-B, BAAT-h reacts to a fast-aging node by
migrating load off it, but "lacks the holistic battery node aging
information (e.g., weighted aging metrics) and the migration is unaware
[of] the aging state of other battery nodes, which make[s] the migration
become random and low efficiency."

Faithfully reproduced here: the trigger is single-metric (window NAT of a
node exceeding the cluster mean by a tolerance), the *destination* is
chosen uniformly at random among feasible nodes (possibly another stressed
one), and migrations recur as long as the imbalance persists — generating
the stop-and-copy overhead that costs BAAT-h throughput in Fig. 20.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.policies.base import Policy
from repro.datacenter.vm import VM
from repro.errors import MigrationError
from repro.obs.spans import SPANS
from repro.rng import spawn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.fleet import FleetState

#: A node is "fast aging" when its window NAT exceeds the cluster mean by
#: this multiplicative tolerance. Tight, so BAAT-h reacts eagerly — the
#: paper describes its migrations as frequent.
NAT_IMBALANCE_TOLERANCE = 1.15

#: Minimum seconds between successive migrations off the same node,
#: limiting (but not eliminating) migration churn.
MIGRATION_COOLDOWN_S = 300.0


class BAATHidingPolicy(Policy):
    """Aging-variation hiding through (crude) VM migration only."""

    name = "baat-h"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._rng: Optional[np.random.Generator] = None
        self._last_migration_s: Dict[str, float] = {}
        self.migrations = 0

    def _after_bind(self) -> None:
        self._rng = spawn(self.seed, "baat-h/destinations")

    def place_vm(self, vm: VM) -> str:
        """Placement is aging-aware (NAT-ranked) but unweighted."""
        cluster = self._require_bound()
        assert self.controller is not None
        by_nat = sorted(
            cluster.nodes,
            key=lambda n: (self.controller.window_metrics(n).nat, n.name),
        )
        for node in by_nat:
            if cluster._fits(node, vm):
                cluster.place(vm, node.name)
                return node.name
        # Fall back to naive placement error behaviour.
        assert self.scheduler is not None
        return self.scheduler.place_naive(vm)

    def control(
        self,
        t: float,
        dt: float,
        node_draws: Dict[str, float],
        solar_w: float = 0.0,
    ) -> None:
        cluster = self._require_bound()
        assert self.controller is not None and self._rng is not None
        metrics = {n.name: self.controller.window_metrics(n) for n in cluster}
        nats = [m.nat for m in metrics.values()]
        mean_nat = sum(nats) / len(nats)
        if mean_nat <= 0.0:
            return
        for node in cluster:
            if not node.is_up or not node.server.vms:
                continue
            if metrics[node.name].nat <= NAT_IMBALANCE_TOLERANCE * mean_nat:
                continue
            last = self._last_migration_s.get(node.name, -float("inf"))
            if t - last < MIGRATION_COOLDOWN_S:
                continue
            self._migrate_random_vm(node.name, t)

    def control_fleet(
        self,
        t: float,
        dt: float,
        fleet: "FleetState",
        solar_w: float = 0.0,
    ) -> bool:
        """NAT-imbalance scan as one array pass; the rare candidate nodes
        fall back to the same object-path migration helper, so events and
        RNG draws are bit-identical to :meth:`control`."""
        assert self.controller is not None and self._rng is not None
        nat = self.controller.window_nat_array(fleet)
        mean_nat = sum(nat.tolist()) / fleet.n
        if mean_nat <= 0.0:
            return True
        cand = nat > (NAT_IMBALANCE_TOLERANCE * mean_nat)
        migrated = False
        for i in np.nonzero(cand)[0].tolist():
            node = fleet.nodes[i]
            if not node.is_up or not node.server.vms:
                continue
            last = self._last_migration_s.get(node.name, -float("inf"))
            if t - last < MIGRATION_COOLDOWN_S:
                continue
            self._migrate_random_vm(node.name, t)
            migrated = True
        if migrated:
            # Migrations move VMs (and un-park destinations) on the
            # objects; the power path reads both as arrays.
            fleet.refresh_policy_view()
        return True

    def _migrate_random_vm(self, source: str, t: float) -> None:
        """Move one random VM from ``source`` to a random feasible node —
        deliberately not consulting other nodes' aging state."""
        cluster = self._require_bound()
        vms = cluster.vms_on(source)
        if not vms:
            return
        assert self._rng is not None
        vm = vms[int(self._rng.integers(len(vms)))]
        others = [n.name for n in cluster.nodes if n.name != source]
        self._rng.shuffle(others)
        # The span marks the migration as NAT-imbalance-driven churn, so
        # provenance stats can separate hiding moves from Fig.-9 ones.
        with SPANS.span("hiding_rebalance", node=source, t=t):
            for destination in others:
                if cluster.can_migrate(vm.name, destination):
                    try:
                        cluster.migrate(vm.name, destination)
                    except MigrationError:
                        continue
                    self.migrations += 1
                    self._last_migration_s[source] = t
                    return

    def describe(self) -> str:
        return "Only use aging-aware VM migration technique to hide battery aging variation"
