"""The control plane's VM scheduler / placement engine.

Placement decisions used to be scattered: round-robin loops in scenario
factories, ad-hoc ``min(..., key=len(vms))`` picks in job runners, and
the :mod:`repro.core.placement` helpers called directly from experiment
wiring.  :class:`PlacementEngine` centralizes them behind one object the
coordinator owns:

* :meth:`choose_host` — least-loaded placement for a new VM;
* :meth:`spread` — balanced placement for a batch (reproduces the
  classic round-robin layout for identical VMs, so converted call sites
  stay bit-identical);
* :meth:`choose_drain_target` — constraint-aware re-placement during a
  drain: never co-locate a VM with another element (member or parity)
  of its own RAID group, so the layout stays valid mid-maintenance.

The engine is deliberately stateless between calls — it reads the live
cluster every time — which makes it safe to consult from concurrent
operations.
"""

from __future__ import annotations

import heapq

from ..cluster.cluster import VirtualCluster
from ..cluster.vm import VirtualMachine
from ..core.groups import GroupLayout, LayoutError

__all__ = ["PlacementEngine", "PlacementError"]


class PlacementError(RuntimeError):
    """No node satisfies the placement constraints."""


class PlacementEngine:
    """Owns every placement decision the control plane makes."""

    def __init__(self, cluster: VirtualCluster):
        self.cluster = cluster

    # ------------------------------------------------------------------
    def _candidates(self, exclude=frozenset()):
        return [
            n for n in self.cluster.alive_nodes if n.node_id not in exclude
        ]

    def choose_host(self, exclude=frozenset()) -> int:
        """Least-loaded alive node outside ``exclude`` (ties by id)."""
        nodes = self._candidates(exclude)
        if not nodes:
            raise PlacementError("no eligible node for placement")
        return min(nodes, key=lambda n: (len(n.vms), n.node_id)).node_id

    def spread(self, count: int, exclude=frozenset()) -> list[int]:
        """Hosts for ``count`` identical VMs, balanced.

        Greedy least-loaded with id tie-break: on an empty cluster this
        reproduces round-robin (vm *i* → node ``i % n``) exactly, so
        converting factory call sites to the engine changes nothing.
        """
        nodes = self._candidates(exclude)
        if not nodes:
            raise PlacementError("no eligible node for placement")
        # heap of (load, node_id): each pop is the exact (load, id) minimum
        # the historical linear scan selected, at O(log n) per VM instead
        # of O(n) — placement sequences are bit-identical
        heap = [(len(n.vms), n.node_id) for n in nodes]
        heapq.heapify(heap)
        out: list[int] = []
        for _ in range(count):
            load, nid = heapq.heappop(heap)
            out.append(nid)
            heapq.heappush(heap, (load + 1, nid))
        return out

    # ------------------------------------------------------------------
    def choose_drain_target(
        self,
        vm: VirtualMachine,
        layout: GroupLayout | None = None,
        exclude=frozenset(),
    ) -> int:
        """Where to migrate ``vm`` so its RAID group stays orthogonal.

        Excludes the VM's current node, every node hosting another
        member of its group, the group's parity shard homes, and ``exclude``
        (draining / fenced / maintenance nodes); then least-loaded.
        """
        banned = set(exclude)
        if vm.node_id is not None:
            banned.add(vm.node_id)
        if layout is not None:
            try:
                group = layout.group_of(vm.vm_id)
            except LayoutError:
                group = None
            if group is not None:
                banned.update(group.parity_nodes)
                for other in group.member_vm_ids:
                    if other == vm.vm_id:
                        continue
                    node = self.cluster.vm(other).node_id
                    if node is not None:
                        banned.add(node)
        nodes = self._candidates(banned)
        if not nodes:
            raise PlacementError(
                f"no orthogonality-preserving target for vm {vm.vm_id}"
            )
        return min(nodes, key=lambda n: (len(n.vms), n.node_id)).node_id
