"""The control plane's VM scheduler / placement engine.

Placement decisions used to be scattered: round-robin loops in scenario
factories, ad-hoc ``min(..., key=len(vms))`` picks in job runners, and
the :mod:`repro.core.placement` helpers called directly from experiment
wiring.  :class:`PlacementEngine` centralizes them behind one object the
coordinator owns:

* :meth:`choose_host` — least-loaded placement for a new VM;
* :meth:`spread` — balanced placement for a batch (reproduces the
  classic round-robin layout for identical VMs, so converted call sites
  stay bit-identical).

A protected VM's home is not the engine's to pick: a drain, like a
recovery, follows the member rule of
:func:`~repro.core.recovery.member_homes`.

The engine is deliberately stateless between calls — it reads the live
cluster every time — which makes it safe to consult from concurrent
operations.
"""

from __future__ import annotations

import heapq

from ..cluster.cluster import VirtualCluster
from ..core.recovery import least_loaded

__all__ = ["PlacementEngine", "PlacementError"]


class PlacementError(RuntimeError):
    """No node satisfies the placement constraints."""


class PlacementEngine:
    """Places the VMs the control plane creates."""

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
        return least_loaded(nodes)

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
