"""Scenario factories: ready-made clusters and workloads.

:func:`scaled_scenario` is the one population loop: the CLI, the
studies, ``repro.perf``, the paper benches and the examples all build
their simulator, cluster and seeded VM images through it, so they place
VMs and seed images by one rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import ClusterSpec, VirtualCluster
from ..controlplane.scheduler import PlacementEngine
from ..sim import NULL_TRACER, RngRegistry, Simulator, Tracer

__all__ = ["Scenario", "paper_scenario", "scaled_scenario"]

GIB = float(1 << 30)


@dataclass
class Scenario:
    """A ready-to-run simulation context."""

    sim: Simulator
    cluster: VirtualCluster
    rngs: RngRegistry

    @property
    def vms(self):
        return self.cluster.all_vms


def paper_scenario(seed: int = 0, tracer: Tracer = NULL_TRACER) -> Scenario:
    """The Fig. 4 / Fig. 5 configuration: 4 nodes, 12 VMs, GbE, one NAS."""
    return scaled_scenario(4, 3, seed=seed, tracer=tracer)


def scaled_scenario(
    nodes: int | ClusterSpec,
    vms_per_node: int,
    vm_memory: float = GIB,
    seed: int = 0,
    image_pages: int = 64,
    page_size: int = 256,
    spares: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> Scenario:
    """``vms_per_node`` identical VMs on each of the first
    ``n - spares`` of ``n`` nodes.

    ``nodes`` is a node count or a whole :class:`ClusterSpec` (bandwidths,
    geo fabric).  VM *i* lands on node ``i % (n - spares)``; the last
    ``spares`` nodes stay empty, so ``SparePool.provision`` takes exactly
    them.  Timing uses the logical ``vm_memory`` and a 2e5 B/s dirty
    rate; each functional image holds its first ``min(512, nbytes)``
    bytes from the ``image-init`` stream and starts with no dirty pages.
    """
    # sizes reach here from campaign spec files, so they are rejected by
    # field name: 0 pages means "no functional image" to create_vm
    for name, value in (("vms_per_node", vms_per_node),
                        ("image_pages", image_pages), ("page_size", page_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    spec = nodes if isinstance(nodes, ClusterSpec) else ClusterSpec(n_nodes=nodes)
    n = spec.n_nodes
    if not 0 <= spares < n:
        raise ValueError(f"spares must be in 0..{n - 1}, got {spares}")
    sim = Simulator()
    rngs = RngRegistry(seed)
    cluster = VirtualCluster(sim, spec, tracer=tracer)
    # on an empty cluster the engine's least-loaded greedy is exactly
    # round-robin (pinned by the golden digests)
    hosts = PlacementEngine(cluster).spread(
        (n - spares) * vms_per_node, exclude=range(n - spares, n)
    )
    init = rngs.stream("image-init")
    for host in hosts:
        vm = cluster.create_vm(
            host, vm_memory, dirty_rate=2e5,
            image_pages=image_pages, page_size=page_size,
        )
        fill = min(512, vm.image.nbytes)
        vm.image.write(0, init.integers(0, 256, fill, dtype=np.uint8))
        vm.image.clear_dirty()
    return Scenario(sim=sim, cluster=cluster, rngs=rngs)
