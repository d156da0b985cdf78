"""Scenario factories: ready-made clusters and workloads.

These build the configurations the paper's figures use, so examples,
tests, and benches construct identical scenarios from one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.cluster import ClusterSpec, VirtualCluster
from ..sim import NULL_TRACER, RngRegistry, Simulator, Tracer

__all__ = ["Scenario", "paper_scenario", "scaled_scenario"]

GIB = float(1 << 30)


@dataclass
class Scenario:
    """A ready-to-run simulation context."""

    sim: Simulator
    cluster: VirtualCluster
    rngs: RngRegistry
    vm_memory: float
    vm_dirty_rate: float

    @property
    def vms(self):
        return self.cluster.all_vms


def paper_scenario(
    seed: int = 0,
    functional: bool = True,
    image_pages: int = 64,
    page_size: int = 256,
    tracer: Tracer = NULL_TRACER,
) -> Scenario:
    """The Fig. 4 / Fig. 5 configuration: 4 nodes, 12 VMs, GbE, one NAS.

    ``functional`` attaches scaled-down real memory images so parity and
    recovery are bit-exact verifiable; timing still uses 1 GiB logical
    images.
    """
    return scaled_scenario(
        n_nodes=4,
        vms_per_node=3,
        seed=seed,
        functional=functional,
        image_pages=image_pages,
        page_size=page_size,
        tracer=tracer,
    )


def scaled_scenario(
    n_nodes: int,
    vms_per_node: int,
    vm_memory: float = 1.0 * GIB,
    vm_dirty_rate: float = 2e5,
    node_bandwidth: float = 125e6,
    nas_bandwidth: float = 100e6,
    seed: int = 0,
    functional: bool = False,
    image_pages: int = 64,
    page_size: int = 256,
    tracer: Tracer = NULL_TRACER,
) -> Scenario:
    """A cluster of ``n_nodes`` × ``vms_per_node`` identical VMs."""
    sim = Simulator()
    rngs = RngRegistry(seed)
    cluster = VirtualCluster(
        sim,
        ClusterSpec(
            n_nodes=n_nodes,
            node_bandwidth=node_bandwidth,
            nas_bandwidth=nas_bandwidth,
        ),
        tracer=tracer,
    )
    vms = cluster.create_vms_balanced(
        n_nodes * vms_per_node,
        vm_memory,
        dirty_rate=vm_dirty_rate,
        image_pages=image_pages if functional else None,
        page_size=page_size,
    )
    if functional:
        rng = rngs.stream("init-content")
        for vm in vms:
            vm.image.write(
                0, rng.integers(0, 256, vm.image.nbytes // 2, dtype=np.uint8)
            )
            vm.image.clear_dirty()
    return Scenario(
        sim=sim,
        cluster=cluster,
        rngs=rngs,
        vm_memory=vm_memory,
        vm_dirty_rate=vm_dirty_rate,
    )
