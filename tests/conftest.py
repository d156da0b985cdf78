"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, VirtualCluster
from repro.controlplane import PlacementEngine
from repro.network import Network, SwitchedTopology
from repro.sim import RngRegistry, Simulator


def spread_vms(cluster: VirtualCluster, n_vms: int, memory_bytes: float,
               **vm_kwargs) -> list:
    """``n_vms`` identical VMs placed by ``PlacementEngine.spread``: on an
    empty cluster, VM *i* lands on node ``i % n_nodes``."""
    return [cluster.create_vm(host, memory_bytes, **vm_kwargs)
            for host in PlacementEngine(cluster).spread(n_vms)]


class GlobalFillNetwork(Network):
    """The bit-exactness oracle for the component-scoped settle: every
    settle fills all active flows as one component.  ``_active`` is
    admission-ordered, so flows are rescheduled in the same order."""

    def _components(self, dirty_links):
        return [list(self._active)]


def global_fill(topology):
    """``topology`` (before its first flow) settling by global fill."""
    topology.network.__class__ = GlobalFillNetwork
    return topology


def global_fill_spec(n_nodes: int) -> ClusterSpec:
    """A flat :class:`ClusterSpec` whose fabric settles by global fill."""

    def factory(sim, spec, tracer):
        return global_fill(SwitchedTopology(
            sim, spec.n_nodes, node_bandwidth=spec.node_bandwidth,
            nas_bandwidth=spec.nas_bandwidth, latency=spec.latency,
            tracer=tracer,
        ))

    return ClusterSpec(n_nodes=n_nodes, topology_factory=factory)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def cluster4(sim: Simulator) -> VirtualCluster:
    """The Fig. 4 skeleton: 4 nodes, no VMs yet."""
    return VirtualCluster(sim, ClusterSpec(n_nodes=4))


@pytest.fixture
def paper_cluster(sim: Simulator) -> VirtualCluster:
    """Fig. 4 complete: 4 nodes × 3 functional VMs with seeded content."""
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=4))
    vms = spread_vms(
        cluster, 12, 1e9, dirty_rate=1e6, image_pages=32, page_size=128
    )
    rng = np.random.default_rng(777)
    for vm in vms:
        vm.image.write(0, rng.integers(0, 256, 2048, dtype=np.uint8))
        vm.image.clear_dirty()
    return cluster
