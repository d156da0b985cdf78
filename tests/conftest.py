"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, VirtualCluster
from repro.perf import run_process  # noqa: F401 - test modules import it from here
from repro.sim import RngRegistry, Simulator


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
    vms = cluster.create_vms_balanced(
        12, 1e9, dirty_rate=1e6, image_pages=32, page_size=128
    )
    rng = np.random.default_rng(777)
    for vm in vms:
        vm.image.write(0, rng.integers(0, 256, 2048, dtype=np.uint8))
        vm.image.clear_dirty()
    return cluster
