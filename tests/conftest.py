"""Shared fixtures for the test suite."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.audit import Violation
from repro.audit.invariants import _MAX_ERASURE_PATTERNS
from repro.cluster import ClusterSpec, VirtualCluster
from repro.coding import get_scheme, shard_key
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


def exhaustive_recoverable(cluster, layout, scheme=None) -> list[Violation]:
    """The findings oracle for ``check_single_failure_recoverable``: every
    auditable group decodes every erasure pattern within tolerance that
    touches a member, with no syndrome check and no per-shape skip."""
    coding = get_scheme(scheme)
    out: list[Violation] = []
    t, m = coding.tolerance, coding.n_shards
    name = "single-failure-recoverable" if t == 1 else "erasure-recoverable"
    for g in layout.groups:
        k = len(g.member_vm_ids)
        shards = []
        for j, pnode_id in enumerate(g.parity_nodes):
            pnode = cluster.node(pnode_id)
            block = (
                pnode.parity_store.get(shard_key(g.group_id, j))
                if pnode.alive else None
            )
            if block is None or block.data is None:
                break
            shards.append(block.data)
        if len(shards) < m:
            continue
        member_list = []
        for v in g.member_vm_ids:
            vm = cluster.vm(v)
            img = (
                cluster.hypervisor(vm.node_id).committed(v)
                if vm.node_id is not None else None
            )
            if img is None or img.payload is None:
                break
            member_list.append(img.payload_flat())
        if len(member_list) < k:
            continue
        length = max(p.shape[0] for p in member_list)
        patterns = [
            combo
            for r in range(1, t + 1)
            for combo in combinations(range(k + m), r)
            if any(slot < k for slot in combo)
        ][:_MAX_ERASURE_PATTERNS]
        for combo in patterns:
            mem = [None if i in combo else member_list[i] for i in range(k)]
            shd = [None if (k + j) in combo else shards[j] for j in range(m)]
            try:
                rebuilt = coding.reconstruct(mem, shd, nbytes=length)
            except Exception as exc:
                out.append(Violation(
                    name, "fatal", f"group {g.group_id}",
                    f"pattern {combo} within tolerance {t} failed to "
                    f"decode: {exc}",
                ))
                continue
            for i in combo:
                if i >= k:
                    continue
                want = member_list[i]
                got = rebuilt[i][: want.shape[0]]
                if got.shape[0] != want.shape[0]:
                    out.append(Violation(
                        name, "fatal", f"vm {g.member_vm_ids[i]}",
                        f"pattern {combo}: rebuilt image is {got.shape[0]} "
                        f"bytes, committed {want.shape[0]}",
                    ))
                elif not np.array_equal(got, want):
                    nbad = int(np.count_nonzero(got != want))
                    out.append(Violation(
                        name, "fatal", f"vm {g.member_vm_ids[i]}",
                        f"pattern {combo}: rebuilt image differs from "
                        f"committed in {nbad} byte(s)",
                    ))
    return out


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
