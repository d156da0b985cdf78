"""Tests for double-failure protection: DVDC under ``scheme="rdp"``.

RDP is the same checkpoint protocol as XOR with a second shard per
group; these pin the double-parity behaviours on
``DisklessCheckpointer(scheme="rdp")`` over ``layout_dvdc(n_parity=2)``.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.audit import audit_cluster
from repro.cluster import ClusterSpec, VirtualCluster, VMState, xor_reduce
from repro.coding import shard_key
from repro.core import (
    DisklessCheckpointer,
    GroupLayout,
    LayoutError,
    RaidGroup,
    layout_dvdc,
)
from repro.sim import Simulator

from conftest import spread_vms


def _cluster(n_nodes=6, vms=12, seed=4):
    sim = Simulator()
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
    rng = np.random.default_rng(seed)
    for vm in spread_vms(cluster, vms, 1e9, image_pages=16, page_size=64):
        vm.image.write(0, rng.integers(0, 256, 512, dtype=np.uint8))
        vm.image.clear_dirty()
    return sim, cluster, rng


def _checkpointer(cluster):
    layout = layout_dvdc(cluster, group_size=3, n_parity=2)
    return DisklessCheckpointer(cluster, layout, scheme="rdp")


class TestLayout:
    def test_parity_nodes_distinct_and_off_members(self):
        sim, cluster, _ = _cluster()
        for g in layout_dvdc(cluster, group_size=3, n_parity=2).groups:
            member_nodes = {cluster.vm(v).node_id for v in g.member_vm_ids}
            row_node, diag_node = g.parity_nodes
            assert row_node not in member_nodes
            assert diag_node not in member_nodes
            assert row_node != diag_node

    def test_needs_group_size_plus_two_nodes(self):
        sim, cluster, _ = _cluster(n_nodes=4, vms=8)
        with pytest.raises(LayoutError):
            layout_dvdc(cluster, group_size=3, n_parity=2)

    def test_all_vms_covered(self):
        sim, cluster, _ = _cluster()
        layout = layout_dvdc(cluster, group_size=3, n_parity=2)
        assert layout.vm_ids == list(range(12))

    def test_group_validation(self):
        with pytest.raises(LayoutError):
            RaidGroup(0, (1, 2), 3, (3,))  # same parity node twice
        with pytest.raises(LayoutError):
            GroupLayout([
                RaidGroup(0, (1,), 2, (3,)),
                RaidGroup(1, (1,), 4, (5,)),
            ])

    def test_group_of(self):
        layout = GroupLayout([RaidGroup(0, (7,), 1, (2,))])
        assert layout.group_of(7).group_id == 0
        with pytest.raises(LayoutError):
            layout.group_of(99)


class TestCycle:
    def test_cycle_stores_both_shards(self):
        sim, cluster, _ = _cluster()
        ck = _checkpointer(cluster)
        r = sim.run_process(ck.run_cycle())
        assert r.committed
        for g in ck.layout.groups:
            for j, home in enumerate(g.parity_nodes):
                assert shard_key(g.group_id, j) in cluster.node(home).parity_store

    def test_traffic_double_single_parity(self):
        sim, cluster, _ = _cluster()
        ck = _checkpointer(cluster)
        r = sim.run_process(ck.run_cycle())
        # each of 12 x 1 GB images ships to two parity nodes
        assert r.network_bytes == pytest.approx(24e9)

    def test_row_shard_matches_xor_of_members(self):
        sim, cluster, _ = _cluster()
        ck = _checkpointer(cluster)
        sim.run_process(ck.run_cycle())
        g = ck.layout.groups[0]
        row = cluster.node(g.parity_node).parity_store[g.group_id]
        payloads = [
            cluster.hypervisor(cluster.vm(v).node_id).committed(v).payload_flat()
            for v in g.member_vm_ids
        ]
        nbytes = payloads[0].shape[0]
        assert np.array_equal(row.data[:nbytes], xor_reduce(payloads))


class TestDoubleFailureRecovery:
    def _checkpoint(self, sim, cluster, ck, rng):
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in cluster.all_vms:
                committed[vm.vm_id] = (
                    cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
                vm.image.touch_pages(rng.integers(0, 16, 3), rng)

        sim.run_process(proc())
        return committed

    @pytest.mark.parametrize("pair", list(combinations(range(6), 2)))
    def test_every_two_node_crash_recoverable(self, pair):
        """The RDP promise: ANY two simultaneous node failures are
        survivable — exhaustively over all 15 node pairs."""
        sim, cluster, rng = _cluster()
        ck = _checkpointer(cluster)
        committed = self._checkpoint(sim, cluster, ck, rng)
        a, b = pair
        cluster.kill_node(a)
        cluster.kill_node(b)
        sim.run_process(ck.recover(a))
        for vm in cluster.all_vms:
            assert vm.state == VMState.RUNNING
            assert np.array_equal(vm.image.flat, committed[vm.vm_id]), (
                f"vm{vm.vm_id} not bit-exact after killing nodes {pair}"
            )

    def test_single_failure_also_fine(self):
        sim, cluster, rng = _cluster()
        ck = _checkpointer(cluster)
        committed = self._checkpoint(sim, cluster, ck, rng)
        cluster.kill_node(2)
        sim.run_process(ck.recover(2))
        for vm in cluster.all_vms:
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])

    def test_recover_before_checkpoint_raises(self):
        sim, cluster, _ = _cluster()
        ck = _checkpointer(cluster)
        cluster.kill_node(0)
        with pytest.raises(RuntimeError):
            sim.run_process(ck.recover(0))

    def test_post_recovery_cycle_consistent(self):
        sim, cluster, rng = _cluster()
        ck = _checkpointer(cluster)
        self._checkpoint(sim, cluster, ck, rng)
        cluster.kill_node(0)
        cluster.kill_node(3)

        def proc():
            yield from ck.recover(0)
            for vm in cluster.all_vms:
                vm.image.touch_pages(rng.integers(0, 16, 2), rng)
            r = yield from ck.run_cycle()
            return r

        r = sim.run_process(proc())
        assert r.committed
        # both shards for every group live on alive nodes again, and the
        # new epoch's shards are coherent with the committed images
        for g in ck.layout.groups:
            assert all(cluster.node(n).alive for n in g.parity_nodes)
        report = audit_cluster(
            cluster, ck.layout, ck.committed_epoch, scheme=ck.scheme
        )
        assert not report.fatal
