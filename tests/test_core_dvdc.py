"""Tests for the diskless checkpoint protocol across all three
architectures (Figs. 1, 3, 4): cycles, parity invariants, recovery."""

import numpy as np
import pytest

from repro.checkpoint import IncrementalCapture
from repro.cluster import ClusterSpec, VirtualCluster, VMState, xor_reduce
from repro.cluster.checksum import block_checksum
from repro.core import checkpoint_node, dvdc, first_shot, validate_layout

from conftest import spread_vms


def _parity_matches_committed(cluster, ck):
    """The diskless safety invariant: every group's stored parity equals
    the XOR of its members' committed checkpoint payloads."""
    for g in ck.layout.groups:
        block = cluster.node(g.parity_node).parity_store[g.group_id]
        payloads = []
        for v in g.member_vm_ids:
            vm = cluster.vm(v)
            payloads.append(
                cluster.hypervisor(vm.node_id).committed(v).payload_flat()
            )
        if not np.array_equal(block.data, xor_reduce(payloads)):
            return False
    return True


class TestDVDCCycle:
    def test_full_epoch_commits_parity_everywhere(self, paper_cluster, sim):
        ck = dvdc(paper_cluster)

        def proc():
            r = yield from ck.run_cycle()
            return r

        r = sim.run_process(proc())
        assert r.committed
        assert ck.committed_epoch == 0
        assert _parity_matches_committed(paper_cluster, ck)
        # parity work evenly distributed (Fig. 4): every node XORs
        assert sorted(r.xor_seconds_by_node) == [0, 1, 2, 3]
        vals = list(r.xor_seconds_by_node.values())
        assert max(vals) == pytest.approx(min(vals))

    def test_overhead_is_barrier_pause(self, paper_cluster, sim):
        ck = dvdc(paper_cluster)

        def proc():
            r = yield from ck.run_cycle()
            return r

        r = sim.run_process(proc())
        assert r.overhead == pytest.approx(0.12)  # 3 VMs/node x 40 ms

    def test_latency_far_below_diskful(self, paper_cluster, sim):
        """The headline qualitative claim: peer exchange beats NAS fan-in."""
        ck = dvdc(paper_cluster)

        def proc():
            r = yield from ck.run_cycle()
            return r

        r = sim.run_process(proc())
        # 3 GB per node over its own 125 MB/s NIC ~= 24 s  (diskful: ~230 s)
        assert r.latency < 40.0

    def test_incremental_epoch_moves_only_deltas(self, paper_cluster, sim):
        ck = dvdc(paper_cluster, strategy=IncrementalCapture())

        def proc():
            yield from ck.run_cycle()
            for vm in paper_cluster.all_vms:
                vm.image.write(64, b"small change")
            yield sim.timeout(10.0)
            r1 = yield from ck.run_cycle()
            return r1

        r1 = sim.run_process(proc())
        assert r1.network_bytes < 12e9 / 10
        assert _parity_matches_committed(paper_cluster, ck)

    def test_many_incremental_epochs_keep_invariant(self, paper_cluster, sim, rng):
        ck = dvdc(paper_cluster, strategy=IncrementalCapture())

        def proc():
            yield from ck.run_cycle()
            for _ in range(5):
                for vm in paper_cluster.all_vms:
                    vm.image.touch_pages(rng.integers(0, 32, 4), rng)
                yield sim.timeout(5.0)
                yield from ck.run_cycle()

        sim.run_process(proc())
        assert ck.committed_epoch == 5
        assert _parity_matches_committed(paper_cluster, ck)

    def test_history_accumulates(self, paper_cluster, sim):
        ck = dvdc(paper_cluster)

        def proc():
            yield from ck.run_cycle()
            yield from ck.run_cycle()

        sim.run_process(proc())
        assert [h.epoch for h in ck.history] == [0, 1]


class TestDVDCRecovery:
    def _checkpoint_then_kill(self, cluster, sim, ck, node, rng):
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in cluster.all_vms:
                committed[vm.vm_id] = (
                    cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
                vm.image.touch_pages(rng.integers(0, 32, 3), rng)
            cluster.kill_node(node)
            rep = yield from ck.recover(node)
            return rep

        rep = sim.run_process(proc())
        return rep, committed

    def test_reconstruction_bit_exact(self, paper_cluster, sim, rng):
        ck = dvdc(paper_cluster)
        rep, committed = self._checkpoint_then_kill(paper_cluster, sim, ck, 2, rng)
        assert sorted(rep.reconstructed) == [2, 6, 10]
        for vm in paper_cluster.all_vms:
            assert vm.state == VMState.RUNNING
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])

    def test_survivors_roll_back_locally(self, paper_cluster, sim, rng):
        ck = dvdc(paper_cluster)
        rep, _ = self._checkpoint_then_kill(paper_cluster, sim, ck, 0, rng)
        assert len(rep.rolled_back) == 9

    def test_recovery_avoids_nas_entirely(self, paper_cluster, sim, rng):
        ck = dvdc(paper_cluster)
        self._checkpoint_then_kill(paper_cluster, sim, ck, 1, rng)
        assert len(paper_cluster.nas) == 0
        assert paper_cluster.nas.disk.ops == 0

    @pytest.mark.parametrize("scheme", ["xor", "rdp", "rs-8-2"])
    def test_parity_node_loss_reencodes(self, paper_cluster, sim, rng, scheme):
        ck = dvdc(paper_cluster, scheme=scheme)
        lost_shard = {g.group_id for g in ck.layout.groups_with_parity_on(3)}
        rep, _ = self._checkpoint_then_kill(paper_cluster, sim, ck, 3, rng)
        # recover re-encodes exactly the groups whose shard died with
        # node 3 (under XOR on the Fig. 4 layout: members of 3 groups and
        # parity of 1).  Groups that lost a member are rebuilt onto the
        # three survivors, necessarily next to another element of the
        # group — those colocated shards wait for heal, not recover.
        assert set(rep.reencoded_groups) == lost_shard
        assert len(rep.reencoded_groups) == len(lost_shard)
        assert not ck.layout.groups_with_parity_on(3)

    def test_recover_without_epoch_raises(self, paper_cluster, sim):
        ck = dvdc(paper_cluster)
        paper_cluster.kill_node(0)

        def proc():
            yield from ck.recover(0)

        with pytest.raises(RuntimeError):
            sim.run_process(proc())

    def test_post_recovery_epochs_consistent(self, paper_cluster, sim, rng):
        ck = dvdc(paper_cluster, strategy=IncrementalCapture())

        def proc():
            yield from ck.run_cycle()
            paper_cluster.kill_node(1)
            yield from ck.recover(1)
            for vm in paper_cluster.all_vms:
                vm.image.touch_pages(rng.integers(0, 32, 4), rng)
            yield sim.timeout(5.0)
            yield from ck.run_cycle()

        sim.run_process(proc())
        assert _parity_matches_committed(paper_cluster, ck)

    def test_heal_restores_validity_after_repair(self, paper_cluster, sim, rng):
        ck = dvdc(paper_cluster)

        def proc():
            yield from ck.run_cycle()
            paper_cluster.kill_node(1)
            yield from ck.recover(1)
            paper_cluster.repair_node(1)
            healed = yield from ck.heal()
            return healed

        healed = sim.run_process(proc())
        assert healed  # something was degraded and got fixed
        assert validate_layout(ck.layout, paper_cluster).ok
        assert _parity_matches_committed(paper_cluster, ck)

    def test_heal_survives_new_home_crash_mid_encode(self, paper_cluster, sim, rng):
        # a background heal nobody joins: were the crash of the node it
        # re-encodes onto to escape as an error, it would end the run.
        # Group 0's shard home dies after a recovery, so heal must
        # re-home the lost shard
        ck = dvdc(paper_cluster)
        encode_at = ck._encode_at
        crashed = []

        def encode_then_crash(node_id, nbytes):
            if not crashed:
                crashed.append(node_id)

                def crash():
                    yield sim.timeout(1e-6)
                    paper_cluster.kill_node(node_id)

                sim.process(crash())
            yield from encode_at(node_id, nbytes)

        def proc():
            yield from ck.run_cycle()
            paper_cluster.kill_node(1)
            yield from ck.recover(1)
            paper_cluster.repair_node(1)
            yield from ck.heal()
            paper_cluster.kill_node(ck.layout.groups[0].parity_nodes[0])
            ck._encode_at = encode_then_crash
            sim.process(ck.heal())

        sim.run_process(proc())
        sim.run()
        assert crashed
        assert not paper_cluster.node(crashed[0]).alive
        assert crashed[0] not in ck.layout.groups[0].parity_nodes


class TestFoldedEpoch:
    """An incremental epoch under a scheme that folds deltas: the blocks
    take their member checksums from the commit, and the commit still
    patches each committed image in place."""

    def _folded(self, sim, scheme, rng):
        """6 nodes × 2 functional VMs: one full epoch, then one folded
        incremental epoch.  Returns the cluster, the checkpointer and
        ``id`` of every committed payload before the folded epoch."""
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=6))
        for vm in spread_vms(
            cluster, 12, 1e9, dirty_rate=1e6, image_pages=16, page_size=128
        ):
            vm.image.write(0, rng.integers(0, 256, 2048, dtype=np.uint8))
            vm.image.clear_dirty()
        ck = dvdc(cluster, strategy=IncrementalCapture(), scheme=scheme)
        ids = {}

        def proc():
            yield from ck.run_cycle()
            for vm in cluster.all_vms:
                # ids only: a held reference would defeat the steal gate
                ids[vm.vm_id] = id(
                    cluster.hypervisor(vm.node_id).committed(vm.vm_id).payload
                )
                vm.image.touch_pages(rng.integers(0, 16, 4), rng)
            r = yield from ck.run_cycle()
            assert r.committed

        sim.run_process(proc())
        return cluster, ck, ids

    @pytest.mark.parametrize("scheme", ["xor", "rs-8-2", "rs-4-3"])
    def test_blocks_carry_commit_fingerprints_and_commit_steals(
        self, sim, rng, scheme
    ):
        cluster, ck, ids = self._folded(sim, scheme, rng)
        for g in ck.layout.groups:
            committed = {
                v: cluster.hypervisor(cluster.vm(v).node_id).committed(v)
                for v in g.member_vm_ids
            }
            shards = ck.scheme.encode([c.payload_flat() for c in committed.values()])
            want = (
                {v: c.meta["checksum"] for v, c in committed.items()}
                if ck.scheme.folded_member_checksums else {}
            )
            for blk, shard in zip(ck._shard_blocks(g), shards):
                assert blk.epoch == 1
                assert np.array_equal(blk.data, shard)
                assert blk.member_checksums == want
                # a folded shard's derived checksum is its bytes' checksum
                assert blk.checksum == block_checksum(blk.data)
        for vm in cluster.all_vms:
            img = cluster.hypervisor(vm.node_id).committed(vm.vm_id)
            assert id(img.payload) == ids[vm.vm_id], f"vm {vm.vm_id}: commit copied"
            # the commit moved the checksum by the dirty pages alone
            assert img.meta["checksum"] == block_checksum(img.payload)

    @pytest.mark.parametrize("scheme", ["rs-8-2", "rs-4-3"])
    def test_corrupt_survivor_fails_end_to_end_checksum(self, sim, rng, scheme):
        cluster, ck, _ = self._folded(sim, scheme, rng)
        group = ck.layout.groups[0]
        lost, survivor = group.member_vm_ids[:2]
        img = cluster.hypervisor(cluster.vm(survivor).node_id).committed(survivor)
        img.payload.reshape(-1).view(np.uint8)[3] ^= np.uint8(0x04)
        node = cluster.vm(lost).node_id
        cluster.kill_node(node)

        def proc():
            yield from ck.recover(node)

        with pytest.raises(RuntimeError, match="fails its end-to-end checksum"):
            sim.run_process(proc())


class TestFirstShotArchitecture:
    def _build(self):
        sim_ = __import__("repro.sim", fromlist=["Simulator"]).Simulator()
        cluster = VirtualCluster(sim_, ClusterSpec(n_nodes=4))
        rng = np.random.default_rng(5)
        for node in range(3):
            vm = cluster.create_vm(node, 1e9, image_pages=16, page_size=64)
            vm.image.write(0, rng.integers(0, 256, 512, dtype=np.uint8))
            vm.image.clear_dirty()
        return sim_, cluster

    def test_fanin_single_group(self):
        sim, cluster = self._build()
        ck = first_shot(cluster)
        assert len(ck.layout) == 1
        assert ck.layout.groups[0].parity_node == 3

    def test_cycle_and_recovery(self, rng):
        sim, cluster = self._build()
        ck = first_shot(cluster)
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in cluster.all_vms:
                committed[vm.vm_id] = (
                    cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
            cluster.kill_node(0)
            rep = yield from ck.recover(0)
            return rep

        rep = sim.run_process(proc())
        assert list(rep.reconstructed) == [0]
        vm0 = cluster.vm(0)
        assert np.array_equal(vm0.image.flat, committed[0])

    def test_parity_work_concentrated(self):
        sim, cluster = self._build()
        ck = first_shot(cluster)

        def proc():
            r = yield from ck.run_cycle()
            return r

        r = sim.run_process(proc())
        assert list(r.xor_seconds_by_node) == [3]


class TestCheckpointNodeArchitecture:
    def _build(self):
        sim_ = __import__("repro.sim", fromlist=["Simulator"]).Simulator()
        cluster = VirtualCluster(sim_, ClusterSpec(n_nodes=4))
        rng = np.random.default_rng(6)
        for node in range(3):
            for _ in range(3):
                vm = cluster.create_vm(node, 1e9, image_pages=16, page_size=64)
                vm.image.write(0, rng.integers(0, 256, 512, dtype=np.uint8))
                vm.image.clear_dirty()
        return sim_, cluster

    def test_all_parity_on_dedicated_node(self):
        sim, cluster = self._build()
        ck = checkpoint_node(cluster, node_id=3)

        def proc():
            r = yield from ck.run_cycle()
            return r

        r = sim.run_process(proc())
        assert list(r.xor_seconds_by_node) == [3]
        assert len(cluster.node(3).parity_store) == 3

    def test_fanin_slower_than_dvdc(self):
        """Fig. 3 vs Fig. 4: concentrating parity serializes the exchange."""
        sim_a, cluster_a = self._build()
        ck_a = checkpoint_node(cluster_a, node_id=3)

        def proc_a():
            r = yield from ck_a.run_cycle()
            return r

        r_fig3 = sim_a.run_process(proc_a())

        # Fig. 4 with same total VM count (12 VMs over 4 nodes)
        sim_b = __import__("repro.sim", fromlist=["Simulator"]).Simulator()
        cluster_b = VirtualCluster(sim_b, ClusterSpec(n_nodes=4))
        spread_vms(cluster_b, 12, 1e9)
        ck_b = dvdc(cluster_b)

        def proc_b():
            r = yield from ck_b.run_cycle()
            return r

        r_fig4 = sim_b.run_process(proc_b())
        assert r_fig3.latency > r_fig4.latency
