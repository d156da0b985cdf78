"""Tests for the disk-full NAS baseline."""

import numpy as np
import pytest

from repro.checkpoint import DiskfulCheckpointer
from repro.cluster import VMState


class TestCycle:
    def test_cycle_accounting(self, paper_cluster, sim):
        ck = DiskfulCheckpointer(paper_cluster)

        def proc():
            r = yield from ck.run_cycle()
            return r

        r = sim.run_process(proc())
        assert r.committed
        # 12 x 1 GB through 100 MB/s NAS ingress >= 120 s
        assert r.latency > 120.0
        assert r.network_bytes == pytest.approx(12e9)
        assert r.disk_bytes == pytest.approx(12e9)
        # overhead is only the barrier pause: 3 VMs/node x 40 ms
        assert r.overhead == pytest.approx(0.12)
        assert ck.committed_epoch == 0

    def test_nas_catalog_after_cycle(self, paper_cluster, sim):
        ck = DiskfulCheckpointer(paper_cluster)

        def proc():
            yield from ck.run_cycle()

        sim.run_process(proc())
        assert len(paper_cluster.nas) == 12
        assert paper_cluster.nas.contains("vm0/epoch0")

    def test_two_phase_keeps_previous_until_commit(self, paper_cluster, sim):
        ck = DiskfulCheckpointer(paper_cluster)

        def proc():
            yield from ck.run_cycle()
            yield from ck.run_cycle()

        sim.run_process(proc())
        # old generation dropped only after the new one committed
        assert not paper_cluster.nas.contains("vm0/epoch0")
        assert paper_cluster.nas.contains("vm0/epoch1")
        assert len(paper_cluster.nas) == 12

    def test_compression_reduces_traffic(self, paper_cluster, sim):
        from repro.checkpoint import CompressionModel

        ck = DiskfulCheckpointer(
            paper_cluster, compression=CompressionModel(ratio=0.5)
        )

        def proc():
            r = yield from ck.run_cycle()
            return r

        r = sim.run_process(proc())
        assert r.network_bytes == pytest.approx(6e9)


class TestRecovery:
    def test_recovery_restores_bit_exact(self, paper_cluster, sim):
        ck = DiskfulCheckpointer(paper_cluster)
        snapshots = {}

        def proc():
            yield from ck.run_cycle()
            for vm in paper_cluster.all_vms:
                snapshots[vm.vm_id] = vm.image.snapshot()
                vm.image.write(0, b"work after the checkpoint")
            paper_cluster.kill_node(1)
            rep = yield from ck.recover(1)
            return rep

        rep = sim.run_process(proc())
        assert sorted(rep.restored_vms) == [1, 5, 9]
        assert len(rep.rolled_back_vms) == 9
        assert rep.bytes_read == pytest.approx(12e9)
        for vm in paper_cluster.all_vms:
            assert vm.state == VMState.RUNNING
            assert np.array_equal(vm.image.flat, snapshots[vm.vm_id])

    def test_recover_without_checkpoint_raises(self, paper_cluster, sim):
        ck = DiskfulCheckpointer(paper_cluster)
        paper_cluster.kill_node(0)

        def proc():
            yield from ck.recover(0)

        with pytest.raises(RuntimeError):
            sim.run_process(proc())

    def test_failed_vms_spread_across_survivors(self, paper_cluster, sim):
        ck = DiskfulCheckpointer(paper_cluster)

        def proc():
            yield from ck.run_cycle()
            paper_cluster.kill_node(0)
            rep = yield from ck.recover(0)
            return rep

        sim.run_process(proc())
        placements = [
            paper_cluster.vm(v).node_id for v in (0, 4, 8)
        ]
        assert all(p != 0 for p in placements)
        assert len(set(placements)) == 3  # round-robin spread

    def test_heal_is_noop(self, paper_cluster, sim):
        ck = DiskfulCheckpointer(paper_cluster)

        def proc():
            r = yield from ck.heal()
            return r

        assert sim.run_process(proc()) == []
