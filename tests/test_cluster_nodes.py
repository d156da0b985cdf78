"""Tests for VMs, physical nodes, hypervisors, and the cluster facade."""

import numpy as np
import pytest

from repro.cluster import (
    CheckpointImage,
    CheckpointKind,
    ClusterSpec,
    Hypervisor,
    HypervisorError,
    NodeError,
    ParityBlock,
    PhysicalNode,
    VirtualMachine,
    VMError,
    VMState,
)
from repro.cluster.checksum import block_checksum, page_crcs
from repro.cluster.memory import PageDelta

from conftest import spread_vms


class TestVM:
    def test_lifecycle(self):
        vm = VirtualMachine(0, 1e9)
        assert vm.state == VMState.RUNNING
        vm.pause()
        assert vm.state == VMState.PAUSED
        vm.resume()
        vm.begin_migration()
        assert vm.state == VMState.MIGRATING
        vm.end_migration()
        vm.mark_failed()
        assert vm.state == VMState.FAILED

    def test_failed_vm_restrictions(self):
        vm = VirtualMachine(0, 1e9)
        vm.mark_failed()
        with pytest.raises(VMError):
            vm.pause()
        with pytest.raises(VMError):
            vm.resume()

    def test_revive_only_from_failed(self):
        vm = VirtualMachine(0, 1e9)
        with pytest.raises(VMError):
            vm.revive()
        vm.mark_failed()
        vm.revive()
        assert vm.state == VMState.RUNNING

    def test_migrate_only_running(self):
        vm = VirtualMachine(0, 1e9)
        vm.pause()
        with pytest.raises(VMError):
            vm.begin_migration()

    def test_validation(self):
        with pytest.raises(VMError):
            VirtualMachine(0, 0.0)
        with pytest.raises(VMError):
            VirtualMachine(0, 1e9, dirty_rate=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sizes_rejected_by_name(self, bad):
        """NaN passed both range checks and died much later in the
        network layer as an invalid flow delay."""
        with pytest.raises(VMError, match="memory_bytes"):
            VirtualMachine(0, bad)
        with pytest.raises(VMError, match="dirty_rate"):
            VirtualMachine(0, 1e9, dirty_rate=bad)

    def test_functional_image_attachment(self):
        vm = VirtualMachine(0, 1e9, image_pages=8, page_size=64)
        assert vm.image is not None
        assert vm.image.nbytes == 512
        assert VirtualMachine(1, 1e9).image is None


class TestNode:
    def test_host_and_evict(self):
        node = PhysicalNode(0, ram_bytes=10e9)
        vm = VirtualMachine(0, 1e9)
        node.host(vm)
        assert vm.node_id == 0
        with pytest.raises(NodeError):
            node.host(vm)  # already here
        node.evict(vm)
        assert vm.node_id is None
        with pytest.raises(NodeError):
            node.evict(vm)

    def test_double_registration_rejected(self):
        a, b = PhysicalNode(0, 10e9), PhysicalNode(1, 10e9)
        vm = VirtualMachine(0, 1e9)
        a.host(vm)
        with pytest.raises(NodeError):
            b.host(vm)

    def test_memory_accounting_and_overcommit(self):
        node = PhysicalNode(0, ram_bytes=2e9)
        node.host(VirtualMachine(0, 1e9))
        assert node.ram_bytes - node.used_bytes == pytest.approx(1e9)
        with pytest.raises(NodeError):
            node.host(VirtualMachine(1, 1.5e9))

    def test_fail_destroys_everything(self):
        node = PhysicalNode(0, 10e9)
        vm = VirtualMachine(0, 1e9)
        node.host(vm)
        node.store_checkpoint(
            CheckpointImage(0, 0, CheckpointKind.FULL, 1e9, 0.0)
        )
        node.store_parity(ParityBlock(0, 0, (1, 2, 3), 1e9))
        lost = node.fail()
        assert [v.vm_id for v in lost] == [0]
        assert vm.state == VMState.FAILED and vm.node_id is None
        assert not node.alive
        assert node.checkpoint_store == {} and node.parity_store == {}
        assert node.failure_count == 1
        assert node.fail() == []  # idempotent while down

    def test_repair_rejoins_empty(self):
        node = PhysicalNode(0, 10e9)
        node.host(VirtualMachine(0, 1e9))
        node.fail()
        node.repair()
        assert node.alive and node.vms == {}

    def test_store_on_dead_node_rejected(self):
        node = PhysicalNode(0, 10e9)
        node.fail()
        with pytest.raises(NodeError):
            node.store_parity(ParityBlock(0, 0, (1,), 1e9))
        with pytest.raises(NodeError):
            node.host(VirtualMachine(0, 1e9))

    def test_validation(self):
        with pytest.raises(NodeError):
            PhysicalNode(0, 0.0)
        with pytest.raises(NodeError):
            PhysicalNode(0, 1e9, cpu_cores=0)


class TestHypervisor:
    def _setup(self):
        node = PhysicalNode(0, 100e9)
        hv = Hypervisor(node)
        vm = VirtualMachine(0, 1e9, image_pages=8, page_size=32)
        node.host(vm)
        vm.image.write(0, b"initial content here")
        vm.image.clear_dirty()
        return node, hv, vm

    def test_capture_full(self):
        _, hv, vm = self._setup()
        img = hv.capture_full(vm, now=1.0, epoch=0)
        assert img.kind == CheckpointKind.FULL
        assert img.logical_bytes == vm.memory_bytes
        assert np.array_equal(img.payload, vm.image.flat)

    def test_capture_requires_local(self):
        _, hv, _ = self._setup()
        stranger = VirtualMachine(99, 1e9)
        with pytest.raises(HypervisorError):
            hv.capture_full(stranger, 0.0, 0)

    def test_capture_incremental_scales_logical(self):
        _, hv, vm = self._setup()
        hv.commit_checkpoint(hv.capture_full(vm, 0.0, 0))
        vm.image.write(40, b"dirty")  # one page
        img = hv.capture_incremental(vm, 1.0, 1, base_epoch=0)
        scale = vm.memory_bytes / vm.image.nbytes
        assert img.logical_bytes == pytest.approx(32 * scale)
        assert img.payload.n_pages == 1

    def test_capture_incremental_nonfunctional_needs_logical(self, sim):
        node = PhysicalNode(0, 100e9)
        hv = Hypervisor(node)
        vm = VirtualMachine(0, 1e9)
        node.host(vm)
        with pytest.raises(HypervisorError):
            hv.capture_incremental(vm, 0.0, 1)
        img = hv.capture_incremental(vm, 0.0, 1, logical_bytes=5e6)
        assert img.logical_bytes == 5e6

    def test_commit_merges_incremental(self):
        _, hv, vm = self._setup()
        hv.commit_checkpoint(hv.capture_full(vm, 0.0, 0))
        vm.image.write(40, b"dirty")
        expected = vm.image.snapshot()
        inc = hv.capture_incremental(vm, 1.0, 1, base_epoch=0)
        hv.commit_checkpoint(inc)
        merged = hv.committed(0)
        assert merged.meta.get("merged_from_incremental")
        assert np.array_equal(merged.payload_flat(), expected)
        # committed object occupies full-image RAM
        assert merged.logical_bytes == vm.memory_bytes

    def test_commit_fingerprints_pages_and_returns_checksums(self):
        _, hv, vm = self._setup()
        assert hv.commit_checkpoint(hv.capture_full(vm, 0.0, 0))[0] is None
        full = hv.committed(0)
        assert np.array_equal(
            full.meta["page_crcs"], page_crcs(vm.image.pages)
        )
        first = full.meta["checksum"]
        assert first == block_checksum(vm.image.flat)
        del full
        vm.image.write(40, b"dirty")
        replaced, committed = hv.commit_checkpoint(
            hv.capture_incremental(vm, 1.0, 1, base_epoch=0)
        )
        merged = hv.committed(0)
        assert (replaced, committed) == (first, merged.meta["checksum"])
        assert committed == block_checksum(vm.image.flat)
        assert np.array_equal(merged.meta["page_crcs"], page_crcs(vm.image.pages))

    def test_commit_of_unknown_geometry_hashes_whole(self):
        _, hv, vm = self._setup()
        odd = np.arange(100, dtype=np.uint8)  # not the VM's image size
        hv.commit_checkpoint(CheckpointImage(0, 0, CheckpointKind.FULL, 1e9, 0.0, odd))
        meta = hv.committed(0).meta
        assert "page_crcs" not in meta
        assert meta["checksum"] == block_checksum(odd)

    def test_failed_merge_keeps_the_committed_image(self):
        # a delta whose geometry does not match the base is refused before
        # the merge takes the base's buffer
        _, hv, vm = self._setup()
        hv.commit_checkpoint(hv.capture_full(vm, 0.0, 0))
        before = hv.committed(0).payload_flat().copy()
        wide = PageDelta(32, 16, np.array([3]), np.ones((1, 32), np.uint8))
        with pytest.raises(HypervisorError, match=r"vm 0.*16 pages × 32 B.*8 pages, 256 B"):
            hv.commit_checkpoint(CheckpointImage(
                0, 1, CheckpointKind.INCREMENTAL, 32.0, 1.0, wide, base_epoch=0
            ))
        outside = PageDelta(32, 8, np.array([2, 9]), np.ones((2, 32), np.uint8))
        with pytest.raises(HypervisorError, match=r"vm 0.*\[2, 9\].*8 pages"):
            hv.commit_checkpoint(CheckpointImage(
                0, 1, CheckpointKind.INCREMENTAL, 64.0, 1.0, outside, base_epoch=0
            ))
        kept = hv.committed(0)
        assert kept.payload is not None
        assert np.array_equal(kept.payload_flat(), before)
        assert kept.meta["checksum"] == block_checksum(before)

    def test_incremental_commit_without_base_rejected(self):
        _, hv, vm = self._setup()
        vm.image.write(0, b"x")
        inc = hv.capture_incremental(vm, 0.0, 1)
        with pytest.raises(HypervisorError):
            hv.commit_checkpoint(inc)

    def test_restore_functional(self):
        _, hv, vm = self._setup()
        img = hv.capture_full(vm, 0.0, 0)
        vm.image.write(0, b"mutated")
        vm.mark_failed()
        hv.restore(vm, img)
        assert vm.state == VMState.RUNNING
        assert bytes(vm.image.flat[:7]) == b"initial"
        assert vm.epoch == 0

    def test_restore_functional_requires_payload(self):
        _, hv, vm = self._setup()
        bare = CheckpointImage(0, 0, CheckpointKind.FULL, 1e9, 0.0)
        with pytest.raises(HypervisorError):
            hv.restore(vm, bare)

    def test_forked_capture_payload_equals_full(self):
        _, hv, vm = self._setup()
        forked = hv.capture_forked(vm, 0.0, 0)
        assert forked.kind == CheckpointKind.FORKED
        assert np.array_equal(forked.payload, vm.image.flat)


class TestClusterFacade:
    def test_balanced_creation(self, cluster4):
        vms = spread_vms(cluster4, 12, 1e9)
        assert [vm.node_id for vm in vms] == [0, 1, 2, 3] * 3
        assert len(cluster4.vms_on(0)) == 3

    def test_lookup_errors(self, cluster4):
        with pytest.raises(NodeError):
            cluster4.node(99)
        with pytest.raises(NodeError):
            cluster4.vm(99)

    def test_kill_and_repair(self, cluster4):
        spread_vms(cluster4, 4, 1e9)
        lost = cluster4.kill_node(1)
        assert [vm.vm_id for vm in lost] == [1]
        assert len(cluster4.alive_nodes) == 3
        cluster4.repair_node(1)
        assert len(cluster4.alive_nodes) == 4

    def test_move_vm(self, cluster4):
        vms = spread_vms(cluster4, 4, 1e9)
        cluster4.move_vm(0, 3)
        assert vms[0].node_id == 3
        assert len(cluster4.vms_on(3)) == 2

    def test_place_failed_vm(self, cluster4):
        vms = spread_vms(cluster4, 4, 1e9)
        cluster4.kill_node(0)
        cluster4.place_failed_vm(0, 2)
        assert vms[0].node_id == 2
        # still FAILED until restored
        assert vms[0].state == VMState.FAILED

    def test_place_failed_requires_homeless(self, cluster4):
        spread_vms(cluster4, 4, 1e9)
        with pytest.raises(NodeError):
            cluster4.place_failed_vm(0, 2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=0)
