"""Tests for capture strategies, compression, and the coordinator."""

import numpy as np
import pytest

from repro.checkpoint import (
    CaptureSpec,
    CompressionModel,
    CoordinatedCheckpoint,
    ForkedCapture,
    FullCapture,
    IncrementalCapture,
    NO_COMPRESSION,
    compress_delta,
    compressed_size,
)
from repro.cluster import CheckpointKind, VMState

from conftest import spread_vms


def _capture(strategy, hv, vm, epoch, now, elapsed):
    """One VM through the strategy's batched capture."""
    return strategy.capture_many({vm.node_id: hv}, [vm], epoch, now, elapsed)[0]


def _vm_and_hv(cluster, node=0):
    vm = cluster.create_vm(node, 1e9, dirty_rate=1e6, image_pages=16, page_size=64)
    vm.image.write(0, b"some starting content")
    vm.image.clear_dirty()
    return vm, cluster.hypervisor(node)


class TestCaptureSpec:
    def test_defaults_match_paper(self):
        assert CaptureSpec().pause_fixed == pytest.approx(40e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            CaptureSpec(pause_fixed=-1.0)
        with pytest.raises(ValueError):
            CaptureSpec(copy_bandwidth=0.0)


class TestStrategies:
    def test_full_pause_includes_copy(self, cluster4):
        vm, hv = _vm_and_hv(cluster4)
        spec = CaptureSpec(pause_fixed=0.04, copy_bandwidth=1e9)
        out = _capture(FullCapture(spec), hv, vm, 0, 0.0, 0.0)
        assert out.pause_seconds == pytest.approx(0.04 + 1.0)
        assert out.image.kind == CheckpointKind.FULL

    def test_forked_pause_is_fixed(self, cluster4):
        vm, hv = _vm_and_hv(cluster4)
        out = _capture(ForkedCapture(), hv, vm, 0, 0.0, 0.0)
        assert out.pause_seconds == pytest.approx(40e-3)
        assert out.image.logical_bytes == vm.memory_bytes

    def test_incremental_first_epoch_is_full(self, cluster4):
        vm, hv = _vm_and_hv(cluster4)
        out = _capture(IncrementalCapture(), hv, vm, 0, 0.0, 0.0)
        assert out.image.kind == CheckpointKind.FULL

    def test_incremental_logical_estimate_nonfunctional(self, cluster4):
        vm = cluster4.create_vm(1, 1e9, dirty_rate=1e6)
        hv = cluster4.hypervisor(1)
        out = _capture(IncrementalCapture(), hv, vm, 3, 0.0, 100.0)
        assert out.image.kind == CheckpointKind.INCREMENTAL
        assert out.image.logical_bytes == pytest.approx(1e8)

    def test_incremental_saturates_at_image_size(self, cluster4):
        vm = cluster4.create_vm(1, 1e9, dirty_rate=1e6)
        hv = cluster4.hypervisor(1)
        out = _capture(IncrementalCapture(), hv, vm, 3, 0.0, 1e9)
        assert out.image.logical_bytes == vm.memory_bytes

    def test_incremental_functional_uses_dirty_log(self, cluster4):
        vm, hv = _vm_and_hv(cluster4)
        hv.commit_checkpoint(hv.capture_full(vm, 0.0, 0))
        vm.image.write(100, b"dirty")
        out = _capture(IncrementalCapture(), hv, vm, 1, 0.0, 50.0)
        assert out.image.payload.n_pages == 1


class TestCompressionModel:
    def test_output_and_cpu(self):
        m = CompressionModel(ratio=0.5, throughput=1e9)
        assert m.output_bytes(1e9) == pytest.approx(5e8)
        assert m.cpu_seconds(1e9) == pytest.approx(1.0)

    def test_no_compression_free(self):
        assert NO_COMPRESSION.output_bytes(100.0) == 100.0
        assert NO_COMPRESSION.cpu_seconds(1e12) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionModel(ratio=0.0)
        with pytest.raises(ValueError):
            CompressionModel(ratio=1.5)
        with pytest.raises(ValueError):
            CompressionModel(ratio=0.5, throughput=0.0)


class TestFunctionalCompression:
    def test_delta_roundtrip_bit_exact(self, rng):
        from repro.cluster import MemoryImage

        img = MemoryImage(16, page_size=64)
        img.write(0, rng.integers(0, 256, 200, dtype=np.uint8))
        img.write(640, b"\x00" * 64)  # a zero page
        delta = img.capture_delta()
        comp = compress_delta(delta)
        assert len(comp.zero_indices) >= 1
        back = comp.decompress()
        assert np.array_equal(back.indices, delta.indices)
        assert np.array_equal(back.pages, delta.pages)

    def test_zero_pages_compress_away(self):
        from repro.cluster import MemoryImage

        img = MemoryImage(8, page_size=128)
        img.touch_pages(np.arange(8))  # dirty but still zero content
        comp = compress_delta(img.capture_delta())
        assert len(comp.blobs) == 0
        assert comp.compressed_bytes < comp.raw_bytes

    def test_random_data_compresses_poorly(self, rng):
        buf = rng.integers(0, 256, 4096, dtype=np.uint8)
        assert compressed_size(buf) > 3000

    def test_repetitive_data_compresses_well(self):
        assert compressed_size(b"A" * 4096) < 200


class TestCoordinator:
    def test_barrier_pause_is_max_over_nodes(self, cluster4, sim):
        vms = spread_vms(cluster4, 8, 1e9)  # 2 per node
        coord = CoordinatedCheckpoint(cluster4, ForkedCapture())

        def proc():
            outcomes, pause = yield from coord.capture_all(vms, 0, 0.0)
            return outcomes, pause, sim.now

        outcomes, pause, t = sim.run_process(proc())
        # 2 VMs per node, 40ms each, serialized per node = 80ms
        assert pause == pytest.approx(0.08)
        assert t == pytest.approx(0.08)
        assert len(outcomes) == 8

    def test_vms_resumed_after_barrier(self, cluster4, sim):
        vms = spread_vms(cluster4, 4, 1e9)
        coord = CoordinatedCheckpoint(cluster4, ForkedCapture())

        def proc():
            yield from coord.capture_all(vms, 0, 0.0)

        sim.run_process(proc())
        assert all(vm.state == VMState.RUNNING for vm in vms)

    def test_failed_vms_skipped(self, cluster4, sim):
        vms = spread_vms(cluster4, 4, 1e9)
        vms[2].mark_failed()
        coord = CoordinatedCheckpoint(cluster4, ForkedCapture())

        def proc():
            outcomes, _ = yield from coord.capture_all(vms, 0, 0.0)
            return outcomes

        outcomes = sim.run_process(proc())
        assert len(outcomes) == 3
        assert all(o.image.vm_id != 2 for o in outcomes)
