"""Checksums and the corruption scrubber: detect, repair, refuse."""

import numpy as np
import pytest

from repro.checkpoint.strategies import IncrementalCapture
from repro.cluster.checksum import block_checksum
from repro.core import dvdc
from repro.resilience import Scrubber
from repro.telemetry import Probe


def _counter(probe, name):
    fam = probe.metrics.snapshot().get(name)
    return 0.0 if fam is None else sum(s["value"] for s in fam["series"])


class TestChecksums:
    def test_block_checksum_is_content_and_length_sensitive(self):
        a = np.arange(256, dtype=np.uint8)
        assert block_checksum(a) == block_checksum(a.copy())
        flipped = a.copy()
        flipped[17] ^= 1
        assert block_checksum(flipped) != block_checksum(a)
        # zero-extension keeps a bare CRC of the prefix plausible; the
        # length fold must still distinguish the two
        assert block_checksum(a) != block_checksum(np.concatenate(
            [a, np.zeros(4, np.uint8)]
        ))

    def test_checksum_works_on_noncontiguous_views(self):
        a = np.arange(512, dtype=np.uint8)
        assert block_checksum(a[::2]) == block_checksum(a[::2].copy())


class TestScrubber:
    def _checkpointed(self, sim, cluster, **kw):
        ck = dvdc(cluster, **kw)

        def cycle():
            r = yield from ck.run_cycle()
            assert r.committed
        sim.run_process(cycle())
        return ck

    def _flip_parity(self, cluster, group):
        block = cluster.node(group.parity_node).parity_store[group.group_id]
        block.data[7] ^= np.uint8(0x10)
        return block

    def _flip_member(self, cluster, vm_id):
        vm = cluster.vm(vm_id)
        img = cluster.node(vm.node_id).checkpoint_store[vm_id]
        flat = img.payload.reshape(-1).view(np.uint8)
        flat[3] ^= np.uint8(0x04)

    def test_clean_cluster_scrubs_clean(self, sim, paper_cluster):
        ck = self._checkpointed(sim, paper_cluster)
        report = Scrubber(paper_cluster, ck.layout).scrub_once()
        assert not report.detected and report.scrubbed > 0
        assert report.repaired == [] and report.unrepairable == []

    def test_corrupt_parity_detected_and_repaired_bit_exactly(self, sim, paper_cluster):
        probe = Probe()
        ck = self._checkpointed(sim, paper_cluster)
        group = ck.layout.groups[0]
        block = self._flip_parity(paper_cluster, group)
        pristine_checksum = block.checksum

        report = Scrubber(paper_cluster, ck.layout, tracer=probe).scrub_once()
        assert report.detected == [f"parity g{group.group_id}@node{group.parity_node}"]
        assert report.repaired == [f"parity g{group.group_id}"]
        assert report.unrepairable == []
        assert block_checksum(block.data) == pristine_checksum  # bit-exact
        assert _counter(probe, "repro_resilience_corruptions_detected_total") == 1
        assert _counter(probe, "repro_resilience_corruptions_repaired_total") == 1

    def test_corrupt_member_rebuilt_from_parity_bit_exactly(self, sim, paper_cluster):
        ck = self._checkpointed(sim, paper_cluster)
        group = ck.layout.groups[0]
        victim = group.member_vm_ids[0]
        vm = paper_cluster.vm(victim)
        img = paper_cluster.node(vm.node_id).checkpoint_store[victim]
        pristine = img.payload_flat().copy()
        self._flip_member(paper_cluster, victim)

        report = Scrubber(paper_cluster, ck.layout).scrub_once()
        assert report.detected == [f"image vm{victim}@node{vm.node_id}"]
        assert report.repaired == [f"image vm{victim}"]
        np.testing.assert_array_equal(img.payload_flat(), pristine)

    def test_double_member_corruption_is_unrepairable(self, sim, paper_cluster):
        probe = Probe()
        ck = self._checkpointed(sim, paper_cluster)
        group = ck.layout.groups[0]
        v1, v2 = group.member_vm_ids[0], group.member_vm_ids[1]
        self._flip_member(paper_cluster, v1)
        self._flip_member(paper_cluster, v2)

        report = Scrubber(paper_cluster, ck.layout, tracer=probe).scrub_once()
        assert len(report.detected) == 2
        assert report.repaired == []
        assert set(report.unrepairable) == {f"image vm{v1}", f"image vm{v2}"}
        assert _counter(
            probe, "repro_resilience_corruptions_unrepairable_total"
        ) == 2

    def test_member_plus_parity_corruption_is_unrepairable(self, sim, paper_cluster):
        ck = self._checkpointed(sim, paper_cluster)
        group = ck.layout.groups[0]
        victim = group.member_vm_ids[0]
        self._flip_member(paper_cluster, victim)
        self._flip_parity(paper_cluster, group)

        report = Scrubber(paper_cluster, ck.layout).scrub_once()
        assert len(report.detected) == 2
        assert report.repaired == []
        assert f"image vm{victim}" in report.unrepairable
        assert f"parity g{group.group_id}" in report.unrepairable

    def test_scrub_skips_dead_parity_node(self, sim, paper_cluster):
        ck = self._checkpointed(sim, paper_cluster)
        group = ck.layout.groups[0]
        self._flip_parity(paper_cluster, group)
        paper_cluster.kill_node(group.parity_node)
        report = Scrubber(paper_cluster, ck.layout).scrub_once()
        # the dead node's artifacts are gone, not corrupt
        assert not any(f"g{group.group_id}@" in d for d in report.detected)


@pytest.mark.parametrize("scheme", ["xor", "rs-8-2", "rs-4-3"])
class TestRottenParityRefusal:
    """Every scheme that folds deltas refuses to fold into a corrupt
    shard 0 (RS used to re-encode over it silently)."""

    def test_incremental_fold_refuses_corrupt_previous_parity(
        self, sim, paper_cluster, scheme
    ):
        ck = dvdc(paper_cluster, strategy=IncrementalCapture(), scheme=scheme)

        def first():
            r = yield from ck.run_cycle()
            assert r.committed
        sim.run_process(first())

        group = ck.layout.groups[0]
        block = paper_cluster.node(group.parity_node).parity_store[group.group_id]
        block.data[0] ^= np.uint8(1)

        # dirty a member so the next epoch actually folds a delta
        vm = paper_cluster.vm(group.member_vm_ids[0])
        vm.image.write(0, np.full(16, 0xAB, dtype=np.uint8))

        def second():
            yield from ck.run_cycle()

        with pytest.raises(RuntimeError, match="silent corruption"):
            sim.run_process(second())

    def test_scrub_first_then_fold_succeeds(self, sim, paper_cluster, scheme):
        ck = dvdc(paper_cluster, strategy=IncrementalCapture(), scheme=scheme)

        def first():
            r = yield from ck.run_cycle()
            assert r.committed
        sim.run_process(first())

        group = ck.layout.groups[0]
        block = paper_cluster.node(group.parity_node).parity_store[group.group_id]
        block.data[0] ^= np.uint8(1)

        report = Scrubber(paper_cluster, ck.layout, scheme=ck.scheme).scrub_once()
        assert report.repaired  # the scrubber is the prescribed remedy

        vm = paper_cluster.vm(group.member_vm_ids[0])
        vm.image.write(0, np.full(16, 0xAB, dtype=np.uint8))

        def second():
            r = yield from ck.run_cycle()
            assert r.committed
        sim.run_process(second())
