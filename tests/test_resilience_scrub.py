"""Checksums and the corruption scrubber: detect, repair, refuse."""

import numpy as np
import pytest

from repro.checkpoint.strategies import IncrementalCapture
from repro.cluster import ClusterSpec, VirtualCluster
from repro.cluster.checksum import block_checksum
from repro.core import dvdc
from repro.resilience import Scrubber
from repro.telemetry import Probe

from conftest import spread_vms


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


class TestRotUnderIncrementalCommit:
    """Rot in a committed image, then an incremental epoch over it.

    The commit moves the image's checksum by the dirty pages' recorded
    CRCs and an XOR fold moves the parity's by the members' checksums,
    so neither re-fingerprints rotten bytes as good: the next scrub
    finds the damage and repairs it from redundancy.
    """

    PAGES, PAGE_SIZE = 64, 4096

    def _cluster(self, sim, scheme):
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=8))
        rng = np.random.default_rng(31)
        for vm in spread_vms(
            cluster, 8, 1e9, image_pages=self.PAGES, page_size=self.PAGE_SIZE
        ):
            vm.image.write(0, rng.integers(0, 256, vm.image.nbytes, dtype=np.uint8))
            vm.image.clear_dirty()
        ck = dvdc(cluster, strategy=IncrementalCapture(), scheme=scheme)
        self._cycle(sim, ck)
        return cluster, ck

    @staticmethod
    def _cycle(sim, ck):
        def proc():
            r = yield from ck.run_cycle()
            assert r.committed
        sim.run_process(proc())

    def _rot_then_dirty(self, sim, cluster, ck, offset):
        """Flip byte ``offset`` of one member's committed image, then
        dirty pages 10/20/30 of that member and commit an epoch."""
        vm = cluster.vm(ck.layout.groups[0].member_vm_ids[0])
        img = cluster.hypervisor(vm.node_id).committed(vm.vm_id)
        img.payload_flat()[offset] ^= np.uint8(0x20)
        del img  # a held reference would make the commit copy
        vm.image.touch_pages(np.array([10, 20, 30]), np.random.default_rng(3))
        self._cycle(sim, ck)
        return vm

    def _coherent(self, cluster, ck, group):
        members = [
            cluster.hypervisor(cluster.vm(v).node_id).committed(v).payload_flat()
            for v in group.member_vm_ids
        ]
        return all(
            np.array_equal(blk.data, shard)
            for blk, shard in zip(ck._shard_blocks(group), ck.scheme.encode(members))
        )

    @pytest.mark.parametrize("scheme", ["xor", "rs-4-2"])
    def test_rot_in_a_clean_page_is_not_laundered(self, sim, scheme):
        cluster, ck = self._cluster(sim, scheme)
        vm = self._rot_then_dirty(sim, cluster, ck, offset=5)
        report = Scrubber(cluster, ck.layout, scheme=ck.scheme).scrub_once()
        assert report.detected == [f"image vm{vm.vm_id}@node{vm.node_id}"]
        assert report.repaired == [f"image vm{vm.vm_id}"]
        img = cluster.hypervisor(vm.node_id).committed(vm.vm_id)
        assert np.array_equal(img.payload_flat(), vm.image.flat)
        assert self._coherent(cluster, ck, ck.layout.groups[0])

    def test_xor_parity_does_not_absorb_rot_from_a_dirty_page(self, sim):
        # rot in page 10, which the next epoch overwrites: the member comes
        # out clean, but the fold XORs the rotten old bytes into the parity
        cluster, ck = self._cluster(sim, "xor")
        group = ck.layout.groups[0]
        self._rot_then_dirty(sim, cluster, ck, offset=10 * self.PAGE_SIZE + 9)
        assert not self._coherent(cluster, ck, group)
        report = Scrubber(cluster, ck.layout, scheme=ck.scheme).scrub_once()
        assert report.detected == [f"parity g{group.group_id}@node{group.parity_node}"]
        assert report.repaired == [f"parity g{group.group_id}"]
        assert self._coherent(cluster, ck, group)

    def test_unscrubbed_xor_parity_refuses_the_next_fold(self, sim):
        # the absorbed rot leaves the parity failing its derived checksum,
        # so the next incremental epoch's pre-fold verify refuses it
        cluster, ck = self._cluster(sim, "xor")
        vm = self._rot_then_dirty(sim, cluster, ck, offset=10 * self.PAGE_SIZE + 9)
        vm.image.touch_pages(np.array([40]), np.random.default_rng(4))
        with pytest.raises(RuntimeError, match="silent corruption"):
            self._cycle(sim, ck)

    def test_rs_parity_still_absorbs_rot_from_a_dirty_page(self, sim):
        # The remaining gap: RS shards fold through GF(256) products, whose
        # CRCs do not follow from the members' CRCs, so a folded RS shard
        # is hashed whole and rot folded into it looks consistent.
        cluster, ck = self._cluster(sim, "rs-4-2")
        group = ck.layout.groups[0]
        self._rot_then_dirty(sim, cluster, ck, offset=10 * self.PAGE_SIZE + 9)
        report = Scrubber(cluster, ck.layout, scheme=ck.scheme).scrub_once()
        assert report.detected == []
        assert not self._coherent(cluster, ck, group)
