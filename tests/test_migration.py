"""Tests for pre-copy live migration, downtime, and page-hash dedup."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, MemoryImage, VirtualCluster
from repro.migration import (
    DowntimeModel,
    PAPER_BASE_OVERHEAD,
    PageHashIndex,
    PrecopyModel,
    hash_pages,
    live_migrate,
    plan_dedup_transfer,
)
from repro.sim import Simulator


class TestDowntimeModel:
    def test_paper_base_overhead_is_40ms(self):
        assert DowntimeModel().fixed_cost() == pytest.approx(PAPER_BASE_OVERHEAD)

    def test_downtime_includes_residual(self):
        m = DowntimeModel(pause_cost=0.01, activation_cost=0.02)
        assert m.downtime(100.0, 100.0) == pytest.approx(1.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            DowntimeModel(pause_cost=-1.0)
        with pytest.raises(ValueError):
            DowntimeModel().downtime(-1.0, 100.0)
        with pytest.raises(ValueError):
            DowntimeModel().downtime(1.0, 0.0)


class TestPrecopyModel:
    def test_idle_vm_single_round(self):
        m = PrecopyModel(bandwidth=100e6, downtime_target_bytes=1e6)
        r = m.estimate(1e9, dirty_rate=0.0)
        assert r.rounds == 1
        assert r.total_bytes == pytest.approx(1e9)
        assert r.converged

    def test_rounds_geometric_decay(self):
        m = PrecopyModel(bandwidth=100.0, downtime_target_bytes=1.0)
        r = m.estimate(1000.0, dirty_rate=10.0)  # rho = 0.1
        # round sizes 1000, 100, 10, 1(stop at <=1)
        assert r.rounds == 3
        assert r.total_bytes == pytest.approx(1000.0 + 100.0 + 10.0 + 1.0)
        assert r.converged

    def test_divergent_dirty_rate_detected(self):
        m = PrecopyModel(bandwidth=100.0, downtime_target_bytes=1.0)
        r = m.estimate(1000.0, dirty_rate=200.0)  # rho = 2
        assert not r.converged
        assert r.rounds <= m.max_rounds

    def test_downtime_scales_with_residual(self):
        m = PrecopyModel(bandwidth=100.0, downtime_target_bytes=50.0)
        r = m.estimate(1000.0, dirty_rate=10.0)
        assert r.downtime >= m.downtime_model.fixed_cost()

    def test_estimate_validation(self):
        m = PrecopyModel(bandwidth=100.0)
        with pytest.raises(ValueError):
            m.estimate(-1.0, 0.0)
        with pytest.raises(ValueError):
            m.estimate(1.0, -1.0)
        with pytest.raises(ValueError):
            PrecopyModel(bandwidth=0.0)


class TestLiveMigrateSim:
    def test_moves_registration_and_times(self):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=2, node_bandwidth=100e6))
        vm = cluster.create_vm(0, 1e9, dirty_rate=5e6)

        def proc():
            r = yield from live_migrate(cluster, vm, 1)
            return r

        result = sim.run_process(proc())
        assert vm.node_id == 1
        assert vm.state.value == "running"
        assert result.total_bytes >= 1e9
        assert result.rounds >= 1
        # ~10s for the bulk round plus small iterative rounds
        assert 10.0 <= result.total_time < 15.0
        assert result.downtime < 1.0

    def test_same_node_noop(self):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=2))
        vm = cluster.create_vm(0, 1e9)

        def proc():
            r = yield from live_migrate(cluster, vm, 0)
            return r

        result = sim.run_process(proc())
        assert result.total_bytes == 0.0

    def test_unhosted_vm_rejected(self):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=2))
        vm = cluster.create_vm(0, 1e9)
        cluster.node(0).evict(vm)

        def proc():
            yield from live_migrate(cluster, vm, 1)

        with pytest.raises(ValueError):
            sim.run_process(proc())


class TestPageHash:
    def test_hash_pages_shape_check(self):
        with pytest.raises(ValueError):
            hash_pages(np.zeros(16, dtype=np.uint8))

    def test_identical_pages_same_digest(self, rng):
        pages = np.repeat(
            rng.integers(0, 256, (1, 64), dtype=np.uint8), 3, axis=0
        )
        digests = hash_pages(pages)
        assert digests[0] == digests[1] == digests[2]

    def test_index_membership(self, rng):
        idx = PageHashIndex()
        pages = rng.integers(0, 256, (4, 32), dtype=np.uint8)
        idx.add_pages(pages)
        assert len(idx) == 4
        assert hash_pages(pages)[0] in idx

    def test_dedup_against_destination(self, rng):
        dst_img = MemoryImage(8, page_size=32)
        dst_img.write(0, rng.integers(0, 256, 256, dtype=np.uint8))
        idx = PageHashIndex()
        idx.add_image(dst_img)
        # source shares 4 pages with destination, 4 unique
        src = np.zeros((8, 32), dtype=np.uint8)
        src[:4] = dst_img.pages[:4]
        src[4:] = rng.integers(1, 256, (4, 32), dtype=np.uint8)
        plan = plan_dedup_transfer(src, idx)
        assert len(plan.dedup_indices) == 4
        assert len(plan.send_indices) == 4
        assert plan.send_bytes == 4 * 32
        assert plan.dedup_fraction == pytest.approx(0.5)
        assert plan.total_bytes == plan.send_bytes + 8 * 16

    def test_intra_source_dup_collapse(self, rng):
        idx = PageHashIndex()
        page = rng.integers(0, 256, (1, 32), dtype=np.uint8)
        src = np.repeat(page, 5, axis=0)
        plan = plan_dedup_transfer(src, idx)
        assert len(plan.send_indices) == 1
        assert len(plan.dedup_indices) == 4

    def test_all_unique_cold_index(self, rng):
        plan = plan_dedup_transfer(
            rng.integers(0, 256, (6, 16), dtype=np.uint8), PageHashIndex()
        )
        assert len(plan.send_indices) == 6
        assert plan.dedup_fraction == 0.0
