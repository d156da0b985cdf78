"""Tests for dirty-page processes, scenarios, and the job runner."""

import numpy as np
import pytest

from repro.checkpoint import DiskfulCheckpointer, IncrementalCapture
from repro.core import dvdc
from repro.failures import FailureEvent, FailureInjector, FailureSchedule
from repro.workloads import (
    CheckpointedJob,
    HotColdDirty,
    drive_vm,
    paper_scenario,
    scaled_scenario,
)


class TestDirtyPatterns:
    def test_hotcold_skew(self, rng):
        p = HotColdDirty(1000, hot_fraction=0.1, hot_weight=0.9)
        idx = p.sample(rng, 20000)
        hot = (idx < p.hot_pages).mean()
        assert 0.85 < hot < 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            HotColdDirty(0)
        with pytest.raises(ValueError):
            HotColdDirty(10, hot_fraction=1.5)
        with pytest.raises(ValueError):
            HotColdDirty(10, hot_weight=-0.1)

    def test_drive_vm_dirties_only_while_running(self):
        sc = paper_scenario(seed=1)
        vm = sc.vms[0]
        rng = sc.rngs.stream("w")
        sc.sim.process(
            drive_vm(sc.sim, vm, HotColdDirty(vm.image.n_pages), rng, 10.0)
        )
        sc.sim.run(until=5.0)
        dirty_running = vm.image.dirty_page_count
        assert dirty_running > 0
        vm.image.clear_dirty()
        vm.pause()
        sc.sim.run(until=10.0)
        assert vm.image.dirty_page_count == 0

    def test_drive_requires_functional(self, cluster4):
        vm = cluster4.create_vm(0, 1e9)  # no functional image
        with pytest.raises(ValueError):
            list(drive_vm(cluster4.sim, vm, HotColdDirty(4), None, 1.0))


class TestScenarios:
    def test_paper_scenario_shape(self):
        sc = paper_scenario(seed=0)
        assert sc.cluster.n_nodes == 4
        assert len(sc.vms) == 12
        assert all(vm.image is not None for vm in sc.vms)
        assert all(vm.image.dirty_page_count == 0 for vm in sc.vms)

    def test_scenario_seed_reproducible(self):
        a = paper_scenario(seed=9)
        b = paper_scenario(seed=9)
        assert np.array_equal(a.vms[0].image.flat, b.vms[0].image.flat)
        c = paper_scenario(seed=10)
        assert not np.array_equal(a.vms[0].image.flat, c.vms[0].image.flat)

    @pytest.mark.parametrize("spares", [0, 1, 2])
    def test_builder_contract(self, spares):
        """Round-robin on the first ``n - spares`` nodes, the rest empty
        for the spare pool, and images seeded by one rule."""
        from repro.resilience import SparePool
        from repro.sim import RngRegistry

        n, per_node = 6, 2
        sc = scaled_scenario(n, per_node, seed=5, image_pages=4, page_size=64,
                             spares=spares)
        hosts = n - spares
        assert len(sc.vms) == hosts * per_node
        assert [vm.node_id for vm in sc.vms] == [
            i % hosts for i in range(hosts * per_node)]
        pool = SparePool.provision(sc.cluster, spares)
        assert pool.available == tuple(range(hosts, n))
        init = RngRegistry(5).stream("image-init")
        for vm in sc.vms:
            assert vm.dirty_rate == 2e5
            assert vm.image.dirty_page_count == 0
            head = init.integers(0, 256, 256, dtype=np.uint8)
            assert np.array_equal(vm.image.flat[:256], head)
            assert not vm.image.flat[256:].any()

    def test_builder_fills_at_most_512_bytes(self):
        """A large image gets 512 seeded bytes and zeros after them."""
        sc = scaled_scenario(2, 1, seed=1)
        img = sc.vms[0].image
        assert img.nbytes == 64 * 256
        assert img.flat[:512].any() and not img.flat[512:].any()

    def test_builder_takes_a_cluster_spec(self):
        from conftest import GlobalFillNetwork, global_fill_spec

        spec = global_fill_spec(3)
        sc = scaled_scenario(spec, 2)
        assert sc.cluster.spec is spec
        assert type(sc.cluster.topology.network) is GlobalFillNetwork
        assert [vm.node_id for vm in sc.vms] == [0, 1, 2, 0, 1, 2]

    @pytest.mark.parametrize("spares", [-1, 3])
    def test_builder_rejects_spares_out_of_range(self, spares):
        with pytest.raises(ValueError, match="spares"):
            scaled_scenario(3, 1, spares=spares)

    @pytest.mark.parametrize("vms_per_node", [0, -2])
    def test_builder_rejects_empty_nodes_by_field_name(self, vms_per_node):
        """Both used to build a cluster with zero VMs."""
        with pytest.raises(ValueError, match="vms_per_node must be >= 1"):
            scaled_scenario(4, vms_per_node)


class TestJobRunner:
    def _job(self, kind="dvdc", schedule_events=(), work=3600.0, interval=600.0):
        sc = paper_scenario(seed=2)
        sched = FailureSchedule(events=list(schedule_events))
        inj = FailureInjector(sc.sim, 4, schedule=sched)
        if kind == "dvdc":
            ck = dvdc(sc.cluster, strategy=IncrementalCapture())
        else:
            ck = DiskfulCheckpointer(sc.cluster)
        job = CheckpointedJob(
            sc.cluster, ck, work=work, interval=interval,
            injector=inj, repair_time=30.0,
        )
        inj.start()
        sc.sim.run_process(job.start())
        return job.result

    def test_failure_free_run(self):
        r = self._job()
        assert r.completed
        assert r.n_failures == 0
        # 6 interval boundaries + initial checkpoint, minus the final one
        assert r.n_checkpoints == 6
        assert r.time_ratio > 1.0  # checkpoint overhead still counts

    def test_one_failure_rolls_back_and_completes(self):
        r = self._job(schedule_events=[FailureEvent(1000.0, 2, 0)])
        assert r.completed
        assert r.n_failures == 1
        assert r.n_recoveries == 1
        assert r.lost_work > 0
        assert r.recovery_time > 0

    def test_diskful_job_with_failure(self):
        r = self._job(kind="diskful", schedule_events=[FailureEvent(1000.0, 1, 0)])
        assert r.completed
        assert r.n_recoveries == 1

    def test_dvdc_cheaper_than_diskful(self):
        events = [FailureEvent(1500.0, 0, 0), FailureEvent(2500.0, 3, 0)]
        r_d = self._job("dvdc", events)
        r_f = self._job("diskful", events)
        assert r_d.completed and r_f.completed
        assert r_d.wall_time < r_f.wall_time

    def test_failure_during_checkpoint_cycle(self):
        # diskful cycle takes ~230 s; strike in the middle of the second
        r = self._job(
            kind="diskful",
            schedule_events=[FailureEvent(700.0, 1, 0)],
            work=3600.0, interval=600.0,
        )
        assert r.completed
        assert r.n_recoveries == 1

    def test_validation(self):
        sc = paper_scenario()
        ck = dvdc(sc.cluster)
        with pytest.raises(ValueError):
            CheckpointedJob(sc.cluster, ck, work=0.0, interval=1.0)
        with pytest.raises(ValueError):
            CheckpointedJob(sc.cluster, ck, work=1.0, interval=0.0)

    def test_time_ratio_nan_for_zero_work(self):
        from repro.workloads import JobResult

        r = JobResult(completed=False, work_seconds=0.0)
        assert np.isnan(r.time_ratio)


class TestAdaptiveJob:
    def _policy(self, min_interval=5.0):
        from repro.checkpoint import AdaptivePolicy
        from repro.failures import PAPER_LAMBDA
        from repro.model import ClusterModel, diskless_costs

        m = ClusterModel()

        def cost_of(dirty_bytes):
            interval_equiv = dirty_bytes / max(m.vm_dirty_rate * m.n_vms, 1.0)
            return diskless_costs(m, interval_equiv).overhead

        return AdaptivePolicy(PAPER_LAMBDA, cost_of, min_interval=min_interval)

    def test_adaptive_job_completes(self):
        from repro.core import dvdc as dvdc_factory

        sc = paper_scenario(seed=6)
        inj = FailureInjector(sc.sim, 4, schedule=FailureSchedule())
        ck = dvdc_factory(sc.cluster, strategy=IncrementalCapture())
        job = CheckpointedJob(
            sc.cluster, ck, work=1800.0, interval=self._policy(),
            injector=inj, repair_time=30.0,
        )
        inj.start()
        sc.sim.run_process(job.start())
        r = job.result
        assert r.completed
        assert r.n_checkpoints >= 3  # the policy fires repeatedly

    def test_adaptive_interval_near_young_optimum(self):
        """The realized mean interval lands within ~3x of the static
        optimum (the adaptive rule is first-order equivalent)."""
        from repro.core import dvdc as dvdc_factory
        from repro.model import fig5

        sc = paper_scenario(seed=7)
        ck = dvdc_factory(sc.cluster, strategy=IncrementalCapture())
        job = CheckpointedJob(
            sc.cluster, ck, work=3600.0, interval=self._policy(),
        )
        sc.sim.run_process(job.start())
        mean_interval = 3600.0 / max(job.result.n_checkpoints - 1, 1)
        static = fig5().diskless.optimum.interval
        assert static / 3 < mean_interval < static * 3

    def test_adaptive_with_failures(self):
        from repro.core import dvdc as dvdc_factory

        sc = paper_scenario(seed=8)
        inj = FailureInjector(
            sc.sim, 4,
            schedule=FailureSchedule(events=[FailureEvent(700.0, 1, 0)]),
        )
        ck = dvdc_factory(sc.cluster, strategy=IncrementalCapture())
        job = CheckpointedJob(
            sc.cluster, ck, work=1800.0, interval=self._policy(),
            injector=inj, repair_time=30.0,
        )
        inj.start()
        sc.sim.run_process(job.start())
        assert job.result.completed
        assert job.result.n_recoveries == 1
