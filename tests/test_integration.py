"""Integration tests: whole-system flows crossing every subpackage.

These are the executable versions of the paper's claims:

* the Fig. 4 cluster survives any single node failure bit-exactly;
* DVDC's realized time ratio beats the diskful baseline under the same
  failure trace (the Fig. 5 ordering, system-level);
* the simulated job's time ratio is in the neighbourhood of the
  analytical model's prediction (the corroboration claim);
* migration traffic contends with checkpoint traffic on shared links.
"""

import numpy as np
import pytest

from repro.checkpoint import DiskfulCheckpointer, IncrementalCapture
from repro.core import dvdc
from repro.failures import Exponential, FailureInjector, FailureSchedule
from repro.migration import live_migrate
from repro.model import expected_time_with_overhead
from repro.workloads import CheckpointedJob, paper_scenario


def _run_job(kind, seed, work=2 * 3600.0, interval=600.0, mtbf_node=4 * 3600.0):
    sc = paper_scenario(seed=seed)
    rng = sc.rngs.stream("failures")
    sched = FailureSchedule.draw(
        rng, Exponential(1 / mtbf_node), 4, horizon=work * 8, repair_time=30.0
    )
    inj = FailureInjector(sc.sim, 4, schedule=sched)
    if kind == "dvdc":
        ck = dvdc(sc.cluster, strategy=IncrementalCapture())
    else:
        ck = DiskfulCheckpointer(sc.cluster)
    job = CheckpointedJob(
        sc.cluster, ck, work=work, interval=interval, injector=inj, repair_time=30.0
    )
    inj.start()
    sc.sim.run_process(job.start())
    return job.result


class TestSingleFailureSurvival:
    @pytest.mark.parametrize("node", [0, 1, 2, 3])
    def test_any_single_node_failure_bit_exact(self, node):
        sc = paper_scenario(seed=42)
        ck = dvdc(sc.cluster)
        rng = sc.rngs.stream("writes")
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in sc.cluster.all_vms:
                committed[vm.vm_id] = (
                    sc.cluster.hypervisor(vm.node_id)
                    .committed(vm.vm_id).payload_flat().copy()
                )
                vm.image.touch_pages(rng.integers(0, 64, 6), rng)
            sc.cluster.kill_node(node)
            yield from ck.recover(node)

        sc.sim.run_process(proc())
        for vm in sc.cluster.all_vms:
            assert vm.state.value == "running"
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])


class TestPairedComparison:
    def test_dvdc_beats_diskful_same_trace(self):
        wins = 0
        for seed in range(5):
            r_d = _run_job("dvdc", seed)
            r_f = _run_job("diskful", seed)
            if not (r_d.completed and r_f.completed):
                continue
            if r_d.wall_time < r_f.wall_time:
                wins += 1
        assert wins >= 4  # DVDC wins essentially always

    def test_dvdc_checkpoint_time_tiny_vs_diskful(self):
        r_d = _run_job("dvdc", seed=1)
        r_f = _run_job("diskful", seed=1)
        assert r_d.checkpoint_time < r_f.checkpoint_time / 10


class TestModelCorroboration:
    def test_simulated_ratio_near_model_prediction(self):
        """System-level Monte-Carlo vs the closed-form expected time.

        A single stochastic run is noisy, so average a few seeds and
        allow a generous band; the point is agreement in *scale*.
        """
        work, interval = 2 * 3600.0, 600.0
        mtbf_node = 6 * 3600.0  # cluster MTBF 1.5 h
        lam = 4 / mtbf_node
        ratios = []
        for seed in range(6):
            r = _run_job("diskful", seed, work, interval, mtbf_node)
            if r.completed:
                ratios.append(r.time_ratio)
        measured = float(np.mean(ratios))
        # model: diskful overhead at this configuration
        from repro.model import ClusterModel, diskful_costs

        t_ov = diskful_costs(ClusterModel(), interval).overhead
        predicted = expected_time_with_overhead(lam, work, interval, t_ov, 30.0) / work
        assert measured == pytest.approx(predicted, rel=0.35)


class TestMigrationIntegration:
    def test_migration_traffic_contends_with_checkpoints(self):
        """A migration sharing links with a checkpoint cycle slows it."""
        sc1 = paper_scenario(seed=3)
        ck1 = dvdc(sc1.cluster)

        def just_cycle():
            r = yield from ck1.run_cycle()
            return r

        solo = sc1.sim.run_process(just_cycle())

        sc2 = paper_scenario(seed=3)
        ck2 = dvdc(sc2.cluster)

        def cycle_with_migration():
            cyc = sc2.sim.process(ck2.run_cycle())
            yield sc2.sim.timeout(1.0)  # let the capture barrier pass
            vm = sc2.cluster.vms_on(0)[0]
            mig = sc2.sim.process(live_migrate(sc2.cluster, vm, 1))
            r = yield cyc
            yield mig
            return r

        busy = sc2.sim.run_process(cycle_with_migration())
        assert busy.latency > solo.latency


class TestLongHaul:
    def test_twentyfour_hour_job_with_repeated_failures(self):
        r = _run_job("dvdc", seed=13, work=24 * 3600.0, interval=900.0,
                     mtbf_node=8 * 3600.0)
        assert r.completed
        assert r.n_failures >= 3
        assert r.n_recoveries >= 3
        assert r.time_ratio < 2.0
