"""Tests for the high-level experiment harness."""

import numpy as np
import pytest

from repro.campaign import run_study_campaign
from repro.experiments import JobOutcome, MethodSpec, StudyOutcome, run_job_cell
from repro.workloads import JobResult


class TestMethodSpec:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            MethodSpec("quantum")

    def test_display_labels(self):
        assert MethodSpec("dvdc").display == "dvdc"
        assert MethodSpec("dvdc", incremental=False).display == "dvdc+full"
        assert MethodSpec("diskful", overlap=True).display == "diskful+overlap"
        assert MethodSpec("dvdc", label="mine").display == "mine"

    def test_build_constructs_each_method(self):
        from repro.workloads import scaled_scenario

        for name in ("dvdc", "diskful", "checkpoint_node", "first_shot"):
            sc = scaled_scenario(4, 3)
            ck = MethodSpec(name, incremental=False).build(sc.cluster)
            assert hasattr(ck, "run_cycle") and hasattr(ck, "recover")

    def test_build_rdp_needs_room(self):
        from repro.workloads import scaled_scenario

        sc = scaled_scenario(6, 2)
        ck = MethodSpec("dvdc_rdp", incremental=False).build(sc.cluster)
        assert len(ck.layout) >= 1


class TestStudyOutcome:
    def _fake(self):
        out = StudyOutcome(work=100.0)
        for seed in range(4):
            out.cells.append(JobOutcome(
                "a", seed,
                JobResult(completed=True, wall_time=110.0 + seed,
                          work_seconds=100.0),
            ))
            out.cells.append(JobOutcome(
                "b", seed,
                JobResult(completed=seed != 3, wall_time=150.0,
                          work_seconds=100.0),
            ))
        return out

    def test_completion_rate(self):
        out = self._fake()
        assert out.completion_rate("a") == 1.0
        assert out.completion_rate("b") == 0.75
        assert np.isnan(out.completion_rate("missing"))

    def test_summary_table_renders(self):
        table = self._fake().summary_table()
        assert "a" in table and "b" in table
        assert "75%" in table


class TestPairedJobStudy:
    def test_validation(self):
        """Both used to return an empty table without complaint."""
        with pytest.raises(ValueError, match="method"):
            run_study_campaign(methods=[])
        with pytest.raises(ValueError, match="seed"):
            run_study_campaign(methods=[{"name": "dvdc"}], seeds=0)

    def test_small_study_end_to_end(self):
        cell = dict(work=1800.0, interval=600.0, node_mtbf=200 * 3600.0,
                    repair_time=30.0, n_nodes=4, vms_per_node=3)
        out = StudyOutcome(work=cell["work"], cells=[
            run_job_cell(spec, seed, **cell)
            for seed in range(2)
            for spec in (MethodSpec("dvdc"), MethodSpec("diskful"))
        ])
        assert len(out.cells) == 4
        # failure-free-ish regime: both complete, DVDC cheaper
        assert out.completion_rate("dvdc") == 1.0
        assert out.completion_rate("diskful") == 1.0
        ratio = {m: np.mean([r.time_ratio for r in out.for_method(m)])
                 for m in ("dvdc", "diskful")}
        assert ratio["dvdc"] < ratio["diskful"]

    def test_incremental_diskful_consolidates_on_nas(self):
        """Every NAS generation stays directly restorable even under
        incremental capture (server-side consolidation)."""
        from repro.checkpoint import DiskfulCheckpointer, IncrementalCapture
        from repro.workloads import paper_scenario

        sc = paper_scenario(seed=30)
        ck = DiskfulCheckpointer(sc.cluster, strategy=IncrementalCapture())
        rng = sc.rngs.stream("w")

        def proc():
            yield from ck.run_cycle()
            for vm in sc.cluster.all_vms:
                vm.image.touch_pages(rng.integers(0, 64, 4), rng)
            yield from ck.run_cycle()

        proc_obj = sc.sim.process(proc())
        sc.sim.run()
        if proc_obj.ok is False:
            raise proc_obj.value
        obj = sc.cluster.nas.lookup("vm0/epoch1")
        img = obj.payload
        assert img.meta.get("consolidated")
        # catalog size reflects the full image, not the delta
        assert obj.size == pytest.approx(sc.cluster.vm(0).memory_bytes)
        # and it restores the current state bit-exactly
        assert np.array_equal(img.payload_flat(), sc.cluster.vm(0).image.flat)

    def test_incremental_diskful_recovery_bit_exact(self):
        from repro.checkpoint import DiskfulCheckpointer, IncrementalCapture
        from repro.workloads import paper_scenario

        sc = paper_scenario(seed=31)
        ck = DiskfulCheckpointer(sc.cluster, strategy=IncrementalCapture())
        rng = sc.rngs.stream("w")
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in sc.cluster.all_vms:
                vm.image.touch_pages(rng.integers(0, 64, 4), rng)
            yield from ck.run_cycle()
            for vm in sc.cluster.all_vms:
                committed[vm.vm_id] = vm.image.snapshot()
                vm.image.touch_pages(rng.integers(0, 64, 3), rng)
            sc.cluster.kill_node(1)
            yield from ck.recover(1)

        proc_obj = sc.sim.process(proc())
        sc.sim.run()
        if proc_obj.ok is False:
            raise proc_obj.value
        for vm in sc.cluster.all_vms:
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])
