"""Tests for the high-level experiment harness."""

import numpy as np
import pytest

from repro import experiments
from repro.campaign import run_study_campaign
from repro.campaign.tasks import run_study_cell
from repro.experiments import (
    METHOD_NAMES,
    JobOutcome,
    MethodSpec,
    StudyOutcome,
    build_epoch_cell,
    build_job_cell,
    run_job_cell,
)
from repro.workloads import JobResult


#: method -> fewest nodes it runs on
MIN_NODES = [("dvdc_rdp", 4), ("checkpoint_node", 2), ("first_shot", 2)]


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
        """Each method gets the cluster it needs: the checkpoint server
        and first-shot's parity node stay free, first-shot runs one VM
        per data node."""
        shapes = {"dvdc": [3, 3, 3, 3], "diskful": [3, 3, 3, 3],
                  "checkpoint_node": [3, 3, 3, 0], "first_shot": [1, 1, 1, 0]}
        for name, per_node in shapes.items():
            sc, ck = MethodSpec(name, incremental=False).build(4, 3)
            assert hasattr(ck, "run_cycle") and hasattr(ck, "recover")
            assert [len(sc.cluster.vms_on(n)) for n in range(4)] == per_node
            assert [vm.vm_id for vm in sc.vms] == list(range(sum(per_node)))

    def test_build_rdp_needs_room(self):
        sc, ck = MethodSpec("dvdc_rdp", incremental=False).build(6, 2)
        assert len(ck.layout) >= 1
        assert len(sc.vms) == 12

    @pytest.mark.parametrize("name,low", MIN_NODES)
    def test_build_names_the_node_minimum(self, name, low):
        with pytest.raises(ValueError, match=f"{name} needs >= {low} nodes, got {low - 1}"):
            MethodSpec(name).build(low - 1, 3)
        sc, _ = MethodSpec(name).build(low, 3)
        assert sc.cluster.n_nodes == low


#: a job cell short and failure-prone enough to recover at least once
CELL = dict(work=1800.0, interval=600.0, node_mtbf=1800.0, repair_time=30.0,
            n_nodes=4, vms_per_node=3)


class TestCellBuilders:
    def test_builders_run_no_event(self, monkeypatch):
        """A builder only builds, so a shape error raised there is never
        a failure of the run; the run is the call it returns."""
        made = []

        def spy(*args, **kwargs):
            made.append(scaled(*args, **kwargs))
            return made[-1]

        scaled = experiments.scaled_scenario
        monkeypatch.setattr(experiments, "scaled_scenario", spy)
        runs = [build_job_cell(MethodSpec("dvdc"), 2, **CELL),
                build_epoch_cell(MethodSpec("diskful", incremental=False), 4, 3)]
        assert [sc.sim.event_count for sc in made] == [0, 0]
        outcomes = [run() for run in runs]
        assert all(sc.sim.event_count > 0 for sc in made)
        assert outcomes[0].result.n_recoveries > 0
        assert outcomes[1].committed and len(outcomes[1].per_vm_pause) == 12

    def test_run_job_cell_is_build_then_run(self):
        spec = MethodSpec("dvdc")
        assert run_job_cell(spec, 2, **CELL) == build_job_cell(spec, 2, **CELL)()


class TestStudyCellInputs:
    """``study_cell`` parameters arrive from ``campaign --spec`` files."""

    @pytest.mark.parametrize("vms_per_node", [0, -2])
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_empty_nodes_rejected_by_field_name(self, name, vms_per_node):
        """diskful used to report a completed job over zero VMs, and
        first_shot died in ``max()`` of an empty sequence."""
        cell = {"method": {"name": name}, "trace_seed": 0, "work": 600.0,
                "interval": 300.0, "node_mtbf": 200 * 3600.0,
                "vms_per_node": vms_per_node}
        with pytest.raises(ValueError, match="vms_per_node must be >= 1"):
            run_study_cell(cell, None)


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

    def test_summary_table_means_only_seeds_every_method_completed(self):
        """``b`` loses seed 3, so ``a``'s mean T/T_ideal is over seeds
        0-2 (1.110), not over all four of its runs (1.115): the table
        used to average each method over its own survivors."""
        lines = self._fake().summary_table().splitlines()
        assert "paired study over 3 of 4 shared failure traces" in lines[0]
        rows = {line.split()[0]: line.split() for line in lines[3:5]}
        assert rows["a"][1:4] == ["100%", "0", "1.110"]
        assert rows["b"][1:4] == ["75%", "1", "1.500"]
        assert lines[-1].strip().endswith("seed 3")


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

        sc.sim.run_process(proc())
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

        sc.sim.run_process(proc())
        for vm in sc.cluster.all_vms:
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])
