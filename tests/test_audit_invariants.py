"""Property-style tests for the recoverability invariants.

The load-bearing test is the seeded sweep: many random fault schedules
through the fuzzer across all three paper layouts must produce zero
invariant violations.  The rest pins down that each checker *does* fire
on deliberately broken state — an auditor that can't fail is not
auditing anything.
"""

import pytest

from repro.audit import (
    Auditor,
    AuditError,
    FuzzConfig,
    audit_cluster,
    check_epoch_coherence,
    check_layout_validity,
    check_parity_coherence,
    check_single_failure_recoverable,
    check_two_phase_atomicity,
    fuzz,
    run_trial,
    canonical_schedule,
)
from repro.audit.fuzzer import _build
from repro.cluster.images import CheckpointImage, CheckpointKind, ParityBlock
from repro.core import dvdc


def _committed_state(config=None, seed=0):
    """A cluster with one committed epoch, plus its checkpointer."""
    from repro.sim import NULL_TRACER

    sim, cluster, ck, auditor, *_geo = _build(
        config or FuzzConfig(), seed, NULL_TRACER
    )
    sim.run_process(ck.run_cycle())
    return sim, cluster, ck, auditor


class TestFuzzPropertyClean:
    """N seeds x (cycles, schedule) -> zero violations, all layouts."""

    @pytest.mark.parametrize("layout", ["fig1", "fig3", "fig4"])
    def test_no_violations_under_adversarial_schedules(self, layout):
        result = fuzz(
            FuzzConfig(layout=layout, n_cycles=3), seeds=6, shrink_failing=False
        )
        assert not result.failures, [
            str(v) for t in result.failures for v in t.violations
        ]
        # the sweep must actually exercise failures, not just idle cycles
        assert any(t.faults_fired for t in result.trials)
        assert all(t.commits >= 1 for t in result.trials)

    def test_heterogeneous_groups_clean(self):
        result = fuzz(
            FuzzConfig(layout="fig4", heterogeneous=True, n_cycles=3),
            seeds=6, shrink_failing=False,
        )
        assert not result.failures, [
            str(v) for t in result.failures for v in t.violations
        ]

    def test_audits_actually_ran(self):
        config = FuzzConfig()
        trial = run_trial(config, canonical_schedule(config), seed=0)
        assert not trial.failed
        assert trial.recoveries == 1


class TestAuditorFires:
    """Each invariant checker detects its own corruption."""

    def test_corrupted_parity_detected(self):
        _, cluster, ck, _ = _committed_state()
        g = ck.layout.groups[0]
        cluster.node(g.parity_node).parity_store[g.group_id].data[7] ^= 0x5A
        report = audit_cluster(cluster, ck.layout, ck.committed_epoch)
        assert not report.ok
        kinds = {v.invariant for v in report.fatal}
        assert "parity-coherence" in kinds
        assert "single-failure-recoverable" in kinds

    def test_corrupted_committed_image_detected(self):
        _, cluster, ck, _ = _committed_state()
        vm = cluster.all_vms[0]
        img = cluster.hypervisor(vm.node_id).committed(vm.vm_id)
        img.payload_flat()[3] ^= 0xFF
        report = audit_cluster(cluster, ck.layout, ck.committed_epoch)
        assert not report.ok

    def test_epoch_mismatch_detected(self):
        _, cluster, ck, _ = _committed_state()
        g = ck.layout.groups[0]
        block = cluster.node(g.parity_node).parity_store[g.group_id]
        cluster.node(g.parity_node).parity_store[g.group_id] = ParityBlock(
            group_id=block.group_id,
            epoch=block.epoch + 3,
            member_vm_ids=block.member_vm_ids,
            logical_bytes=block.logical_bytes,
            data=block.data,
        )
        violations = check_epoch_coherence(
            cluster, ck.layout, ck.committed_epoch
        )
        assert any(v.invariant == "epoch-coherence" for v in violations)

    def test_leaked_staged_image_detected(self):
        """Two-phase atomicity: an artifact from an uncommitted epoch in
        any store is fatal."""
        _, cluster, ck, _ = _committed_state()
        vm = cluster.all_vms[0]
        node = cluster.node(vm.node_id)
        node.checkpoint_store[vm.vm_id] = CheckpointImage(
            vm_id=vm.vm_id,
            epoch=ck.committed_epoch + 1,  # never committed
            kind=CheckpointKind.FULL,
            logical_bytes=vm.memory_bytes,
            captured_at=0.0,
            payload=vm.image.snapshot(),
        )
        violations = check_two_phase_atomicity(
            cluster, ck.layout, ck.committed_epoch
        )
        assert any(v.invariant == "two-phase-atomicity" for v in violations)

    def test_colocated_member_degraded_vs_strict(self, paper_cluster, sim):
        ck = dvdc(paper_cluster)
        sim.run_process(ck.run_cycle())
        # move a member onto its own group's parity node
        g = ck.layout.groups[0]
        paper_cluster.move_vm(g.member_vm_ids[0], g.parity_node)
        lax = check_layout_validity(paper_cluster, ck.layout, strict=False)
        hard = check_layout_validity(paper_cluster, ck.layout, strict=True)
        assert lax and all(v.severity == "degraded" for v in lax)
        assert hard and all(v.severity == "fatal" for v in hard)

    def test_missing_parity_block_flagged(self):
        _, cluster, ck, _ = _committed_state()
        g = ck.layout.groups[0]
        del cluster.node(g.parity_node).parity_store[g.group_id]
        violations = check_parity_coherence(cluster, ck.layout, strict=True)
        assert any("no parity block" in v.detail for v in violations)

    def test_recoverability_check_constructive(self):
        """The recoverable checker really reconstructs: flipping one
        member's committed bytes breaks every *other* member's rebuild."""
        _, cluster, ck, _ = _committed_state()
        g = ck.layout.groups[0]
        victim = g.member_vm_ids[0]
        vm = cluster.vm(victim)
        cluster.hypervisor(vm.node_id).committed(victim).payload_flat()[0] ^= 1
        violations = check_single_failure_recoverable(cluster, ck.layout)
        flagged = {v.subject for v in violations}
        assert flagged == {f"vm {m}" for m in g.member_vm_ids}

    def test_auditor_assert_ok_raises(self):
        _, cluster, ck, auditor = _committed_state()
        g = ck.layout.groups[0]
        cluster.node(g.parity_node).parity_store[g.group_id].data[0] ^= 1
        auditor.run(ck.committed_epoch, context="test")
        assert auditor.violations
        with pytest.raises(AuditError):
            auditor.assert_ok()

    def test_fuzzer_flags_corruption_as_violation(self):
        """End-to-end: a trial against a checkpointer whose parity is
        corrupted mid-run must come back failed."""
        from repro.sim import NULL_TRACER

        config = FuzzConfig(n_cycles=2)
        sim, cluster, ck, auditor, *_geo = _build(config, 3, NULL_TRACER)

        def proc():
            yield from ck.run_cycle()
            g = ck.layout.groups[0]
            cluster.node(g.parity_node).parity_store[g.group_id].data[0] ^= 1
            yield from ck.run_cycle()

        sim.run_process(proc())
        # second cycle was a FULL capture: parity fully rewritten, so
        # corruption of the *first* epoch is only visible to the sweep
        # that ran between the cycles
        auditor.run(ck.committed_epoch, context="final", strict=True)
        assert auditor.n_audits >= 3


class TestHookWiring:
    def test_auditor_runs_on_every_cycle_and_recovery(self, paper_cluster, sim, rng):
        ck = dvdc(paper_cluster)
        auditor = Auditor(paper_cluster, ck.layout)
        ck.attach_auditor(auditor)

        def proc():
            yield from ck.run_cycle()
            yield from ck.run_cycle()
            paper_cluster.kill_node(1)
            yield from ck.recover(1)
            return None

        sim.run_process(proc())
        contexts = [r.context for r in auditor.reports]
        assert contexts.count("post_cycle") == 2
        assert contexts.count("post_recovery") == 1
        assert auditor.violations == []

    def test_constructor_kwarg_equivalent(self, paper_cluster, sim):
        auditor = Auditor(paper_cluster, None)
        ck = dvdc(paper_cluster, auditor=auditor)
        auditor.layout = ck.layout  # layout exists only after construction
        sim.run_process(ck.run_cycle())
        assert [r.context for r in auditor.reports] == ["post_cycle"]
        assert auditor.violations == []

    def test_no_auditor_is_free(self, paper_cluster, sim):
        ck = dvdc(paper_cluster)
        assert ck.auditor is None and ck.coordinator.auditor is None
        r = sim.run_process(ck.run_cycle())
        assert r.committed


class TestViolationPlumbing:
    def test_nothing_committed_is_trivially_ok(self, paper_cluster, sim):
        ck = dvdc(paper_cluster)
        report = audit_cluster(paper_cluster, ck.layout, ck.committed_epoch)
        assert report.ok and not report.violations

    def test_telemetry_counters(self):
        from repro.telemetry import Probe

        probe = Probe()
        config = FuzzConfig(n_cycles=2)
        trial = run_trial(config, canonical_schedule(config), 0, tracer=probe)
        assert not trial.failed
        fam = probe.metrics.counter("repro_audits_total")
        total = sum(s.value for _, s in fam.series())
        assert total >= config.n_cycles
        # run_trial itself does not count trials; fuzz() does
        trials = probe.metrics.counter("repro_fuzz_trials_total")
        assert sum(s.value for _, s in trials.series()) == 0

    def test_fuzz_counts_trials(self):
        from repro.telemetry import Probe

        probe = Probe()
        fuzz(FuzzConfig(n_cycles=2), seeds=2, tracer=probe)
        fam = probe.metrics.counter("repro_fuzz_trials_total")
        assert sum(s.value for _, s in fam.series()) == 2
