"""Tests for the fault-schedule fuzzer machinery itself.

The invariant checkers are covered in ``test_audit_invariants.py``; here
we pin down the harness: schedule generation, determinism, shrinking,
unrecoverable classification, budgets, and the ``repro audit`` CLI.
"""

import numpy as np
import pytest

from repro.audit import (
    FaultSpec,
    FuzzConfig,
    canonical_schedule,
    draw_schedule,
    fuzz,
    run_trial,
    shrink,
)
from repro.audit import fuzzer as fuzzer_mod
from repro.cli import main


class TestFaultSpec:
    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError):
            FaultSpec(cycle=0, phase="mid_lunch", node=0, frac=0.5)

    def test_rejects_out_of_range_frac(self):
        with pytest.raises(ValueError):
            FaultSpec(cycle=0, phase="idle", node=0, frac=1.5)

    def test_str_names_the_kill(self):
        spec = FaultSpec(cycle=2, phase="mid_pause", node=1, frac=0.25)
        assert "cycle 2" in str(spec)
        assert "node 1" in str(spec)
        assert "mid_pause" in str(spec)


class TestFuzzConfig:
    def test_rejects_unknown_layout(self):
        with pytest.raises(ValueError):
            FuzzConfig(layout="fig9")

    def test_rejects_tiny_cluster(self):
        with pytest.raises(ValueError):
            FuzzConfig(n_nodes=2)

    def test_geo_spread_needs_more_sites_than_shards(self):
        """Site-orthogonal groups need a site per shard plus one for a
        member; ``--geo 3 --scheme rs-4-3`` used to die in the layout."""
        with pytest.raises(ValueError, match="more sites than rs-4-3's 3"):
            FuzzConfig(n_nodes=12, geo_sites=3, scheme="rs-4-3")
        FuzzConfig(n_nodes=12, geo_sites=4, scheme="rs-4-3")
        # remus-async keeps flat layouts, so it needs no such margin
        FuzzConfig(
            n_nodes=12, geo_sites=3, scheme="rs-4-3", geo_policy="remus-async"
        )


class TestScheduleGeneration:
    def test_draw_respects_bounds(self):
        config = FuzzConfig(n_cycles=5, max_faults=3, n_nodes=6)
        for seed in range(20):
            schedule = draw_schedule(np.random.default_rng(seed), config)
            assert len(schedule) <= config.max_faults
            for f in schedule:
                assert 0 <= f.cycle < config.n_cycles
                assert 0 <= f.node < config.n_nodes
                assert 0.1 <= f.frac <= 0.9

    def test_draw_deterministic_in_seed(self):
        config = FuzzConfig()
        a = draw_schedule(np.random.default_rng(42), config)
        b = draw_schedule(np.random.default_rng(42), config)
        assert a == b

    def test_draw_sorted_by_firing_order(self):
        config = FuzzConfig(n_cycles=8, max_faults=8)
        schedule = draw_schedule(np.random.default_rng(7), config)
        cycles = [f.cycle for f in schedule]
        assert cycles == sorted(cycles)

    def test_canonical_is_single_midrun_kill(self):
        config = FuzzConfig(n_cycles=4)
        (spec,) = canonical_schedule(config)
        assert spec == FaultSpec(cycle=2, phase="idle", node=0, frac=0.5)


class TestTrialDeterminism:
    def test_same_seed_same_outcome(self):
        config = FuzzConfig(n_cycles=3)
        schedule = draw_schedule(np.random.default_rng([5, 0x5C]), config)
        a = run_trial(config, schedule, seed=5)
        b = run_trial(config, schedule, seed=5)
        assert (a.commits, a.aborts, a.recoveries) == (
            b.commits, b.aborts, b.recoveries
        )
        assert a.unrecoverable == b.unrecoverable
        assert [str(v) for v in a.violations] == [str(v) for v in b.violations]
        assert [(e.time, e.node_id) for e in a.faults_fired] == [
            (e.time, e.node_id) for e in b.faults_fired
        ]

    def test_clean_run_commits_every_cycle(self):
        config = FuzzConfig(n_cycles=3)
        trial = run_trial(config, (), seed=1)
        # the driver runs one priming cycle before the fuzzed cycles
        assert trial.commits == config.n_cycles + 1
        assert trial.aborts == 0 and trial.recoveries == 0
        assert not trial.failed and trial.unrecoverable is None


class TestUnrecoverableClassification:
    def test_double_fault_same_cycle_is_not_a_bug(self):
        """Two distinct nodes dying in the same interval exceed single
        parity; the trial must end unrecoverable, not failed."""
        config = FuzzConfig(n_cycles=3)
        schedule = (
            FaultSpec(cycle=1, phase="idle", node=1, frac=0.4),
            FaultSpec(cycle=1, phase="idle", node=2, frac=0.45),
        )
        trial = run_trial(config, schedule, seed=0)
        assert trial.unrecoverable is not None
        assert not trial.failed

    def test_repeat_kill_of_same_node_is_absorbed(self):
        config = FuzzConfig(n_cycles=3)
        schedule = (
            FaultSpec(cycle=1, phase="idle", node=1, frac=0.4),
            FaultSpec(cycle=1, phase="idle", node=1, frac=0.6),
        )
        trial = run_trial(config, schedule, seed=0)
        assert trial.unrecoverable is None
        assert not trial.failed
        assert trial.recoveries == 1


class TestShrink:
    def test_shrinks_to_single_culprit(self, monkeypatch):
        """With a stubbed oracle that fails iff the culprit fault is
        present, shrink must strip everything else."""
        culprit = FaultSpec(cycle=1, phase="mid_pause", node=2, frac=0.5)
        noise = [
            FaultSpec(cycle=0, phase="idle", node=0, frac=0.3),
            FaultSpec(cycle=2, phase="post_commit", node=1, frac=0.7),
            FaultSpec(cycle=3, phase="idle", node=3, frac=0.2),
        ]

        class FakeTrial:
            def __init__(self, failed):
                self.failed = failed

        def fake_run_trial(config, schedule, seed, tracer=None):
            return FakeTrial(culprit in schedule)

        monkeypatch.setattr(fuzzer_mod, "run_trial", fake_run_trial)
        schedule = (noise[0], culprit, noise[1], noise[2])
        assert shrink(FuzzConfig(), schedule, seed=0) == (culprit,)

    def test_keeps_conjunction_of_two(self, monkeypatch):
        """If failure needs BOTH faults, neither may be dropped."""
        a = FaultSpec(cycle=0, phase="idle", node=0, frac=0.3)
        b = FaultSpec(cycle=1, phase="idle", node=1, frac=0.5)
        noise = FaultSpec(cycle=2, phase="idle", node=2, frac=0.7)

        class FakeTrial:
            def __init__(self, failed):
                self.failed = failed

        def fake_run_trial(config, schedule, seed, tracer=None):
            return FakeTrial(a in schedule and b in schedule)

        monkeypatch.setattr(fuzzer_mod, "run_trial", fake_run_trial)
        assert shrink(FuzzConfig(), (a, noise, b), seed=0) == (a, b)


class TestFuzzBatch:
    def test_deterministic_in_base_seed(self):
        config = FuzzConfig(n_cycles=2)
        a = fuzz(config, seeds=3, base_seed=10)
        b = fuzz(config, seeds=3, base_seed=10)
        assert [t.schedule for t in a.trials] == [t.schedule for t in b.trials]
        assert [t.commits for t in a.trials] == [t.commits for t in b.trials]

    def test_budget_stops_early(self):
        result = fuzz(FuzzConfig(n_cycles=2), seeds=50, budget=0.0)
        assert result.budget_exhausted
        assert len(result.trials) <= 1

    def test_aggregates(self):
        result = fuzz(FuzzConfig(n_cycles=2), seeds=4)
        assert len(result.trials) == 4
        assert not result.failures
        assert result.n_violations == 0
        assert result.elapsed > 0


class TestCli:
    def test_one_shot_exit_zero(self, capsys):
        assert main(["audit", "--layout", "fig4", "--cycles", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "verdict" in out

    def test_fuzz_exit_zero_and_reports(self, capsys):
        assert main([
            "audit", "--fuzz", "--layout", "fig1",
            "--seeds", "3", "--cycles", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "violations" in out

    def test_layout_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["audit", "--layout", "fig2"])


class TestSchemeSweep:
    """Scheme-parameterized fuzzing and the tolerance-aware classifier."""

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            FuzzConfig(scheme="lrc-4")

    def test_beyond_tolerance_marker_is_deliberate_only(self, monkeypatch):
        """Only :class:`Unrecoverable` counts as fate.  A decode failure
        *within* tolerance (e.g. an RS(k,2) double fault the codec should
        have survived) is a plain :class:`ParityCodeError` and therefore
        fails the trial as a bug, whatever its message says."""
        from repro.checkpoint import Unrecoverable
        from repro.coding.parity import ParityCodeError
        from repro.core.dvdc import DisklessCheckpointer

        assert not issubclass(ParityCodeError, Unrecoverable)
        schedule = (FaultSpec(cycle=1, phase="idle", node=1, frac=0.4),)
        for error in (Unrecoverable, ParityCodeError):
            def recover_group(self, group, lost_vm_ids, report, error=error):
                raise error("group lost 2 members — beyond xor tolerance 1")
                yield  # pragma: no cover - makes this a generator

            monkeypatch.setattr(
                DisklessCheckpointer, "_recover_group", recover_group
            )
            trial = run_trial(FuzzConfig(n_cycles=3), schedule, seed=0)
            fate = error is Unrecoverable
            assert (trial.unrecoverable is not None) is fate
            assert trial.failed is not fate
            if not fate:
                assert [v.subject for v in trial.violations] == [
                    "ParityCodeError"
                ]

    @pytest.mark.parametrize("scheme", ["rs-8-2", "rep-3"])
    def test_double_faults_never_lose_data(self, scheme):
        """The acceptance bar: with tolerance-2 schemes, dense double
        faults produce neither violations nor data-loss classifications
        — schedules XOR would write off as fate."""
        config = FuzzConfig(
            n_nodes=6, n_cycles=3, max_faults=2, interval=60.0, scheme=scheme
        )
        result = fuzz(config, seeds=4, base_seed=7)
        assert not result.failures, [str(v) for t in result.failures for v in t.violations]
        assert all(t.unrecoverable is None for t in result.trials)

    def test_xor_shrink_still_one_minimal(self, monkeypatch):
        """Tolerance-1 schemes keep producing 1-minimal reproducers:
        an explicit ``scheme="xor"`` config shrinks a noisy schedule
        down to exactly the single culprit fault, unchanged from the
        pre-scheme fuzzer."""
        culprit = FaultSpec(cycle=1, phase="mid_pause", node=2, frac=0.5)
        noise = [
            FaultSpec(cycle=0, phase="idle", node=0, frac=0.3),
            FaultSpec(cycle=2, phase="post_commit", node=1, frac=0.7),
        ]

        class FakeTrial:
            def __init__(self, failed):
                self.failed = failed

        def fake_run_trial(config, schedule, seed, tracer=None):
            return FakeTrial(culprit in schedule)

        monkeypatch.setattr(fuzzer_mod, "run_trial", fake_run_trial)
        config = FuzzConfig(n_nodes=6, n_cycles=3, scheme="xor")
        assert shrink(config, (noise[0], culprit, noise[1]), seed=0) == (culprit,)
