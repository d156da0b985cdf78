"""Transient-fault mode of the audit fuzzer, and its CLI surface."""

import numpy as np
import pytest

from repro.audit import FaultSpec, FuzzConfig, draw_schedule, fuzz, run_trial
from repro.cli import main


class TestFaultSpecKinds:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(cycle=0, phase="idle", node=0, frac=0.5, kind="meteor")
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(cycle=0, phase="idle", node=0, frac=0.5,
                      kind="flap", duration=-1.0)
        with pytest.raises(ValueError, match="severity"):
            FaultSpec(cycle=0, phase="idle", node=0, frac=0.5,
                      kind="degrade", severity=0.0)

    def test_str_names_the_kind(self):
        spec = FaultSpec(cycle=1, phase="mid_pause", node=2, frac=0.5,
                        kind="flap", duration=0.3)
        assert "flap" in str(spec)
        # the classic kill keeps its familiar rendering
        assert "kill" in str(FaultSpec(cycle=0, phase="idle", node=0, frac=0.5))


class TestTransientDraw:
    def test_deterministic_in_the_seed(self):
        cfg = FuzzConfig(transient=True, max_faults=4)
        a = draw_schedule(np.random.default_rng([7, 0x5C]), cfg)
        b = draw_schedule(np.random.default_rng([7, 0x5C]), cfg)
        assert a == b

    def test_classic_stream_is_untouched_by_the_kind_draw(self):
        """The transient vocabulary must not perturb where classic fuzz
        schedules aim: same seed, same (cycle, phase, node, frac)."""
        classic = FuzzConfig(transient=False, max_faults=4)
        transient = FuzzConfig(transient=True, max_faults=4)
        for seed in range(20):
            c = draw_schedule(np.random.default_rng([seed, 0x5C]), classic)
            t = draw_schedule(np.random.default_rng([seed, 0x5C]), transient)
            assert [(f.cycle, f.phase, f.node, f.frac) for f in c] \
                == [(f.cycle, f.phase, f.node, f.frac) for f in t]
            assert all(f.kind == "kill" for f in c)

    def test_vocabulary_and_bounds(self):
        cfg = FuzzConfig(transient=True, max_faults=4)
        kinds = set()
        for seed in range(60):
            for f in draw_schedule(np.random.default_rng([seed, 0x5C]), cfg):
                kinds.add(f.kind)
                assert 0.05 <= f.duration <= 1.5 or f.kind == "kill"
                assert 0.1 <= f.severity <= 0.9 or f.kind == "kill"
        # kills keep their share and at least most transient kinds appear
        assert "kill" in kinds
        assert len(kinds - {"kill"}) >= 3

    def test_incremental_strategy_never_draws_corrupt(self):
        cfg = FuzzConfig(transient=True, max_faults=4, strategy="incremental")
        for seed in range(60):
            for f in draw_schedule(np.random.default_rng([seed, 0x5C]), cfg):
                assert f.kind != "corrupt"


class TestTransientTrials:
    def test_small_batch_runs_clean(self):
        result = fuzz(FuzzConfig(transient=True, n_cycles=3), seeds=4)
        assert not result.failures, [str(v) for t in result.failures for v in t.violations]
        assert len(result.trials) == 4
        # determinism: the same campaign replays identically
        again = fuzz(FuzzConfig(transient=True, n_cycles=3), seeds=4)
        assert [t.schedule for t in again.trials] \
            == [t.schedule for t in result.trials]

    def test_transient_faults_actually_fire(self):
        cfg = FuzzConfig(transient=True, n_cycles=3, max_faults=3)
        fired = []
        for seed in range(8):
            sched = draw_schedule(np.random.default_rng([seed, 0x5C]), cfg)
            trial = run_trial(cfg, sched, seed)
            assert not trial.failed, [str(v) for v in trial.violations]
            fired.extend(trial.transients_fired)
        assert fired, "eight seeds must land at least one transient fault"
        assert all(f.kind != "kill" for f in fired)


class TestCLI:
    def test_audit_fuzz_transient_exits_zero(self, capsys):
        rc = main([
            "audit", "--fuzz", "--transient", "--layout", "fig4",
            "--seeds", "3", "--cycles", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "+transient" in out and "transients" in out

    def test_audit_heal_with_spare_exits_zero(self, capsys):
        rc = main(["audit", "--heal", "--spares", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "protected" in out
        assert "still open" not in out  # the window closed and is reported

    def test_audit_heal_without_spares_exits_zero(self, capsys):
        rc = main(["audit", "--heal", "--spares", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "degraded" in out
        assert "outstanding" in out  # it says *why* it is not protected

    @pytest.mark.parametrize("scheme", ["rdp", "rs-8-2"])
    def test_audit_heal_two_shards_without_spares_exits_zero(self, capsys, scheme):
        # two parity shards let heal() re-protect the survivors with an
        # empty pool: a PROTECTED end that passes the strict audit is a
        # success, not a mismatch with the spare count
        rc = main(["audit", "--heal", "--spares", "0", "--scheme", scheme])
        out = capsys.readouterr().out
        assert "protected" in out
        assert "still open" not in out and "outstanding" not in out
        assert rc == 0
