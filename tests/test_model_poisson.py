"""Tests for the Section V equations, pinned against Monte-Carlo."""

import math

import numpy as np
import pytest

from repro.model import (
    estimate_expected_time,
    estimate_window_loss,
    expected_failures,
    expected_time_checkpointed,
    expected_time_no_checkpoint,
    expected_time_with_overhead,
    paper_literal_eq1,
    paper_literal_eq3,
    paper_literal_overhead,
    simulate_completion_times,
    truncated_mean_failure_time,
    window_loss_probability,
)


class TestBuildingBlocks:
    def test_expected_failures_geometric(self):
        # success prob e^{-1} -> mean failures e - 1
        assert expected_failures(1.0, 1.0) == pytest.approx(math.e - 1.0)

    def test_expected_failures_small_rate(self):
        assert expected_failures(1e-9, 1.0) == pytest.approx(1e-9, rel=1e-6)

    def test_truncated_mean_below_span_and_mean(self):
        lam, span = 1e-3, 500.0
        m = truncated_mean_failure_time(lam, span)
        assert 0.0 < m < span
        assert m < 1.0 / lam

    def test_truncated_mean_limit_small_span(self):
        # for span << 1/lam, conditional mean ~ span/2 (near-uniform)
        lam, span = 1e-6, 10.0
        assert truncated_mean_failure_time(lam, span) == pytest.approx(
            span / 2.0, rel=1e-3
        )

    def test_truncated_mean_monte_carlo(self, rng):
        lam, span = 1.0 / 300.0, 200.0
        draws = rng.exponential(1.0 / lam, 200000)
        cond = draws[draws < span]
        assert truncated_mean_failure_time(lam, span) == pytest.approx(
            cond.mean(), rel=0.02
        )


class TestNoCheckpoint:
    def test_reduces_to_T_when_reliable(self):
        assert expected_time_no_checkpoint(1e-12, 100.0) == pytest.approx(100.0)

    def test_blows_up_with_failures(self):
        # lam*T = 5: e^5 - 1 retries
        e = expected_time_no_checkpoint(5e-2, 100.0)
        assert e > 100.0 * 10

    def test_matches_monte_carlo(self, rng):
        lam, T = 1 / 3600.0, 2 * 3600.0
        analytic = expected_time_no_checkpoint(lam, T)
        mc = estimate_expected_time(rng, lam, T, None, n_runs=30000)
        assert mc.within(analytic)

    def test_paper_literal_eq1_is_algebraically_identical(self):
        for lam, T in [(1e-4, 1e4), (1e-3, 5e3), (0.5, 10.0)]:
            assert paper_literal_eq1(lam, T) == pytest.approx(
                expected_time_no_checkpoint(lam, T), rel=1e-12
            )


class TestCheckpointed:
    def test_checkpointing_always_helps_zero_cost(self):
        lam, T = 1e-4, 1e5
        no_ck = expected_time_no_checkpoint(lam, T)
        with_ck = expected_time_checkpointed(lam, T, N=1000.0)
        assert with_ck < no_ck

    def test_finer_intervals_monotone_with_zero_cost(self):
        lam, T = 1e-4, 1e5
        e_coarse = expected_time_checkpointed(lam, T, N=10000.0)
        e_fine = expected_time_checkpointed(lam, T, N=100.0)
        assert e_fine < e_coarse

    def test_matches_monte_carlo(self, rng):
        lam, T, N = 1 / 1800.0, 4 * 3600.0, 900.0
        analytic = expected_time_checkpointed(lam, T, N)
        mc = estimate_expected_time(rng, lam, T, N, n_runs=30000)
        assert mc.within(analytic)

    def test_paper_literal_eq3_overestimates(self):
        """The printed Eq. 3 keeps λT in the per-segment failure terms,
        so it grossly overestimates for N << T — the errata check."""
        lam, T, N = 1e-4, 1e5, 100.0
        corrected = expected_time_checkpointed(lam, T, N)
        literal = paper_literal_eq3(lam, T, N)
        assert literal > corrected * 10


class TestOverheadModel:
    def test_zero_overhead_reduces_to_eq2(self):
        lam, T, N = 1e-4, 1e5, 1000.0
        assert expected_time_with_overhead(lam, T, N, 0.0) == pytest.approx(
            expected_time_checkpointed(lam, T, N)
        )

    def test_overhead_increases_cost(self):
        lam, T, N = 1e-4, 1e5, 1000.0
        assert expected_time_with_overhead(lam, T, N, 50.0) > (
            expected_time_with_overhead(lam, T, N, 1.0)
        )

    def test_repair_time_increases_cost(self):
        lam, T, N = 1e-3, 1e4, 500.0
        assert expected_time_with_overhead(lam, T, N, 10.0, T_r=100.0) > (
            expected_time_with_overhead(lam, T, N, 10.0, T_r=0.0)
        )

    def test_matches_monte_carlo(self, rng):
        lam, T, N, Tov, Tr = 1 / 3600.0, 8 * 3600.0, 1800.0, 120.0, 60.0
        analytic = expected_time_with_overhead(lam, T, N, Tov, Tr)
        mc = estimate_expected_time(rng, lam, T, N, Tov, Tr, n_runs=30000)
        assert mc.within(analytic)

    def test_ratio(self):
        # Fig. 5's Y axis, E/T, is 1 in the fault-free, free-checkpoint limit
        T = 1e5
        assert expected_time_with_overhead(1e-12, T, 1000.0, 0.0) / T == pytest.approx(1.0)

    def test_paper_literal_overhead_dimensionally_wrong(self):
        """The printed multiplier T_ov/N (instead of T/N) makes the
        formula shrink with job-independent scale — the errata check."""
        lam, T, N, Tov = 1e-4, 1e5, 1000.0, 10.0
        literal = paper_literal_overhead(lam, T, N, Tov)
        corrected = expected_time_with_overhead(lam, T, N, Tov)
        assert literal < corrected / 100  # wildly off
        # and its E[F] is negative:
        assert math.exp(-lam * (N + Tov)) - 1.0 < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_time_with_overhead(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            expected_time_with_overhead(1.0, 1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            expected_time_with_overhead(1.0, 1.0, 1.0, -1.0)


class TestMonteCarloHarness:
    def test_reliable_run_exact(self, rng):
        times = simulate_completion_times(rng, 1e-15, 100.0, None, n_runs=10)
        assert np.allclose(times, 100.0)

    def test_segment_count_with_final_checkpoint(self, rng):
        times = simulate_completion_times(
            rng, 1e-15, 100.0, 10.0, T_ov=1.0, n_runs=4, final_checkpoint=True
        )
        assert np.allclose(times, 110.0)

    def test_segment_count_without_final_checkpoint(self, rng):
        times = simulate_completion_times(
            rng, 1e-15, 100.0, 10.0, T_ov=1.0, n_runs=4, final_checkpoint=False
        )
        assert np.allclose(times, 109.0)

    def test_remainder_segment(self, rng):
        times = simulate_completion_times(
            rng, 1e-15, 25.0, 10.0, T_ov=1.0, n_runs=2, final_checkpoint=False
        )
        # segments 10+1, 10+1, 5 -> 27
        assert np.allclose(times, 27.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_completion_times(rng, 0.0, 1.0, None)
        with pytest.raises(ValueError):
            simulate_completion_times(rng, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            simulate_completion_times(rng, 1.0, 1.0, None, n_runs=0)

    def test_ci_helpers(self, rng):
        est = estimate_expected_time(rng, 1e-3, 100.0, None, n_runs=500)
        lo, hi = est.ci()
        assert lo < est.mean < hi


class TestWindowLoss:
    """The window-of-vulnerability loss model behind SelfHealer telemetry."""

    def test_closed_form(self):
        lam, n, w = 1 / 10800.0, 4, 120.0
        p = window_loss_probability(lam, n, w)
        assert p == pytest.approx(1.0 - math.exp(-lam * (n - 1) * w))

    def test_edges_and_monotonicity(self):
        assert window_loss_probability(1e-3, 4, 0.0) == 0.0
        short = window_loss_probability(1e-3, 4, 10.0)
        long = window_loss_probability(1e-3, 4, 100.0)
        assert 0.0 < short < long < 1.0
        # more survivor nodes -> more ways a second failure lands
        assert window_loss_probability(1e-3, 8, 10.0) > short

    def test_validation(self):
        with pytest.raises(ValueError):
            window_loss_probability(0.0, 4, 10.0)
        with pytest.raises(ValueError):
            window_loss_probability(1e-3, 1, 10.0)
        with pytest.raises(ValueError):
            window_loss_probability(1e-3, 4, -1.0)

    def test_monte_carlo_corroborates(self, rng):
        lam, n, w = 1 / 3600.0, 4, 300.0
        est = estimate_window_loss(rng, lam, n, w, n_runs=20000)
        exact = window_loss_probability(lam, n, w)
        assert abs(est.mean - exact) < 4 * est.std_error + 1e-9

    def test_estimate_deterministic_in_seed(self):
        a = estimate_window_loss(np.random.default_rng(5), 1e-3, 4, 60.0)
        b = estimate_window_loss(np.random.default_rng(5), 1e-3, 4, 60.0)
        assert a.mean == b.mean


class TestWindowLossTolerance:
    """m-failure generalization of the window-of-vulnerability model.

    With an m-erasure scheme the window is only lost when at least
    ``tolerance`` of the n−1 survivors fail before reprotection — a
    binomial tail over per-node window-failure probability q."""

    def test_tolerance_one_matches_legacy_closed_form(self):
        lam, n, w = 1 / 7200.0, 6, 200.0
        assert window_loss_probability(lam, n, w, tolerance=1) == pytest.approx(
            1.0 - math.exp(-lam * (n - 1) * w)
        )

    def test_binomial_tail_matches_direct_sum(self):
        lam, n, w, t = 1 / 3600.0, 5, 300.0, 2
        q = 1.0 - math.exp(-lam * w)
        survivors = n - 1
        expect = sum(
            math.comb(survivors, i) * q**i * (1 - q) ** (survivors - i)
            for i in range(t, survivors + 1)
        )
        assert window_loss_probability(lam, n, w, tolerance=t) == pytest.approx(expect)

    def test_higher_tolerance_strictly_safer(self):
        lam, n, w = 1 / 3600.0, 8, 300.0
        probs = [window_loss_probability(lam, n, w, tolerance=t) for t in (1, 2, 3)]
        assert probs[0] > probs[1] > probs[2] > 0.0

    def test_tolerance_beyond_survivors_is_certain_safety(self):
        assert window_loss_probability(1e-3, 4, 100.0, tolerance=3) > 0.0
        assert window_loss_probability(1e-3, 4, 100.0, tolerance=4) == 0.0
        est = estimate_window_loss(
            np.random.default_rng(1), 1e-3, 4, 100.0, tolerance=4
        )
        assert est.mean == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            window_loss_probability(1e-3, 4, 10.0, tolerance=0)
        with pytest.raises(ValueError):
            estimate_window_loss(np.random.default_rng(0), 1e-3, 4, 10.0, tolerance=0)

    @pytest.mark.parametrize("tolerance", [2, 3])
    def test_monte_carlo_corroborates(self, rng, tolerance):
        lam, n, w = 1 / 900.0, 8, 400.0  # hot enough for nonzero tail mass
        est = estimate_window_loss(rng, lam, n, w, n_runs=40000, tolerance=tolerance)
        exact = window_loss_probability(lam, n, w, tolerance=tolerance)
        assert exact > 0.0
        assert abs(est.mean - exact) < 5 * est.std_error + 1e-9
