"""Tests for the memory-footprint and reliability models."""

import math

import pytest

from repro.model import (
    ClusterModel,
    MemoryFootprint,
    SCHEMES,
    compare_codes,
    fatal_probability_per_failure,
    job_survival_probability,
    mttdl,
    scheme_footprint,
)


class TestMemoryFootprint:
    def test_all_schemes_computable(self):
        m = ClusterModel()
        for scheme in SCHEMES:
            f = scheme_footprint(m, scheme)
            assert f.peak_per_node >= f.steady_per_node
            assert f.overhead_ratio >= 1.0

    def test_plank_normal_is_three_x(self):
        """Section II-B2: 'one needs three times the memory of the
        process' for the normal diskless variant."""
        f = scheme_footprint(ClusterModel(), "diskless_normal",
                             capture_buffer_fraction=0.0)
        assert f.overhead_ratio == pytest.approx(3.0)

    def test_diskful_is_cheapest(self):
        m = ClusterModel()
        diskful = scheme_footprint(m, "diskful")
        for scheme in SCHEMES:
            assert diskful.overhead_ratio <= scheme_footprint(m, scheme).overhead_ratio

    def test_dvdc_below_plank_normal(self):
        """The 'modest memory overhead' claim relative to naive diskless."""
        m = ClusterModel()
        dvdc = scheme_footprint(m, "dvdc", capture_buffer_fraction=0.0)
        normal = scheme_footprint(m, "diskless_normal", capture_buffer_fraction=0.0)
        assert dvdc.overhead_ratio < normal.overhead_ratio

    def test_dvdc_steady_formula(self):
        """steady ratio = 2 + 1/k (image + checkpoint + parity share)."""
        m = ClusterModel()  # n=4, k defaults to 3
        f = scheme_footprint(m, "dvdc", capture_buffer_fraction=0.0)
        assert f.cluster_steady / (12 * m.vm_memory_bytes) == pytest.approx(
            2.0 + 1.0 / 3.0
        )

    def test_rdp_doubles_parity_share(self):
        m = ClusterModel()
        x = scheme_footprint(m, "dvdc", capture_buffer_fraction=0.0)
        r = scheme_footprint(m, "dvdc_rdp", capture_buffer_fraction=0.0)
        parity_x = x.cluster_steady - 2 * 12 * m.vm_memory_bytes
        parity_r = r.cluster_steady - 2 * 12 * m.vm_memory_bytes
        assert parity_r == pytest.approx(2 * parity_x)

    def test_group_size_lowers_parity_overhead(self):
        m = ClusterModel(n_nodes=8)
        small = scheme_footprint(m, "dvdc", group_size=2,
                                 capture_buffer_fraction=0.0)
        large = scheme_footprint(m, "dvdc", group_size=7,
                                 capture_buffer_fraction=0.0)
        assert large.overhead_ratio < small.overhead_ratio

    def test_validation(self):
        m = ClusterModel()
        with pytest.raises(ValueError):
            scheme_footprint(m, "bogus")
        with pytest.raises(ValueError):
            scheme_footprint(m, "dvdc", capture_buffer_fraction=1.5)
        with pytest.raises(ValueError):
            MemoryFootprint("x", 10.0, 5.0, 10.0, 5.0, 1.0)


class TestReliability:
    def test_fatal_probability_monotone_in_window(self):
        lam, n = 1e-4, 8
        assert fatal_probability_per_failure(lam, n, 10.0) < (
            fatal_probability_per_failure(lam, n, 1000.0)
        )

    def test_tolerance_two_much_safer(self):
        lam, n, w = 1e-4, 8, 100.0
        p1 = fatal_probability_per_failure(lam, n, w, tolerance=1)
        p2 = fatal_probability_per_failure(lam, n, w, tolerance=2)
        assert p2 < p1 * 0.2

    def test_zero_window_never_fatal(self):
        assert fatal_probability_per_failure(1e-4, 4, 0.0) == 0.0
        assert math.isinf(mttdl(1e-4, 4, 0.0))

    def test_mttdl_raid_formula_limit(self):
        """For λW << 1, MTTDL ≈ MTBF² / (n·(n−1)·W) — the classic
        RAID-5 arithmetic."""
        lam, n, w = 1e-6, 5, 100.0
        expected = 1.0 / (n * lam * (n - 1) * lam * w)
        assert mttdl(lam, n, w) == pytest.approx(expected, rel=1e-3)

    def test_survival_bounds_and_monotonicity(self):
        lam, n, w = 1e-4, 4, 120.0
        s_short = job_survival_probability(lam, n, 3600.0, w)
        s_long = job_survival_probability(lam, n, 48 * 3600.0, w)
        assert 0.0 < s_long < s_short <= 1.0

    def test_compare_codes(self):
        c = compare_codes(1e-4, 6, 24 * 3600.0, 60.0)
        assert c.mttdl_rdp > c.mttdl_xor
        assert c.survival_rdp > c.survival_xor
        assert c.mttdl_gain > 10

    def test_validation(self):
        with pytest.raises(ValueError):
            fatal_probability_per_failure(0.0, 4, 10.0)
        with pytest.raises(ValueError):
            fatal_probability_per_failure(1e-4, 1, 10.0)
        with pytest.raises(ValueError):
            fatal_probability_per_failure(1e-4, 4, 10.0, tolerance=0)
        with pytest.raises(ValueError):
            job_survival_probability(1e-4, 4, -1.0, 10.0)

    def test_tolerance_exceeding_nodes_is_safe(self):
        # with 2 nodes and tolerance 2, a second window has 0 survivors
        assert fatal_probability_per_failure(1e-4, 2, 10.0, tolerance=2) == 0.0


class TestReliabilityVsSimulation:
    def test_model_brackets_measured_completion_rate(self):
        """The analytical survival probability should be in the same
        band as the end-to-end simulation's completion rate under dense
        failures (EXPERIMENTS.md completion-rate note)."""

        from repro import CheckpointedJob, dvdc, paper_scenario
        from repro.checkpoint import IncrementalCapture
        from repro.failures import Exponential, FailureInjector, FailureSchedule

        node_mtbf = 3 * 3600.0
        work = 2 * 3600.0
        completed = 0
        total = 12
        wall_times = []
        for seed in range(total):
            sc = paper_scenario(seed=seed)
            rng = sc.rngs.stream("failures")
            sched = FailureSchedule.draw(
                rng, Exponential(1 / node_mtbf), 4, horizon=work * 10,
                repair_time=30.0,
            )
            inj = FailureInjector(sc.sim, 4, schedule=sched)
            ck = dvdc(sc.cluster, strategy=IncrementalCapture())
            job = CheckpointedJob(sc.cluster, ck, work=work, interval=600.0,
                                  injector=inj, repair_time=30.0)
            inj.start()
            sc.sim.run_process(job.start())
            if job.result.completed:
                completed += 1
                wall_times.append(job.result.wall_time)
        measured = completed / total
        # window: recovery (~40 s) + degraded until heal (≤ interval) ~ a
        # few hundred seconds; use a [60 s, 700 s] window band
        import numpy as np

        wall = float(np.mean(wall_times)) if wall_times else work * 1.5
        hi = job_survival_probability(1 / node_mtbf, 4, wall, 60.0)
        lo = job_survival_probability(1 / node_mtbf, 4, wall, 700.0)
        assert lo - 0.15 <= measured <= hi + 0.1
