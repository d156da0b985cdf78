"""Tests for failure distributions, schedules, and their replay."""

import math

import numpy as np
import pytest

from repro.failures import (
    Bathtub,
    Exponential,
    FailureEvent,
    FailureInjector,
    FailureSchedule,
    LogNormal,
    PAPER_LAMBDA,
    PAPER_MTBF_SECONDS,
    Weibull,
)
from repro.sim import Simulator


class TestDistributions:
    def test_exponential_mean(self, rng):
        d = Exponential(1.0 / 100.0)
        assert d.mean() == pytest.approx(100.0)
        samples = d.sample_n(rng, 40000)
        assert samples.mean() == pytest.approx(100.0, rel=0.05)

    def test_exponential_cdf(self):
        d = Exponential(0.5)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(2.0) == pytest.approx(1.0 - math.exp(-1.0))
        assert d.survival(2.0) == pytest.approx(math.exp(-1.0))

    def test_exponential_invalid_rate(self):
        with pytest.raises(ValueError):
            Exponential(0.0)

    def test_weibull_mean_matches_samples(self, rng):
        d = Weibull.from_mtbf(500.0, shape=0.7)
        assert d.mean() == pytest.approx(500.0, rel=1e-9)
        samples = d.sample_n(rng, 60000)
        assert samples.mean() == pytest.approx(500.0, rel=0.08)

    def test_weibull_shape1_is_exponential(self):
        w = Weibull(shape=1.0, scale=200.0)
        e = Exponential(1.0 / 200.0)
        for t in (10.0, 100.0, 500.0):
            assert w.cdf(t) == pytest.approx(e.cdf(t))

    def test_lognormal_from_mean_cv(self, rng):
        d = LogNormal.from_mean_cv(300.0, cv=1.5)
        assert d.mean() == pytest.approx(300.0, rel=1e-9)
        samples = d.sample_n(rng, 80000)
        assert samples.mean() == pytest.approx(300.0, rel=0.1)

    def test_bathtub_survival_product(self):
        b = Bathtub.typical(1000.0)
        assert b.survival(200.0) == pytest.approx(
            b.infant.survival(200.0) * b.life.survival(200.0) * b.wearout.survival(200.0)
        )

    def test_bathtub_mean_close_to_life_phase(self):
        b = Bathtub.typical(1000.0)
        # competing risks shorten the mean below the life-phase MTBF
        m = b.mean()
        assert 300.0 < m < 1000.0

    def test_factory_mean_is_mtbf(self):
        for dist in (Exponential(1 / 1234.0), Weibull.from_mtbf(1234.0, 0.8),
                     LogNormal.from_mean_cv(1234.0, cv=1.5)):
            assert dist.mean() == pytest.approx(1234.0, rel=1e-6)


class TestMtbf:
    def test_paper_lambda(self):
        assert PAPER_MTBF_SECONDS == 3 * 3600
        assert PAPER_LAMBDA == pytest.approx(9.26e-5, rel=2e-3)


class TestSchedule:
    def test_draw_sorted_and_bounded(self, rng):
        sched = FailureSchedule.draw(rng, Exponential(1 / 100.0), 4, horizon=1000.0)
        times = [e.time for e in sched.events]
        assert times == sorted(times)
        assert all(0 < t <= 1000.0 for t in times)

    def test_ordinals_per_node(self, rng):
        sched = FailureSchedule.draw(rng, Exponential(1 / 50.0), 2, horizon=2000.0)
        for node in (0, 1):
            ords = [e.ordinal for e in sched.events if e.node_id == node]
            assert ords == list(range(len(ords)))

    def test_repair_time_spaces_failures(self, rng):
        sched = FailureSchedule.draw(
            rng, Exponential(1 / 10.0), 1, horizon=10000.0, repair_time=100.0
        )
        times = [e.time for e in sched.events if e.node_id == 0]
        gaps = np.diff(times)
        assert (gaps >= 100.0).all()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            FailureSchedule.draw(rng, Exponential(0.1), 0, horizon=10.0)
        with pytest.raises(ValueError):
            FailureSchedule.draw(rng, Exponential(0.1), 1, horizon=0.0)
        with pytest.raises(ValueError):
            FailureSchedule.draw(rng, Exponential(0.1), 1, horizon=-10.0)
        with pytest.raises(ValueError):
            FailureSchedule.draw(
                rng, Exponential(0.1), 1, horizon=10.0, repair_time=-1.0
            )


class TestInjector:
    def test_replay_delivers_exact_times(self):
        sim = Simulator()
        sched = FailureSchedule([
            FailureEvent(10.0, 0, 0),
            FailureEvent(20.0, 1, 0),
            FailureEvent(30.0, 0, 1),
        ])
        inj = FailureInjector(sim, 2, schedule=sched)
        seen = []
        inj.subscribe(lambda ev: seen.append((sim.now, ev.node_id)))
        inj.start()
        sim.run()
        assert seen == [(10.0, 0), (20.0, 1), (30.0, 0)]
        assert len(inj.delivered) == 3

    def test_schedule_node_out_of_range_rejected(self, sim):
        sched = FailureSchedule(events=[FailureEvent(1.0, 5, 0)])
        inj = FailureInjector(sim, 2, schedule=sched)
        with pytest.raises(ValueError):
            inj.start()

    def test_start_idempotent(self, sim, rng):
        sched = FailureSchedule.draw(rng, Exponential(1 / 10.0), 1, horizon=50.0)
        inj = FailureInjector(sim, 1, schedule=sched)
        inj.start()
        inj.start()
        sim.run()
        # no duplicated arming: every scheduled failure delivered once
        assert len(inj.delivered) == len(sched) > 0
