"""Tests for the Remus comparator and the adaptive interval policy."""

import math

import pytest

from repro.checkpoint import AdaptivePolicy, RemusModel, RemusPair
from repro.cluster import ClusterSpec, VirtualCluster
from repro.sim import Simulator


class TestRemusModel:
    def test_40hz_rate(self):
        assert 1.0 / RemusModel().epoch_length == pytest.approx(40.0)

    def test_epoch_dirty_saturates(self):
        m = RemusModel(epoch_length=1.0)
        assert m.epoch_dirty_bytes(2e9, 1e9) == 1e9

    def test_overhead_fraction_grows_with_dirty_rate(self):
        m = RemusModel(epoch_length=25e-3, pause_fixed=5e-3, bandwidth=125e6)
        low = m.overhead_fraction(1e6, 1e9)
        high = m.overhead_fraction(500e6, 1e9)
        assert high > low
        # low rate: just the pause fraction
        assert low == pytest.approx(0.2)

    def test_backpressure_kicks_in_beyond_bandwidth(self):
        m = RemusModel(epoch_length=1.0, pause_fixed=0.0, bandwidth=100.0)
        assert m.overhead_fraction(50.0, 1e9) == 0.0
        assert m.overhead_fraction(200.0, 1e9) == pytest.approx(1.0)

    def test_speculation_loss(self):
        m = RemusModel(epoch_length=0.02)
        assert m.speculation_loss() == pytest.approx(0.03)

    def test_standby_memory_full_image(self):
        assert RemusModel().standby_memory_bytes(4e9) == 4e9

    def test_validation(self):
        with pytest.raises(ValueError):
            RemusModel(epoch_length=0.0)
        with pytest.raises(ValueError):
            RemusModel(pause_fixed=-1.0)
        with pytest.raises(ValueError):
            RemusModel(bandwidth=0.0)


class TestRemusPair:
    def _setup(self, dirty_rate=1e6):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=2))
        vm = cluster.create_vm(0, 1e9, dirty_rate=dirty_rate)
        pair = RemusPair(cluster, vm, standby_node_id=1,
                         model=RemusModel(epoch_length=0.1, pause_fixed=0.01))
        return sim, cluster, vm, pair

    def test_epochs_accumulate(self):
        sim, cluster, vm, pair = self._setup()
        proc = sim.process(pair.protect())
        sim.run(until=1.05)
        proc.interrupt()
        sim.run()
        assert pair.stats.epochs >= 8
        assert pair.stats.replicated_bytes > 0

    def test_failover_restores_on_standby(self):
        sim, cluster, vm, pair = self._setup()
        proc = sim.process(pair.protect())
        sim.run(until=0.55)
        cluster.kill_node(0)
        proc.interrupt()
        sim.run()
        lost = pair.failover()
        assert vm.node_id == 1
        assert vm.state.value == "running"
        assert lost >= 0.0
        assert pair.stats.failovers == 1

    def test_host_crash_mid_drain_ends_protection(self):
        """The active host dying while an epoch drains ends ``protect``
        with its stats, as a crash between epochs does; the aborted flow
        is not a failure of the run."""
        sim, cluster, vm, pair = self._setup(dirty_rate=1e9)
        proc = sim.process(pair.protect())
        sim.run(until=0.115)  # epoch 0 paused at 0.1, drains from 0.11
        cluster.kill_node(0)
        sim.run()
        assert proc.ok is True and proc.value is pair.stats
        assert pair.stats.epochs == 0
        pair.failover()
        assert vm.node_id == 1

    def test_failover_requires_dead_active(self):
        sim, cluster, vm, pair = self._setup()
        with pytest.raises(RuntimeError):
            pair.failover()

    def test_standby_must_differ(self):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=2))
        vm = cluster.create_vm(0, 1e9)
        with pytest.raises(ValueError):
            RemusPair(cluster, vm, standby_node_id=0)


class TestAdaptivePolicy:
    def test_degenerates_to_young_with_constant_cost(self):
        lam = 1e-4
        cost = 10.0
        pol = AdaptivePolicy(lam, lambda dirty: cost, min_interval=0.0)
        t_star = pol.young_equivalent(cost)
        assert t_star == pytest.approx(math.sqrt(2 * cost / lam))
        # rule flips exactly at Young's interval
        assert not pol.should_checkpoint(t_star * 0.9, 0.0)
        assert pol.should_checkpoint(t_star * 1.1, 0.0)

    def test_growing_cost_delays_checkpoint(self):
        lam = 1e-4
        flat = AdaptivePolicy(lam, lambda d: 10.0, min_interval=0.0)
        rising = AdaptivePolicy(lam, lambda d: 10.0 + d / 1e6, min_interval=0.0)
        t_flat = flat.next_check_time(dirty_rate=1e6, resolution=1.0)
        t_rising = rising.next_check_time(dirty_rate=1e6, resolution=1.0)
        assert t_rising > t_flat

    def test_min_interval_floor(self):
        pol = AdaptivePolicy(1.0, lambda d: 0.0, min_interval=5.0)
        assert not pol.should_checkpoint(4.0, 0.0)
        assert pol.should_checkpoint(5.0, 0.0)

    def test_evaluate_decision_fields(self):
        pol = AdaptivePolicy(2e-4, lambda d: 7.0)
        d = pol.evaluate(100.0, 123.0)
        assert d.risk == pytest.approx(2e-4 * 100.0 * 100.0 / 2)
        assert d.cost == 7.0
        assert d.take == (d.risk >= d.cost)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(0.0, lambda d: 1.0)
        with pytest.raises(ValueError):
            AdaptivePolicy(1.0, lambda d: 1.0, min_interval=-1.0)
