"""Tests for the fluid-flow network: fairness, fan-in, topologies."""

import pytest

from repro.network import (
    Network,
    NetworkError,
    SwitchedTopology,
    distributed_exchange_time,
    effective_bandwidth_fan_in,
    fan_in_time,
    pairwise_time,
)
from repro.sim import Simulator


class TestLink:
    def test_validation(self, sim):
        net = Network(sim)
        with pytest.raises(NetworkError):
            net.add_link("bad", bandwidth=0.0)
        with pytest.raises(NetworkError):
            net.add_link("bad", bandwidth=1.0, latency=-1.0)
        net.add_link("ok", 10.0)
        with pytest.raises(NetworkError):
            net.add_link("ok", 10.0)  # duplicate


class TestSingleLink:
    def test_single_flow_time(self, sim):
        net = Network(sim)
        net.add_link("l", bandwidth=100.0)
        flow = net.start_flow([net.links["l"]], 500.0)
        sim.run()
        assert flow.finished_at == pytest.approx(5.0)
        assert flow.ok

    def test_latency_charged_once(self, sim):
        net = Network(sim)
        net.add_link("l", bandwidth=100.0, latency=0.5)
        flow = net.start_flow([net.links["l"]], 100.0)
        sim.run()
        assert flow.finished_at == pytest.approx(1.5)

    def test_equal_sharing_two_flows(self, sim):
        net = Network(sim)
        net.add_link("l", bandwidth=100.0)
        f1 = net.start_flow([net.links["l"]], 100.0)
        f2 = net.start_flow([net.links["l"]], 100.0)
        sim.run()
        # each gets 50 B/s -> both finish at 2.0
        assert f1.finished_at == pytest.approx(2.0)
        assert f2.finished_at == pytest.approx(2.0)

    def test_rate_rises_when_contender_leaves(self, sim):
        net = Network(sim)
        net.add_link("l", bandwidth=100.0)
        short = net.start_flow([net.links["l"]], 50.0)
        long = net.start_flow([net.links["l"]], 150.0)
        sim.run()
        # phase 1: 50 B/s each until short done at t=1 (50B); long has 100B left
        # phase 2: long at 100 B/s -> 1s more
        assert short.finished_at == pytest.approx(1.0)
        assert long.finished_at == pytest.approx(2.0)

    def test_staggered_arrival(self, sim):
        net = Network(sim)
        net.add_link("l", bandwidth=100.0)
        f1 = net.start_flow([net.links["l"]], 200.0)

        result = {}

        def later():
            yield sim.timeout(1.0)
            f2 = net.start_flow([net.links["l"]], 50.0)
            yield f2
            result["f2"] = sim.now

        sim.process(later())
        sim.run()
        # f1 alone for 1s (100B done), then shares: f2 50B at 50B/s -> t=2
        # f1 remaining 100B: 50B by t=2, then 50B at 100B/s -> t=2.5
        assert result["f2"] == pytest.approx(2.0)
        assert f1.finished_at == pytest.approx(2.5)

    def test_zero_byte_flow_completes_after_latency(self, sim):
        net = Network(sim)
        net.add_link("l", bandwidth=100.0, latency=0.25)
        flow = net.start_flow([net.links["l"]], 0.0)
        sim.run()
        assert flow.finished_at == pytest.approx(0.25)

    def test_abort_fails_waiters(self, sim):
        net = Network(sim)
        net.add_link("l", bandwidth=10.0)
        flow = net.start_flow([net.links["l"]], 1000.0)

        def waiter():
            try:
                yield flow
            except NetworkError as exc:
                return str(exc)

        def aborter():
            yield sim.timeout(1.0)
            flow.abort("sender crashed")

        p = sim.process(waiter())
        sim.process(aborter())
        sim.run()
        assert "sender crashed" in p.value

    def test_abort_frees_bandwidth(self, sim):
        net = Network(sim)
        net.add_link("l", bandwidth=100.0)
        f1 = net.start_flow([net.links["l"]], 1000.0)
        f2 = net.start_flow([net.links["l"]], 100.0)
        sim.schedule(0.5, lambda: f1.abort())
        sim.run()
        # f2: 0.5s at 50B/s (25B), then 75B at 100B/s -> finishes at 1.25
        assert f2.finished_at == pytest.approx(1.25)


class TestMaxMin:
    def test_bottleneck_residual_redistributed(self, sim):
        """True max-min: a flow capped by a slow link leaves its residual
        share on the fast link to others."""
        net = Network(sim)
        net.add_link("fast", 100.0)
        net.add_link("slow", 25.0)
        capped = net.start_flow([net.links["fast"], net.links["slow"]], 100.0)  # rate 25
        free = net.start_flow([net.links["fast"]], 100.0)  # should get 75
        sim.run()
        assert capped.finished_at == pytest.approx(4.0)
        assert free.finished_at == pytest.approx(100.0 / 75.0)

    def test_three_way_fairness(self, sim):
        net = Network(sim)
        net.add_link("l", 90.0)
        flows = [net.start_flow([net.links["l"]], 90.0) for _ in range(3)]
        sim.run()
        for f in flows:
            assert f.finished_at == pytest.approx(3.0)

    def test_a_change_undone_within_the_instant_leaves_flows_untouched(self, sim):
        """Rates settle once per simulated instant: a link doubled and
        restored at one time stamp leaves its flow's anchor and
        completion event alone, so 7 B at 0.7 B/s ends at exactly 10 s.
        Refilling on every change re-anchored the flow at t = 1.3 and
        ended it at 10.000000000000002; until the settle a new rate is
        not visible, and a flow admitted this instant reads 0."""
        net = Network(sim)
        link = net.add_link("l", 0.7)
        flow = net.start_flow([link], 7.0)
        seen = []

        def flap():
            net.set_link_bandwidth(link, 1.4)
            late = net.start_flow([net.add_link("m", 5.0)], 1.0)
            net.set_link_bandwidth(link, 0.7)
            seen.extend([flow.rate, late.rate])

        sim.at(1.3, flap)
        sim.run()
        assert seen == [0.7, 0.0]
        assert flow.finished_at == 10.0


class TestTopology:
    def test_fan_in_serializes_on_nas(self):
        sim = Simulator()
        topo = SwitchedTopology(sim, 4, node_bandwidth=100.0, nas_bandwidth=100.0, latency=0.0)
        flows = [topo.transfer_to_nas(i, 100.0) for i in range(4)]
        sim.run()
        for f in flows:
            assert f.finished_at == pytest.approx(4.0)

    def test_disjoint_peers_run_parallel(self):
        sim = Simulator()
        topo = SwitchedTopology(sim, 4, node_bandwidth=100.0, nas_bandwidth=100.0, latency=0.0)
        flows = [topo.transfer(i, (i + 1) % 4, 100.0) for i in range(4)]
        sim.run()
        for f in flows:
            assert f.finished_at == pytest.approx(1.0)

    def test_core_link_oversubscription(self):
        sim = Simulator()
        topo = SwitchedTopology(
            sim, 4, node_bandwidth=100.0, nas_bandwidth=100.0,
            latency=0.0, core_bandwidth=200.0,
        )
        flows = [topo.transfer(i, (i + 1) % 4, 100.0) for i in range(4)]
        sim.run()
        # 4 flows share the 200 B/s core: 50 B/s each
        for f in flows:
            assert f.finished_at == pytest.approx(2.0)

    def test_nas_to_node_path(self):
        sim = Simulator()
        topo = SwitchedTopology(sim, 2, node_bandwidth=100.0, nas_bandwidth=50.0, latency=0.0)
        f = topo.transfer_from_nas(1, 100.0)
        sim.run()
        assert f.finished_at == pytest.approx(2.0)

    def test_bad_node_index(self):
        sim = Simulator()
        topo = SwitchedTopology(sim, 2)
        with pytest.raises(NetworkError):
            topo.transfer(0, 5, 10.0)

    def test_utilization(self):
        sim = Simulator()
        topo = SwitchedTopology(sim, 2, node_bandwidth=100.0, latency=0.0)
        topo.transfer(0, 1, 1000.0)
        sim.run(until=1.0)
        assert topo.tx[0].utilization == pytest.approx(1.0)
        assert topo.tx[1].utilization == 0.0


class TestClosedForms:
    def test_fan_in_matches_simulation(self):
        # 4 flows of 100B into a 100 B/s bottleneck = 4s
        assert fan_in_time(4, 100.0, 100.0) == pytest.approx(4.0)

    def test_fan_in_sender_cap(self):
        # bottleneck share 25 vs sender cap 10 -> sender-bound
        assert fan_in_time(4, 100.0, 100.0, sender_bandwidth=10.0) == pytest.approx(10.0)

    def test_effective_bandwidth(self):
        assert effective_bandwidth_fan_in(4, 100.0) == 25.0
        assert effective_bandwidth_fan_in(4, 100.0, sender_bandwidth=10.0) == 10.0

    def test_distributed_exchange(self):
        assert distributed_exchange_time(300.0, 100.0) == pytest.approx(3.0)
        assert distributed_exchange_time(300.0, 100.0, 2) == pytest.approx(6.0)

    def test_pairwise(self):
        assert pairwise_time(100.0, 50.0, 100.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fan_in_time(0, 10.0, 10.0)
        with pytest.raises(ValueError):
            distributed_exchange_time(-1.0, 10.0)
        with pytest.raises(ValueError):
            pairwise_time(10.0, 0.0, 10.0)
