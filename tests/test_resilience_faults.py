"""Transient faults: schedules, the injector, and network cleanliness.

The last class is the residual-capacity regression suite: every way a
transfer can die must leave every link with zero allocated bandwidth
and an empty flow set (a leak here silently throttles every later
epoch).
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, VirtualCluster
from repro.core import dvdc
from repro.network import Network, NetworkError
from repro.network.link import TransientNetworkError
from repro.network.topology import SwitchedTopology
from repro.resilience import (
    TransientFault,
    TransientFaultInjector,
    TransientFaultSchedule,
    corrupt_node_state,
)


class TestTransientFault:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            TransientFault(time=0.0, node_id=0, kind="meteor")
        with pytest.raises(ValueError, match="time"):
            TransientFault(time=-1.0, node_id=0, kind="flap")
        with pytest.raises(ValueError, match="duration"):
            TransientFault(time=0.0, node_id=0, kind="flap", duration=-0.1)
        with pytest.raises(ValueError, match="severity"):
            TransientFault(time=0.0, node_id=0, kind="degrade", severity=0.0)
        with pytest.raises(ValueError, match="severity"):
            TransientFault(time=0.0, node_id=0, kind="degrade", severity=1.5)


class TestScheduleDraw:
    def test_draw_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="node"):
            TransientFaultSchedule.draw(rng, n_nodes=0, horizon=10.0, rate=0.1)
        with pytest.raises(ValueError, match="horizon"):
            TransientFaultSchedule.draw(rng, n_nodes=4, horizon=0.0, rate=0.1)
        with pytest.raises(ValueError, match="horizon"):
            TransientFaultSchedule.draw(rng, n_nodes=4, horizon=-5.0, rate=0.1)
        with pytest.raises(ValueError, match="rate"):
            TransientFaultSchedule.draw(rng, n_nodes=4, horizon=10.0, rate=0.0)
        with pytest.raises(ValueError, match="non-empty"):
            TransientFaultSchedule.draw(
                rng, n_nodes=4, horizon=10.0, rate=0.1, kinds=()
            )
        with pytest.raises(ValueError, match="unknown fault kind"):
            TransientFaultSchedule.draw(
                rng, n_nodes=4, horizon=10.0, rate=0.1, kinds=("flap", "meteor")
            )

    def test_draw_is_deterministic_in_the_seed(self):
        a = TransientFaultSchedule.draw(
            np.random.default_rng(42), n_nodes=4, horizon=100.0, rate=0.1
        )
        b = TransientFaultSchedule.draw(
            np.random.default_rng(42), n_nodes=4, horizon=100.0, rate=0.1
        )
        assert a.events == b.events
        assert len(a) > 0

    def test_draw_respects_bounds_and_order(self):
        sched = TransientFaultSchedule.draw(
            np.random.default_rng(7), n_nodes=4, horizon=200.0, rate=0.2,
            kinds=("flap", "degrade"), min_severity=0.3,
        )
        times = [e.time for e in sched.events]
        assert times == sorted(times)
        for e in sched.events:
            assert 0 <= e.time <= 200.0
            assert e.kind in ("flap", "degrade")
            assert e.duration >= 0
            assert 0.3 <= e.severity < 1.0
            assert 0 <= e.node_id < 4


class TestInjector:
    def _arm(self, sim, events, n_nodes=4):
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
        inj = TransientFaultInjector(
            sim, cluster, TransientFaultSchedule(events=list(events))
        )
        inj.start()
        return cluster, inj

    def test_overlapping_flaps_are_refcounted(self, sim):
        # flap A: [1, 4); flap B: [2, 6) — NIC must stay down until 6
        cluster, inj = self._arm(sim, [
            TransientFault(time=1.0, node_id=0, kind="flap", duration=3.0),
            TransientFault(time=2.0, node_id=0, kind="flap", duration=4.0),
        ])
        link = cluster.topology.tx[0]
        seen = {}
        for t in (0.5, 1.5, 4.5, 6.5):
            sim.at(t, lambda t=t: seen.setdefault(t, link.up))
        sim.run()
        assert seen == {0.5: True, 1.5: False, 4.5: False, 6.5: True}

    def test_overlapping_degrades_restore_only_at_the_end(self, sim):
        cluster, inj = self._arm(sim, [
            TransientFault(time=1.0, node_id=1, kind="degrade",
                           duration=3.0, severity=0.5),
            TransientFault(time=2.0, node_id=1, kind="degrade",
                           duration=4.0, severity=0.25),
        ])
        link = cluster.topology.tx[1]
        nominal = link.nominal_bandwidth
        seen = {}
        for t in (1.5, 2.5, 4.5, 6.5):
            sim.at(t, lambda t=t: seen.setdefault(t, link.bandwidth))
        sim.run()
        # severity is absolute against nominal, last write wins while
        # degraded; full speed only after the second fault expires
        assert seen[1.5] == pytest.approx(0.5 * nominal)
        assert seen[2.5] == pytest.approx(0.25 * nominal)
        assert seen[4.5] == pytest.approx(0.25 * nominal)
        assert seen[6.5] == pytest.approx(nominal)

    def test_drop_fails_inflight_transfers_transiently(self, sim):
        cluster, inj = self._arm(sim, [
            TransientFault(time=0.5, node_id=0, kind="drop"),
        ])
        topo = cluster.topology

        def driver():
            yield topo.transfer(0, 1, topo.node_bandwidth * 10)

        with pytest.raises(TransientNetworkError, match="dropped"):
            sim.run_process(driver())
        assert all(not lk.flows for lk in topo.network.links.values())

    def test_corrupt_on_empty_node_reports_nothing(self, sim):
        _, inj = self._arm(sim, [
            TransientFault(time=0.1, node_id=2, kind="corrupt"),
        ])
        sim.run()
        assert sim.now == pytest.approx(0.1)  # the fault fired
        assert inj.corrupted == []

    def test_schedule_beyond_cluster_is_rejected(self, sim):
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=2))
        inj = TransientFaultInjector(
            sim, cluster, TransientFaultSchedule(events=[
                TransientFault(time=0.0, node_id=5, kind="flap", duration=1.0),
            ])
        )
        with pytest.raises(ValueError, match="node 5"):
            inj.start()


class TestCorruptNodeState:
    def _checkpointed(self, sim, paper_cluster):
        ck = dvdc(paper_cluster)

        def cycle():
            r = yield from ck.run_cycle()
            assert r.committed
        sim.run_process(cycle())
        return ck

    def _artifact_bytes(self, node):
        parts = [node.parity_store[g].data.reshape(-1).view(np.uint8).copy()
                 for g in sorted(node.parity_store)]
        parts += [node.checkpoint_store[v].payload.reshape(-1).view(np.uint8).copy()
                  for v in sorted(node.checkpoint_store)]
        return np.concatenate(parts) if parts else np.empty(0, np.uint8)

    def test_flips_exactly_one_bit(self, sim, paper_cluster):
        self._checkpointed(sim, paper_cluster)
        node = paper_cluster.node(0)
        before = self._artifact_bytes(node)
        what = corrupt_node_state(paper_cluster, 0, np.random.default_rng(3))
        assert what is not None and ("parity g" in what or "image vm" in what)
        after = self._artifact_bytes(node)
        diff = before ^ after
        assert np.count_nonzero(diff) == 1
        assert bin(int(diff[diff != 0][0])).count("1") == 1

    def test_same_seed_damages_same_byte(self, sim, paper_cluster):
        self._checkpointed(sim, paper_cluster)
        a = corrupt_node_state(paper_cluster, 1, np.random.default_rng(9))
        b = corrupt_node_state(paper_cluster, 1, np.random.default_rng(9))
        assert a == b  # same target selected (the byte heals by double flip)

    def test_dead_node_is_untouchable(self, sim, paper_cluster):
        self._checkpointed(sim, paper_cluster)
        paper_cluster.kill_node(2)
        assert corrupt_node_state(paper_cluster, 2, np.random.default_rng(0)) is None


def _assert_zero_residual(network: Network) -> None:
    """The satellite invariant: no failure path may leak link capacity."""
    for link in network.links.values():
        assert not link.flows, f"{link.name} leaked {link.flows}"
        assert link.utilization == 0.0


class TestZeroResidualCapacity:
    """Every transfer error path must fully release link capacity."""

    def test_fatal_abort_releases_capacity(self, sim):
        topo = SwitchedTopology(sim, 4)
        flow = topo.transfer(0, 1, 1e9)
        sim.schedule(0.5, flow.abort, "endpoint crashed")

        def driver():
            yield flow

        with pytest.raises(NetworkError):
            sim.run_process(driver())
        _assert_zero_residual(topo.network)

    def test_transient_abort_releases_capacity(self, sim):
        topo = SwitchedTopology(sim, 4)
        flow = topo.transfer(0, 1, 1e9)
        sim.schedule(0.5, flow.abort, "blip", True)

        def driver():
            yield flow

        with pytest.raises(TransientNetworkError):
            sim.run_process(driver())
        _assert_zero_residual(topo.network)

    def test_link_down_tears_all_crossing_flows_cleanly(self, sim):
        topo = SwitchedTopology(sim, 4)
        net = topo.network
        errors = []

        def one(src, dst):
            try:
                yield topo.transfer(src, dst, 1e9)
            except NetworkError as exc:
                errors.append(exc)

        for src, dst in [(0, 1), (0, 2), (3, 0), (2, 1)]:
            sim.process(one(src, dst))
        sim.schedule(0.5, topo.set_node_links_up, 0, False)
        sim.run()
        # three flows crossed node 0's NIC and died; (2, 1) completed
        assert len(errors) == 3
        assert all(isinstance(e, TransientNetworkError) for e in errors)
        _assert_zero_residual(net)

    def test_admission_on_down_link_is_clean(self, sim):
        topo = SwitchedTopology(sim, 4)
        topo.set_node_links_up(1, False)

        def driver():
            yield topo.transfer(0, 1, 1e6)

        with pytest.raises(TransientNetworkError, match="down"):
            sim.run_process(driver())
        _assert_zero_residual(topo.network)
        # and the NIC recovers for the next attempt
        topo.set_node_links_up(1, True)

        def retry():
            return (yield topo.transfer(0, 1, 1e6))

        assert sim.run_process(retry()).ok
        _assert_zero_residual(topo.network)

    def test_bandwidth_change_midflight_conserves_allocation(self, sim):
        topo = SwitchedTopology(sim, 4)
        flow = topo.transfer(0, 1, 1e9)
        sim.schedule(0.5, topo.scale_node_bandwidth, 0, 0.25)
        sim.schedule(1.0, topo.scale_node_bandwidth, 0, 1.0)

        def driver():
            return (yield flow)

        assert sim.run_process(driver()).ok
        _assert_zero_residual(topo.network)

    def test_drop_then_survivors_reexpand(self, sim):
        topo = SwitchedTopology(sim, 4)
        net = topo.network
        outcomes = {}

        def one(name, src, dst):
            try:
                outcomes[name] = (yield topo.transfer(src, dst, 1e9))
            except NetworkError as exc:
                outcomes[name] = exc

        # two flows share node 2's rx; dropping node 0's flows must give
        # the survivor the whole NIC back
        sim.process(one("victim", 0, 2))
        sim.process(one("survivor", 1, 2))
        rates = {}
        sim.schedule(0.5, topo.drop_node_flows, 0)
        sim.schedule(
            0.6, lambda: rates.update(
                survivor=max(f.rate for lk in net.links.values() for f in lk.flows)
            )
        )
        sim.run()
        assert isinstance(outcomes["victim"], TransientNetworkError)
        assert outcomes["survivor"].ok
        assert rates["survivor"] == pytest.approx(topo.node_bandwidth)
        _assert_zero_residual(net)

    def test_massacre_leaves_no_residue(self, sim):
        # belt-and-braces: a pile of flows, then every failure mode at once
        topo = SwitchedTopology(sim, 6)
        net = topo.network

        def one(src, dst):
            try:
                yield topo.transfer(src, dst, 1e9)
            except NetworkError:
                pass

        for src in range(6):
            for dst in range(6):
                if src != dst:
                    sim.process(one(src, dst))
        sim.schedule(0.2, topo.set_node_links_up, 0, False)
        sim.schedule(0.3, topo.drop_node_flows, 1)
        sim.schedule(0.4, topo.abort_node_flows, 2)
        sim.schedule(0.5, topo.scale_node_bandwidth, 3, 0.1)
        sim.schedule(0.6, topo.set_node_links_up, 0, True)
        sim.run()
        _assert_zero_residual(net)
