"""Property-based tests for the simulation engine and network substrate.

These guard the foundations everything else stands on: event ordering,
process determinism, max-min allocation feasibility, and byte
conservation under randomized workloads.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GlobalFillNetwork
from repro.network import Network
from repro.sim import Simulator


class TestEngineOrdering:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_execution_is_time_sorted(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=100,
        )
    )
    def test_priority_within_timestamp(self, entries):
        sim = Simulator()
        fired = []
        for i, (t, prio) in enumerate(entries):
            sim.schedule(t, lambda t=t, p=prio, i=i: fired.append((sim.now, p, i)),
                         priority=prio)
        sim.run()
        # within equal time, priority nondecreasing; within equal
        # (time, priority), insertion order preserved
        for a, b in zip(fired, fired[1:]):
            assert a[0] <= b[0]
            if a[0] == b[0]:
                assert a[1] <= b[1]
                if a[1] == b[1]:
                    assert a[2] < b[2]

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=0, max_value=29),
    )
    def test_cancellation_removes_exactly_one(self, delays, cancel_idx):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(d, lambda k=k: fired.append(k))
            for k, d in enumerate(delays)
        ]
        cancel_idx = cancel_idx % len(handles)
        handles[cancel_idx].cancel()
        sim.run()
        assert cancel_idx not in fired
        assert len(fired) == len(delays) - 1


class TestProcessDeterminism:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_identical_runs_for_identical_seeds(self, seed, n_workers):
        def build():
            rng = np.random.default_rng(seed)
            sim = Simulator()
            log = []

            def worker(name):
                for _ in range(5):
                    yield sim.timeout(float(rng.random()))
                    log.append((round(sim.now, 9), name))

            for w in range(n_workers):
                sim.process(worker(w))
            sim.run()
            return log

        assert build() == build()


class TestNetworkProperties:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_allocation_never_oversubscribes_links(self, data):
        """At every reallocation instant, Σ flow rates on a link ≤ its
        bandwidth (progressive filling feasibility)."""
        sim = Simulator()
        net = Network(sim)
        n_links = data.draw(st.integers(1, 4))
        for i in range(n_links):
            net.add_link(f"l{i}", bandwidth=float(data.draw(st.integers(10, 500))))
        n_flows = data.draw(st.integers(1, 12))
        links = list(net.links.values())
        for k in range(n_flows):
            path_len = data.draw(st.integers(1, n_links))
            idx = data.draw(
                st.lists(st.integers(0, n_links - 1), min_size=path_len,
                         max_size=path_len, unique=True)
            )
            net.start_flow([links[i] for i in idx],
                           float(data.draw(st.integers(1, 1000))))
        # step through the run, checking feasibility after every event
        while sim.heap_size:
            sim.run(max_events=1)
            for link in links:
                total = sum(f.rate for f in link.flows)
                assert total <= link.bandwidth * (1 + 1e-9)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_all_flows_complete_and_conserve_bytes(self, data):
        sim = Simulator()
        net = Network(sim)
        for i in range(3):
            net.add_link(f"l{i}", bandwidth=float(data.draw(st.integers(10, 200))))
        flows = []
        sizes = data.draw(
            st.lists(st.integers(1, 500), min_size=1, max_size=10)
        )
        links = list(net.links.values())
        for s in sizes:
            k = data.draw(st.integers(0, 2))
            flows.append(net.start_flow([links[k]], float(s)))
        sim.run()
        for f, s in zip(flows, sizes):
            assert f.ok
            assert f.size == s


class _EagerNetwork(Network):
    """The per-change allocator the end-of-instant settle replaced:
    every start, finish and link change refills its components at once,
    rescheduling completions that later changes in the same instant
    cancel again."""

    def _reallocate(self, dirty_links):
        self._dirty.update(dict.fromkeys(dirty_links))
        self._settle()


class _CheckedNetwork(Network):
    """Records every settle's rates and checks them against one
    from-scratch fill over all active flows."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trajectory = []

    def _settle(self):
        super()._settle()
        active = list(self._active)
        exact = self._fill(active) if active else {}
        for f in active:
            assert f.rate == exact[f], (f.label, f.rate, exact[f])
        self.trajectory.append(
            (self.sim.now.hex(), [(f.label, f.rate.hex()) for f in active])
        )


class _CheckedGlobalFillNetwork(GlobalFillNetwork, _CheckedNetwork):
    """The checked settle over one global component: the oracle."""


#: one burst: (instant, [op, ...]); ops are drawn as plain tuples so the
#: same schedule replays on every allocator
_OPS = st.one_of(
    st.tuples(st.just("start"), st.lists(st.integers(0, 3), min_size=1,
                                         max_size=3, unique=True),
              st.integers(0, 400)),
    st.tuples(st.just("abort"), st.integers(0, 30), st.booleans()),
    st.tuples(st.just("bandwidth"), st.integers(0, 3), st.integers(5, 300)),
    st.tuples(st.just("up"), st.integers(0, 3), st.booleans()),
)
_BURSTS = st.lists(
    st.tuples(st.integers(0, 6), st.lists(_OPS, min_size=1, max_size=6)),
    min_size=1, max_size=8,
)


def _replay(cls, bandwidths, latencies, bursts):
    sim = Simulator()
    net = cls(sim)
    links = [
        net.add_link(f"l{i}", bandwidth=float(bw), latency=lat)
        for i, (bw, lat) in enumerate(zip(bandwidths, latencies))
    ]
    flows = []

    def burst(ops):
        for op in ops:
            if op[0] == "start":
                path = dict.fromkeys(links[i % len(links)] for i in op[1])
                flows.append(net.start_flow(list(path), float(op[2])))
            elif op[0] == "abort" and flows:
                flows[op[1] % len(flows)].abort(transient=op[2])
            elif op[0] == "bandwidth":
                net.set_link_bandwidth(links[op[1] % len(links)], float(op[2]))
            elif op[0] == "up":
                net.set_link_up(links[op[1] % len(links)], op[2])

    for at, ops in bursts:
        # an instant is a quarter second: bursts sharing one are separate
        # events at the same time
        sim.at(at * 0.25, burst, ops)
    sim.run()
    return sim, net, flows


class TestEndOfInstantSettle:
    """Random same-instant bursts of starts, aborts, bandwidth changes
    and link flaps, replayed on each allocator."""

    @given(
        bandwidths=st.lists(st.integers(10, 500), min_size=1, max_size=4),
        latencies=st.lists(st.sampled_from([0.0, 0.25]), min_size=4, max_size=4),
        bursts=_BURSTS,
    )
    @settings(max_examples=60, deadline=None)
    def test_settle_is_exact_allocator_blind_and_event_neutral(
        self, bandwidths, latencies, bursts
    ):
        runs = {
            cls: _replay(cls, bandwidths, latencies, bursts)
            for cls in (_CheckedNetwork, _CheckedGlobalFillNetwork)
        }
        (sim_i, net_i, flows_i), (sim_r, net_r, flows_r) = runs.values()
        # the two allocators: bit-identical rate trajectories and ends
        assert net_i.trajectory == net_r.trajectory
        assert [f.finished_at for f in flows_i] == [f.finished_at for f in flows_r]
        assert [f.ok for f in flows_i] == [f.ok for f in flows_r]
        assert sim_i.event_count == sim_r.event_count
        # every flow ended (no flow waits on a downed link: flapping one
        # aborts its flows), and each settle matched a global fill
        # (checked inside _CheckedNetwork._settle)
        assert all(f.triggered for f in flows_i)
        # the per-change allocator executes exactly as many events: the
        # completions it cancels and reschedules mid-instant never run
        sim_e, _, flows_e = _replay(
            _EagerNetwork, bandwidths, latencies, bursts
        )
        assert sim_e.event_count == sim_i.event_count
        assert [f.ok for f in flows_e] == [f.ok for f in flows_i]
