"""Property-based tests for the simulation engine and network substrate.

These guard the foundations everything else stands on: event ordering,
process determinism, max-min allocation feasibility, and byte
conservation under randomized workloads.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
