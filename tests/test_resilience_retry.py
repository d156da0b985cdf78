"""Retry/backoff transfer policies: budgets, jitter, classification."""

import numpy as np
import pytest

from repro.network import Network, NetworkError
from repro.network.link import TransientNetworkError
from repro.resilience import DEFAULT_RETRY, RetryExhausted, RetryPolicy, retrying_transfer
from repro.telemetry import Probe


def _counter(probe, name):
    snap = probe.metrics.snapshot()
    fam = snap.get(name)
    if fam is None:
        return 0.0
    return sum(s["value"] for s in fam["series"])


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=-1.0)

    def test_backoff_grows_geometrically_to_cap(self):
        p = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        assert p.backoff_delay(1) == pytest.approx(0.1)
        assert p.backoff_delay(2) == pytest.approx(0.2)
        assert p.backoff_delay(3) == pytest.approx(0.4)
        assert p.backoff_delay(4) == pytest.approx(0.5)  # capped
        assert p.backoff_delay(10) == pytest.approx(0.5)

    def test_jitter_spreads_within_band_and_is_seeded(self):
        p = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.5)
        rng = np.random.default_rng(7)
        draws = [p.backoff_delay(1, rng) for _ in range(50)]
        assert all(0.5 <= d <= 1.5 for d in draws)
        assert len(set(draws)) > 1  # actually jittered
        rng2 = np.random.default_rng(7)
        again = [p.backoff_delay(1, rng2) for _ in range(50)]
        assert draws == again  # deterministic in the rng

    def test_no_rng_means_midpoint(self):
        p = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0, jitter=0.5)
        assert p.backoff_delay(1) == pytest.approx(1.0)

    def test_exhausted_is_network_error_but_not_transient(self):
        exc = RetryExhausted("x", 3, None)
        assert isinstance(exc, NetworkError)
        assert not isinstance(exc, TransientNetworkError)


class TestRetryingTransfer:
    def _net(self, sim):
        net = Network(sim)
        net.add_link("l", bandwidth=100.0)
        return net

    def test_clean_transfer_is_single_attempt(self, sim):
        net = self._net(sim)
        calls = []

        def make_flow():
            calls.append(sim.now)
            return net.start_flow([net.links["l"]], 100.0)

        def driver():
            flow = yield from retrying_transfer(sim, make_flow, DEFAULT_RETRY)
            return flow

        flow = sim.run_process(driver())
        assert flow.ok and len(calls) == 1

    def test_recovers_after_transient_aborts(self, sim):
        net = self._net(sim)
        probe = Probe()
        flows = []

        def make_flow():
            flow = net.start_flow([net.links["l"]], 100.0)
            flows.append(flow)
            if len(flows) <= 2:  # first two attempts are doomed
                sim.schedule(0.1, flow.abort, "blip", True)
            return flow

        policy = RetryPolicy(max_attempts=5, base_delay=0.05, jitter=0.0)

        def driver():
            return (yield from retrying_transfer(
                sim, make_flow, policy, probe=probe
            ))

        flow = sim.run_process(driver())
        assert flow is flows[2] and flow.ok
        assert _counter(probe, "repro_resilience_retries_total") == 2
        assert _counter(probe, "repro_resilience_recovered_transfers_total") == 1

    def test_budget_exhaustion_raises_classified_error(self, sim):
        net = self._net(sim)
        probe = Probe()

        def make_flow():
            flow = net.start_flow([net.links["l"]], 100.0)
            sim.schedule(0.05, flow.abort, "blip", True)
            return flow

        policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)

        def driver():
            yield from retrying_transfer(sim, make_flow, policy, label="doomed")

        with pytest.raises(RetryExhausted) as err:
            sim.run_process(driver())
        assert err.value.attempts == 3
        assert "doomed" in str(err.value)
        assert _counter(probe, "repro_resilience_retry_exhausted_total") == 0
        # (probe wasn't passed above; now verify the counter fires when it is)
        sim2 = type(sim)()
        net2 = Network(sim2)
        net2.add_link("l", bandwidth=100.0)

        def make_flow2():
            flow = net2.start_flow([net2.links["l"]], 100.0)
            sim2.schedule(0.05, flow.abort, "blip", True)
            return flow

        def driver2():
            yield from retrying_transfer(sim2, make_flow2, policy, probe=probe)

        proc = sim2.process(driver2())
        with pytest.raises(RetryExhausted):
            sim2.run()
        assert proc.ok is False and isinstance(proc.value, RetryExhausted)
        assert _counter(probe, "repro_resilience_retry_exhausted_total") == 1

    def test_fatal_abort_passes_straight_through(self, sim):
        net = self._net(sim)
        attempts = []

        def make_flow():
            flow = net.start_flow([net.links["l"]], 100.0)
            attempts.append(flow)
            sim.schedule(0.05, flow.abort, "node crashed", False)
            return flow

        def driver():
            yield from retrying_transfer(sim, make_flow, DEFAULT_RETRY)

        with pytest.raises(NetworkError, match="node crashed"):
            sim.run_process(driver())
        assert len(attempts) == 1  # no retry of a fatal failure

    def test_deadline_stops_before_attempt_budget(self, sim):
        net = self._net(sim)

        def make_flow():
            flow = net.start_flow([net.links["l"]], 100.0)
            sim.schedule(0.5, flow.abort, "blip", True)
            return flow

        policy = RetryPolicy(
            max_attempts=100, base_delay=1.0, multiplier=1.0,
            max_delay=1.0, jitter=0.0, deadline=2.0,
        )

        def driver():
            yield from retrying_transfer(sim, make_flow, policy)

        with pytest.raises(RetryExhausted):
            sim.run_process(driver())
        assert sim.now < 3.0  # gave up near the deadline, not after 100 tries

    def test_attempt_timeout_escapes_stragglers(self, sim):
        net = self._net(sim)
        net.add_link("slow", bandwidth=1.0)
        probe = Probe()
        attempts = []

        def make_flow():
            # first attempt crawls on the slow link; the retry takes the
            # fast one (the straggling path recovered)
            link = net.links["slow" if not attempts else "l"]
            flow = net.start_flow([link], 100.0)
            attempts.append(flow)
            return flow

        policy = RetryPolicy(
            max_attempts=3, base_delay=0.01, jitter=0.0, attempt_timeout=5.0
        )

        def driver():
            return (yield from retrying_transfer(
                sim, make_flow, policy, probe=probe
            ))

        flow = sim.run_process(driver())
        assert flow is attempts[1] and flow.ok
        assert sim.now < 100.0  # did not wait out the straggler
        assert _counter(probe, "repro_resilience_attempt_timeouts_total") == 1

    def test_timeout_guard_cancelled_on_success(self, sim):
        net = self._net(sim)
        policy = RetryPolicy(attempt_timeout=100.0)

        def driver():
            return (yield from retrying_transfer(
                sim, lambda: net.start_flow([net.links["l"]], 100.0), policy
            ))

        flow = sim.run_process(driver())
        assert flow.ok
        assert sim.now == pytest.approx(1.0)  # no stray 100 s event ran
