"""Tests for the discrete-event core: ordering, cancellation, clocks."""

import math
import random

import pytest

from repro.sim import (
    LATE,
    NORMAL,
    URGENT,
    SimulationError,
    Simulator,
    StopSimulation,
)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_custom_start(self):
        assert Simulator(start=42.0).now == 42.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_priority_orders_same_timestamp(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "late", priority=LATE)
        sim.schedule(1.0, order.append, "normal", priority=NORMAL)
        sim.schedule(1.0, order.append, "urgent", priority=URGENT)
        sim.run()
        assert order == ["urgent", "normal", "late"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_schedule_during_event(self):
        sim = Simulator()
        order = []

        def outer():
            order.append(("outer", sim.now))
            sim.schedule(2.0, lambda: order.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == [("outer", 1.0), ("inner", 3.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_nan_and_inf_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(math.inf, lambda: None)

    def test_at_before_now_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_far_future_events_fire_last_and_in_order(self):
        sim = Simulator()
        order = []
        for far in (1e12, 1e6, 1e9):
            sim.at(far, order.append, far)
        for i in range(200):
            sim.schedule(float(i % 13) + 0.1, order.append, i)
        sim.run()
        assert order[-3:] == [1e6, 1e9, 1e12]
        near = order[:-3]
        assert len(near) == 200
        # near events sorted by their scheduled time, FIFO within ties
        times = [float(t % 13) + 0.1 for t in near]
        assert times == sorted(times)

    def test_astronomical_time_beside_nanosecond_times(self):
        """1e300 beside 1e-9 spacings must schedule and fire in order."""
        sim = Simulator()
        order = []
        sim.at(1e300, order.append, "far")
        for i in range(500):
            sim.schedule((i % 50) * 1e-9 + 1e-9, order.append, i)
        sim.run()
        assert len(order) == 501
        assert order[-1] == "far"
        times = [(i % 50) * 1e-9 + 1e-9 for i in order[:-1]]
        assert times == sorted(times)


class TestAtNonFinite:
    """A NaN compares false against everything and would corrupt the
    queue's total order, so ``at()`` must reject non-finite times."""

    def test_at_rejects_nan(self):
        with pytest.raises(SimulationError, match="non-finite"):
            Simulator().at(math.nan, lambda: None)

    def test_at_rejects_inf(self):
        with pytest.raises(SimulationError, match="non-finite"):
            Simulator().at(math.inf, lambda: None)

    def test_queue_usable_after_rejection(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.at(math.nan, lambda: None)
        fired = []
        sim.at(1.0, fired.append, "ok")
        sim.run()
        assert fired == ["ok"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled and not handle.fired
        assert sim._cancelled == 1

    def test_pending_transitions(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert not (handle.fired or handle.cancelled)
        sim.run()
        assert handle.fired and not handle.cancelled

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cancelled_pending_equals_buried_count(self, seed):
        """The cancelled-entry count must equal the number of cancelled
        entries physically buried in the heap at every point of a random
        schedule/cancel/run interleaving (compactions included)."""
        rng = random.Random(seed)
        sim = Simulator()
        sim.COMPACT_MIN_CANCELLED = 8  # instance override: compact often
        handles = []
        live = []
        for _ in range(40):
            for _ in range(rng.randrange(1, 30)):
                live.append(
                    sim.schedule(
                        rng.random() * 50.0,
                        lambda: None,
                        priority=rng.choice((URGENT, NORMAL, LATE)),
                    )
                )
                handles.append(live[-1])
            for _ in range(rng.randrange(0, 30)):
                if live:
                    live.pop(rng.randrange(len(live))).cancel()
            sim.run(max_events=rng.randrange(0, 6))
            live = [h for h in live if not (h.cancelled or h.fired)]
            buried = sum(1 for e in sim._heap if e[3].cancelled)
            assert sim._cancelled == buried
            assert sim.heap_size - buried == sum(
                not (h.cancelled or h.fired) for h in handles
            )
        assert sim.compactions > 0
        sim.run()
        assert sim.heap_size == 0
        assert sim._cancelled == 0


class TestRun:
    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=4.0) == 4.0
        assert sim.now == 4.0
        # remaining event still fires later
        assert sim.run() == 10.0

    def test_run_empty_queue_until(self):
        sim = Simulator()
        assert sim.run(until=7.0) == 7.0

    def test_max_events(self):
        sim = Simulator()
        count = []
        for i in range(10):
            sim.schedule(float(i + 1), count.append, i)
        sim.run(max_events=3)
        assert len(count) == 3

    def test_stop_simulation_halts_immediately(self):
        sim = Simulator()
        seen = []

        def stopper():
            seen.append("stop")
            raise StopSimulation

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, seen.append, "after")
        sim.run()
        assert seen == ["stop"]

    def test_run_not_reentrant(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, nested)
        sim.run()

    def test_event_count(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.event_count == 4

    def test_exception_propagates_out_of_run(self):
        sim = Simulator()

        def boom():
            raise ValueError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(ValueError, match="boom"):
            sim.run()


class TestInstantEnd:
    """``at_instant_end``: once per instant, after its last event and
    before the clock moves; never an event of its own."""

    def _log(self, sim, log, tag):
        def fn():
            log.append((tag, sim.now))
        return fn

    def test_fires_after_the_instants_events_before_the_clock_moves(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("a", sim.now))
            sim.at_instant_end(self._log(sim, log, "end"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, self._log(sim, log, "b"))
        sim.schedule(2.0, self._log(sim, log, "c"))
        sim.run()
        assert log == [("a", 1.0), ("b", 1.0), ("end", 1.0), ("c", 2.0)]
        assert sim.event_count == 3

    def test_fires_when_the_queue_drains_and_at_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: sim.at_instant_end(self._log(sim, log, "drain")))
        assert sim.run() == 1.0
        sim.schedule(1.0, lambda: sim.at_instant_end(self._log(sim, log, "until")))
        sim.schedule(5.0, lambda: None)
        assert sim.run(until=3.0) == 3.0
        assert log == [("drain", 1.0), ("until", 2.0)]

    def test_events_a_hook_schedules_at_now_run_in_the_same_instant(self):
        sim = Simulator()
        log = []

        def hook():
            log.append(("hook", sim.now))
            sim.schedule(0.0, self._log(sim, log, "echo"))
            sim.at_instant_end(self._log(sim, log, "end2"))

        sim.schedule(1.0, lambda: sim.at_instant_end(hook))
        sim.schedule(2.0, self._log(sim, log, "later"))
        sim.run()
        assert log == [("hook", 1.0), ("echo", 1.0), ("end2", 1.0), ("later", 2.0)]

    @pytest.mark.parametrize("stop", ["max_events", "StopSimulation"])
    def test_a_run_cut_mid_instant_leaves_the_hook_pending(self, stop):
        sim = Simulator()
        log = []

        def first():
            sim.at_instant_end(self._log(sim, log, "end"))
            if stop == "StopSimulation":
                raise StopSimulation

        sim.schedule(1.0, first)
        sim.schedule(1.0, self._log(sim, log, "b"))
        sim.run(max_events=1 if stop == "max_events" else None)
        assert log == []
        sim.run()
        assert log == [("b", 1.0), ("end", 1.0)]
