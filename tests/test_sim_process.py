"""Tests for generator processes: waits, joins, interrupts, conditions."""

import pytest

from repro.sim import (
    AllOf,
    Interrupt,
    ProcessError,
    SimulationError,
    Simulator,
)


class TestRunProcess:
    """``Simulator.run_process``, the one run-to-completion primitive."""

    def test_returns_the_value_of_a_finished_process(self, sim):
        def proc():
            yield sim.timeout(2.0)
            return "done"

        assert sim.run_process(proc()) == "done"
        assert sim.now == 2.0

    def test_reraises_the_process_failure(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            sim.run_process(proc())

    def test_until_reached_while_running_raises(self, sim):
        def slow():
            yield sim.timeout(10.0)

        with pytest.raises(SimulationError, match=r"'slow' never finished.*t=5"):
            sim.run_process(slow(), until=5.0)
        assert sim.now == 5.0

    def test_accepts_a_started_process(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return 7

        started = sim.process(proc())
        assert sim.run_process(started, until=3.0) == 7
        assert sim.now == 3.0


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(5.0)
            return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_timeout_value(self, sim):
        def proc():
            got = yield sim.timeout(1.0, value="payload")
            return got

        assert sim.run_process(proc()) == "payload"

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            yield sim.timeout(3.0)
            return sim.now

        assert sim.run_process(proc()) == 6.0

    def test_zero_timeout_allowed(self, sim):
        def proc():
            yield sim.timeout(0.0)
            return "done"

        assert sim.run_process(proc()) == "done"


class TestEvents:
    def test_wait_for_event_value(self, sim):
        ev = sim.event()

        def waiter():
            got = yield ev
            return got

        def trigger():
            yield sim.timeout(2.0)
            ev.succeed(99)

        p = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert p.value == 99
        assert sim.now == 2.0

    def test_event_failure_raises_in_waiter(self, sim):
        ev = sim.event()

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                return f"caught {exc}"

        def trigger():
            yield sim.timeout(1.0)
            ev.fail(ValueError("bad"))

        p = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert p.value == "caught bad"

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(ProcessError):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        with pytest.raises(ProcessError):
            sim.event().fail("not an exception")

    def test_waiting_on_already_triggered_event(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run()  # let callbacks drain

        def waiter():
            got = yield ev
            return got

        assert sim.run_process(waiter()) == "early"

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(ProcessError):
            _ = sim.event().value

    def test_run_process_reports_a_wait_nobody_ends(self, sim):
        """The queue drains with the process still parked on an event
        nobody triggers: a deadlock, not a ``None`` result."""

        def stuck_waiter():
            yield sim.event()

        with pytest.raises(SimulationError, match="stuck_waiter"):
            sim.run_process(stuck_waiter())


class TestJoin:
    def test_join_returns_child_value(self, sim):
        def child():
            yield sim.timeout(3.0)
            return "result"

        def parent():
            got = yield sim.process(child())
            return (got, sim.now)

        assert sim.run_process(parent()) == ("result", 3.0)

    def test_child_exception_propagates_to_parent(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("child died")

        def parent():
            try:
                yield sim.process(child())
            except RuntimeError as exc:
                return str(exc)

        assert sim.run_process(parent()) == "child died"

    def test_unhandled_child_exception_fails_process(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled")

        p = sim.process(child())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()
        assert p.ok is False
        assert isinstance(p.value, RuntimeError)

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield 42

        p = sim.process(bad())
        with pytest.raises(ProcessError, match="non-event"):
            sim.run()
        assert p.ok is False
        assert isinstance(p.value, ProcessError)

    def test_unjoined_failure_stops_the_run_at_its_instant(self, sim):
        """Nothing fails silently: a failure nobody waits on propagates
        out of ``run`` when it happens, and later events do not run."""
        later = []

        def child():
            yield sim.timeout(2.0)
            raise ValueError("nobody joins me")

        sim.process(child())
        sim.schedule(5.0, later.append, "ran")
        with pytest.raises(ValueError, match="nobody joins me"):
            sim.run()
        assert sim.now == 2.0
        assert later == []


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        p = sim.process(victim())

        def killer():
            yield sim.timeout(5.0)
            p.interrupt("reason")

        sim.process(killer())
        sim.run()
        assert p.value == ("interrupted", "reason", 5.0)

    def test_interrupt_finished_process_is_noop(self, sim):
        def quick():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(quick())
        sim.run()
        p.interrupt("too late")
        sim.run()
        assert p.value == "done"

    def test_uncaught_interrupt_ends_process_cleanly(self, sim):
        def victim():
            yield sim.timeout(100.0)

        p = sim.process(victim())
        sim.schedule(1.0, lambda: p.interrupt())
        sim.run()
        assert p.ok is True
        assert p.value is None

    def test_abandoned_event_wakeup_ignored(self, sim):
        """After an interrupt, the original event firing must not resume
        the process a second time."""
        trace = []

        def victim():
            try:
                yield sim.timeout(10.0)
                trace.append("timeout-completed")
            except Interrupt:
                trace.append("interrupted")
                yield sim.timeout(20.0)
                trace.append("after")

        p = sim.process(victim())
        sim.schedule(1.0, lambda: p.interrupt())
        sim.run()
        assert trace == ["interrupted", "after"]
        assert sim.now == 21.0


class TestConditions:
    def test_allof_waits_for_all(self, sim):
        def worker(d):
            yield sim.timeout(d)
            return d

        def parent():
            got = yield AllOf(sim, [sim.process(worker(3.0)), sim.process(worker(1.0))])
            return (got, sim.now)

        values, t = sim.run_process(parent())
        assert t == 3.0
        assert values == {0: 3.0, 1: 1.0}

    def test_allof_empty_succeeds_immediately(self, sim):
        def parent():
            got = yield AllOf(sim, [])
            return got

        assert sim.run_process(parent()) == {}

    def test_allof_fails_fast(self, sim):
        def ok():
            yield sim.timeout(10.0)

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("fail fast")

        def parent():
            try:
                yield AllOf(sim, [sim.process(ok()), sim.process(bad())])
            except ValueError:
                return sim.now

        assert sim.run_process(parent()) == 1.0


class TestDeterminism:
    def test_runs_are_identical(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(name, delays):
                for d in delays:
                    yield sim.timeout(d)
                    log.append((sim.now, name))

            sim.process(worker("a", [1, 2, 1]))
            sim.process(worker("b", [2, 1, 1]))
            sim.process(worker("c", [1, 1, 2]))
            sim.run()
            return log

        assert build_and_run() == build_and_run()
