"""Discrete-event simulation core.

The engine executes callbacks scheduled at absolute simulated times in
nondecreasing time order.  Ties are broken first by an integer
*priority* (lower runs first) and then by insertion order, which makes
runs fully deterministic for a fixed seed.

Two programming styles sit on top of this module:

* callback style — :meth:`Simulator.schedule` / :meth:`Simulator.at`
* process style — generator coroutines driven by :mod:`repro.sim.process`

The engine deliberately knows nothing about processes; it only fires
:class:`EventHandle` callbacks.  This keeps the hot loop small, which
matters for the Monte-Carlo validation runs and the 10k-node scale
scenarios that execute millions of events.

Internal structure
------------------
The pending set is one binary heap of plain ``(time, priority, seq,
handle)`` tuples, so pops deliver the ``(time, priority, seq)`` total
order by construction.  Anything more elaborate has to win on the
end-to-end benchmark first (``docs/performance.md`` records one
structure that did not).

Cancellation is lazy: cancelled entries are dropped when they surface
at the top of the heap, or wholesale by an amortized O(n) compaction
sweep.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable

__all__ = [
    "EventHandle",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "URGENT",
    "NORMAL",
    "LATE",
]

#: Priority for bookkeeping callbacks that must run before same-time work.
URGENT = 0
#: Default priority.
NORMAL = 1
#: Priority for observers that must see the post-state of a timestamp.
LATE = 2

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for structural misuse of the simulator (e.g. time travel)."""


class StopSimulation(Exception):
    """Raised inside a callback to halt :meth:`Simulator.run` immediately."""


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    Instances are returned by :meth:`Simulator.schedule`; user code should
    treat them as opaque except for :meth:`cancel` and :attr:`time`.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "_sim")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple,
                 sim: "Simulator | None" = None):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent; a no-op if the
        event already fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<EventHandle t={self.time:.6g} {name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start:
        Initial value of the simulated clock (seconds by convention
        throughout this package).

    Notes
    -----
    The clock only moves when :meth:`run` executes events;
    scheduling is side-effect free.  All times are floats in seconds.
    """

    #: Lazy-deletion compaction: cancelled entries stay buried in the queue
    #: until at least this many have accumulated *and* they make up half
    #: the pending set; then one O(n) sweep evicts them all.  Amortized,
    #: every queue operation stays O(log live) even under cancel-heavy
    #: schedules (the flow allocator cancels/reschedules completions
    #: constantly).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, start: float = 0.0, probe: Any = None):
        self._now = float(start)
        # the pending set: a heap of (time, priority, seq, handle) tuples
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        self._event_count = 0
        self._cancelled = 0
        self._compactions = 0
        self._probe = probe

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def attach_probe(self, probe: Any) -> None:
        """Attach a telemetry probe; it observes every executed event.

        The hot loop guards on ``probe is not None and probe.enabled``,
        so an absent or disabled probe costs one attribute check per
        event (counted in ``tests/test_telemetry.py``).
        """
        self._probe = probe

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Number of callbacks executed so far (for tests/diagnostics)."""
        return self._event_count

    @property
    def heap_size(self) -> int:
        """Entries currently pending, including lazily-deleted ones."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """Queue sweeps performed to evict cancelled entries."""
        return self._compactions

    def _note_cancel(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Sweep cancelled entries out of the heap.

        Entries are totally ordered by ``(time, priority, seq)``, so the
        re-heapified subset pops in exactly the order the original queue
        would have delivered it — compaction never changes execution
        order, only memory and pop cost.  The heap is filtered *in
        place*: the run loop holds a direct reference to the list.
        """
        heap = self._heap
        heap[:] = [e for e in heap if not e[3].cancelled]
        heapify(heap)
        self._cancelled = 0
        self._compactions += 1

    def _push(self, time: float, priority: int, handle: EventHandle) -> None:
        heappush(self._heap, (time, priority, next(self._seq), handle))

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be nonnegative and finite; zero-delay events run at
        the current timestamp after the currently executing callback
        returns, ordered by ``priority`` then FIFO.
        """
        if not (delay >= 0.0) or delay == _INF:
            raise SimulationError(f"invalid delay {delay!r}; must be finite and >= 0")
        time = self._now + delay
        handle = EventHandle(time, fn, args, self)
        self._push(time, priority, handle)
        return handle

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if not (time >= self._now) or time == _INF:
            # the compound guard also rejects NaN (all comparisons false),
            # which would otherwise corrupt the queue's total order
            if math.isnan(time) or time == _INF:
                raise SimulationError(
                    f"cannot schedule at non-finite time {time!r}"
                )
            raise SimulationError(
                f"cannot schedule at t={time:.6g} before now={self._now:.6g}"
            )
        handle = EventHandle(time, fn, args, self)
        self._push(time, priority, handle)
        return handle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float = math.inf, max_events: int | None = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the simulated time at which execution stopped.  When the
        queue drains the clock stays at the last executed event; when
        ``until`` is hit the clock is advanced to exactly ``until``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        # the heap is only ever mutated in place (compaction), so
        # one binding stays valid across callbacks
        heap = self._heap
        try:
            while True:
                if not heap:
                    # queue drained
                    if until != _INF and until > self._now:
                        self._now = until
                    break
                entry = heap[0]
                handle = entry[3]
                if handle.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if time > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(heap)
                self._now = time
                handle.fired = True
                self._event_count += 1
                try:
                    handle.fn(*handle.args)
                except StopSimulation:
                    break
                if self._probe is not None and self._probe.enabled:
                    self._probe.sim_event(len(heap))
                executed += 1
        finally:
            self._running = False
        return self._now

    # ------------------------------------------------------------------
    # process-style convenience (implemented in repro.sim.process)
    # ------------------------------------------------------------------
    def process(self, generator) -> "Any":
        """Spawn a generator coroutine as a simulation process.

        Thin convenience wrapper; see :class:`repro.sim.process.Process`.
        """
        from .process import Process

        return Process(self, generator)

    def timeout(self, delay: float, value: Any = None) -> "Any":
        """Create a :class:`repro.sim.process.Timeout` event."""
        from .process import Timeout

        return Timeout(self, delay, value)

    def event(self) -> "Any":
        """Create an untriggered :class:`repro.sim.process.SimEvent`."""
        from .process import SimEvent

        return SimEvent(self)

    def run_process(self, process, until: float = math.inf) -> Any:
        """Run ``process`` to completion and return its value.

        ``process`` is a generator, spawned here, or an already started
        :class:`repro.sim.process.Process`.  Its exception is re-raised.
        If the run stops (the queue drains or ``until`` is reached) with
        the process still waiting, that raises :class:`SimulationError`
        naming it instead of returning a quiet ``None``.  Only the
        process is spawned; :meth:`run` does the rest unchanged.
        """
        from .process import Process

        if not isinstance(process, Process):
            process = Process(self, process)
        self.run(until=until)
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} never finished: the run stopped "
                f"at t={self._now:.6g} while it was still waiting "
                "(deadlock, or `until` came first)"
            )
        if process.ok is False:
            raise process.value
        return process.value
