"""Generator-based simulation processes (a small simpy-like layer).

A *process* is a Python generator driven by the event heap in
:mod:`repro.sim.engine`.  Processes ``yield`` awaitables:

* :class:`Timeout` — resume after a simulated delay;
* :class:`SimEvent` — resume when some other actor triggers it;
* another :class:`Process` — resume when it terminates (its return value
  becomes the value of the ``yield`` expression);
* :class:`AllOf` — wait for several events at once.

Failure propagates: if a yielded event *fails* with an exception, the
exception is thrown into the waiting generator, where it can be caught
with ordinary ``try/except``.  A process that fails while nothing waits
on it (no joiner, no :class:`AllOf`, no subscribed callback) re-raises
its exception out of :meth:`Simulator.run` at the failure instant: no
failure is dropped silently.  Processes can also be interrupted from the
outside with :meth:`Process.interrupt`, which raises :class:`Interrupt`
inside them — the mechanism used to model machine crashes killing
in-flight checkpoints and migrations.

A failure leaves no reference cycle behind (see :func:`_unwound`), nor
does one re-raised out of :meth:`Simulator.run` or
:meth:`Simulator.run_process` (their frames let go of it), so
refcounting frees everything a failed process lets go of; the cyclic
collector need not run for it.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable

from .engine import NORMAL, URGENT, Simulator

__all__ = [
    "SimEvent",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "ProcessError",
]

_PENDING = object()


class ProcessError(RuntimeError):
    """Structural misuse of the process layer."""


class Interrupt(Exception):
    """Raised inside a process that another actor interrupted.

    Attributes
    ----------
    cause:
        Arbitrary payload describing why (e.g. a failure event record).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


def _unwound(exc: BaseException, thrown_with: Any = _PENDING) -> BaseException:
    """``exc`` as a process fails with it, with no reference cycle left in
    its traceback.

    The traceback's head is the frame of the :class:`Process` method that
    caught ``exc``; it holds the process, which is about to hold ``exc``
    as its value, so that entry is dropped.  When ``exc`` was thrown in
    with traceback ``thrown_with`` and passed through uncaught, the
    entries ahead of ``thrown_with`` are the generator frames it
    unwound, all finished now: their locals are cleared, because a local
    that holds the failed event (a flow, a child process) refers back to
    ``exc``.  Every entry keeps its file, line and function for the
    printed traceback.
    """
    tb = exc.__traceback__.tb_next
    exc.__traceback__ = tb
    if thrown_with is not _PENDING:
        while tb is not thrown_with:
            tb.tb_frame.clear()
            tb = tb.tb_next
    return exc


class SimEvent:
    """A one-shot event that processes can wait on.

    The event starts untriggered.  Exactly one of :meth:`succeed` or
    :meth:`fail` may be called; afterwards the event is *triggered* and
    all registered callbacks run at the current simulated time.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.callbacks: list[Callable[["SimEvent"], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def ok(self) -> bool | None:
        """True if succeeded, False if failed, None if untriggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise ProcessError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "SimEvent":
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        if not isinstance(exc, BaseException):
            raise ProcessError(f"fail() requires an exception, got {exc!r}")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._value is not _PENDING:
            raise ProcessError(f"{self!r} already triggered")
        self._ok = ok
        self._value = value
        # Run callbacks at the current timestamp, before ordinary events,
        # so that chains of zero-delay causality resolve deterministically.
        self.sim.schedule(0.0, self._process_callbacks, priority=URGENT)

    def _process_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def subscribe(self, callback: Callable[["SimEvent"], None]) -> None:
        """Register ``callback(event)`` to run when the event triggers.

        If the event has already been processed the callback runs at the
        current time via a zero-delay event (never synchronously), keeping
        callback ordering independent of subscription timing.
        """
        if self.callbacks is None:
            self.sim.schedule(0.0, callback, self, priority=URGENT)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state}>"


class Timeout(SimEvent):
    """Event that succeeds automatically after ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        super().__init__(sim)
        self.delay = float(delay)
        sim.schedule(self.delay, self._expire, value, priority=NORMAL)

    def _expire(self, value: Any) -> None:
        if self._value is _PENDING:
            self.succeed(value)


class Process(SimEvent):
    """A running generator coroutine.

    The process is itself a :class:`SimEvent`: it succeeds with the
    generator's return value when the generator finishes, or fails with
    the escaping exception.  Yield a Process to join it.  A failure with
    no subscriber at the failure instant ends the run: the exception
    propagates out of :meth:`Simulator.run`.  An escaping
    :class:`Interrupt` is a clean kill, not a failure.
    """

    __slots__ = ("generator", "_waiting_on", "name")

    def __init__(self, sim: Simulator, generator: Generator, name: str | None = None):
        if not hasattr(generator, "send"):
            raise ProcessError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: SimEvent | None = None
        # Start on the next zero-delay tick so construction order does not
        # leak into execution order at the same timestamp.
        sim.schedule(0.0, self._resume, None, priority=NORMAL)

    @property
    def alive(self) -> bool:
        return not self.triggered

    def _process_callbacks(self) -> None:
        # A failure nobody joins is a failure of the run: re-raise it out
        # of Simulator.run at the failure instant instead of dropping it.
        if self._ok is False and not self.callbacks:
            self.callbacks = None
            try:
                raise self._value
            finally:
                # the failure's traceback keeps this frame, and the
                # process holds the failure: a frame holding the process
                # would close a cycle
                del self
        super()._process_callbacks()

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A no-op on a finished process.  The interrupt is delivered through
        the event the process is waiting on, which is abandoned.
        """
        if not self.alive:
            return
        self.sim.schedule(0.0, self._deliver_interrupt, cause, priority=URGENT)

    def _deliver_interrupt(self, cause: Any) -> None:
        if not self.alive:
            return
        self._waiting_on = None  # abandon whatever we were waiting for
        self._throw(Interrupt(cause))

    def _resume(self, event: SimEvent | None) -> None:
        # Stale wakeup: the process was interrupted or moved on.
        if event is not None and event is not self._waiting_on:
            return
        self._waiting_on = None
        if event is not None and event._ok is False:
            self._throw(event.value)
            return
        # the success path runs once per yield of every process: send
        # inline, none of _throw's traceback bookkeeping
        try:
            target = self.generator.send(None if event is None else event.value)
        except StopIteration as stop:
            if self._value is _PENDING:
                self.succeed(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as a clean kill.
            if not self.triggered:
                self.succeed(None)
            return
        except BaseException as exc:
            if not self.triggered:
                self.fail(_unwound(exc))
            return
        if not isinstance(target, SimEvent):
            self.generator.close()
            if not self.triggered:
                self.fail(ProcessError(f"process yielded non-event {target!r}"))
            return
        self._waiting_on = target
        target.subscribe(self._resume)

    def _throw(self, exc: BaseException) -> None:
        """Throw ``exc`` (a failed event's error, or an interrupt) into the
        generator.  A generator that handles it does not keep its frame in
        ``exc``'s traceback: the frame holds the event that failed with
        ``exc`` (a flow in a local list, a child process), so the entry
        would make a reference cycle."""
        before = exc.__traceback__
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            exc.__traceback__ = before
            if not self.triggered:
                self.succeed(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as a clean kill.
            exc.__traceback__ = before
            if not self.triggered:
                self.succeed(None)
            return
        except BaseException as out:
            if out is not exc:
                exc.__traceback__ = before
            if not self.triggered:
                self.fail(_unwound(out, before) if out is exc else _unwound(out))
            return
        exc.__traceback__ = before
        if not isinstance(target, SimEvent):
            self.generator.close()
            if not self.triggered:
                self.fail(ProcessError(f"process yielded non-event {target!r}"))
            return
        self._waiting_on = target
        target.subscribe(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} {'alive' if self.alive else 'done'}>"


class AllOf(SimEvent):
    """Succeeds when every child succeeds; fails fast on the first failure.

    Value is ``{index: child_value}`` for all children.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: Simulator, events: Iterable[SimEvent]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        self._remaining = len(self.events)
        for ev in self.events:
            ev.subscribe(self._on_child)

    def _on_child(self, event: SimEvent) -> None:
        if self._value is not _PENDING:
            return
        if event._ok is False:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({i: ev.value for i, ev in enumerate(self.events)})
