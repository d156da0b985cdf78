"""The Probe facade — one object every layer can be instrumented with.

A :class:`Probe` bundles the three telemetry surfaces:

* it **is a** :class:`~repro.sim.trace.Tracer`, so every existing
  ``tracer=`` call site accepts a Probe unchanged (records accumulate
  exactly as before, and each emit also bumps the
  ``repro_trace_events_total{kind=...}`` counter);
* it owns a :class:`~repro.telemetry.metrics.MetricsRegistry` with
  guarded helpers (:meth:`count`, :meth:`gauge_set`, :meth:`observe`)
  that no-op when the probe is disabled;
* it owns a :class:`~repro.telemetry.spans.SpanRecorder` with
  generator-friendly :meth:`span_begin`/:meth:`span_end` (context
  managers don't survive ``yield`` boundaries in simulation processes).

Components resolve their probe with :func:`probe_of`: a Probe passed as
``tracer`` is returned as-is, any plain tracer maps to the inert
:data:`NULL_PROBE`.  The disabled path is therefore a single attribute
check — cheap enough for the simulator hot loop (the guard count is
pinned by ``tests/test_telemetry.py``).

An optional ``sink`` tracer receives a copy of every emit, which is how
a pre-existing :class:`Tracer` plugs in as one sink of the unified
facade.
"""

from __future__ import annotations

from typing import Any

from ..sim.trace import TraceRecord, Tracer
from .metrics import MetricsRegistry
from .spans import Span, SpanRecorder

__all__ = ["Probe", "NULL_PROBE", "probe_of"]


class Probe(Tracer):
    """Unified tracer + metrics + spans instrument."""

    def __init__(self, enabled: bool = True, sink: Tracer | None = None):
        super().__init__(enabled=enabled)
        self.sink = sink
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder()
        self._emit_counter = self.metrics.counter(
            "repro_trace_events_total", "Trace records emitted, by kind"
        )
        # hot-loop series, resolved once
        self._sim_events = self.metrics.counter(
            "repro_sim_events_total", "Simulator callbacks executed"
        ).labels()
        self._sim_heap = self.metrics.gauge(
            "repro_sim_heap_depth", "Pending events on the simulator heap"
        ).labels()

    # ------------------------------------------------------------------
    # Tracer surface
    # ------------------------------------------------------------------
    def emit(self, time: float, kind: str, **data: Any) -> None:
        if not self.enabled:
            return
        self.records.append(TraceRecord(time, kind, data))
        self._emit_counter.labels(kind=kind).inc()
        if self.sink is not None:
            self.sink.emit(time, kind, **data)

    # ------------------------------------------------------------------
    # metrics helpers (all no-ops when disabled)
    # ------------------------------------------------------------------
    def count(self, name: str, n: float = 1.0, help: str = "",
              **labels: object) -> None:
        if self.enabled:
            self.metrics.counter(name, help).labels(**labels).inc(n)

    def gauge_set(self, name: str, value: float, help: str = "",
                  **labels: object) -> None:
        if self.enabled:
            self.metrics.gauge(name, help).labels(**labels).set(value)

    def observe(self, name: str, value: float, help: str = "",
                buckets: tuple[float, ...] | None = None,
                quantiles: tuple[float, ...] | None = None,
                **labels: object) -> None:
        if self.enabled:
            self.metrics.histogram(name, help, buckets=buckets,
                                   quantiles=quantiles)\
                .labels(**labels).observe(value)

    def observe_batch(self, name: str, values, help: str = "",
                      buckets: tuple[float, ...] | None = None,
                      quantiles: tuple[float, ...] | None = None,
                      **labels: object) -> None:
        """Histogram-observe a whole array in one vectorized pass."""
        if self.enabled:
            self.metrics.histogram(name, help, buckets=buckets,
                                   quantiles=quantiles)\
                .labels(**labels).observe_batch(values)

    # ------------------------------------------------------------------
    # span helpers
    # ------------------------------------------------------------------
    def span_begin(self, name: str, sim_time: float, track: str = "sim",
                   **args: Any) -> Span | None:
        """Open a span; returns ``None`` when disabled (pass it to
        :meth:`span_end` unconditionally — it tolerates ``None``)."""
        if not self.enabled:
            return None
        return self.spans.begin(name, sim_time, track=track, **args)

    def span_end(self, span: Span | None, sim_time: float,
                 **args: Any) -> None:
        if span is not None and self.enabled:
            self.spans.end(span, sim_time, **args)

    # ------------------------------------------------------------------
    # simulator hot-loop hook
    # ------------------------------------------------------------------
    def sim_event(self, heap_depth: int) -> None:
        """One executed simulator callback; called from the event loop."""
        self._sim_events.inc()
        g = self._sim_heap
        if heap_depth > g.max_value:
            g.set(heap_depth)
        else:
            g.value = float(heap_depth)


class _NullProbe(Probe):
    """Inert shared probe: never records, never accumulates state.

    Mirrors the hardened ``NULL_TRACER`` contract — no mutable globals:
    it owns no registry, recorder or record list, so nothing can leak
    between callers through it.
    """

    records: tuple = ()

    def __init__(self) -> None:
        # deliberately no super().__init__ — a null probe holds no state
        self.sink = None

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        pass  # permanently disabled

    def emit(self, time: float, kind: str, **data: Any) -> None:
        pass

    def count(self, name: str, n: float = 1.0, help: str = "",
              **labels: object) -> None:
        pass

    def gauge_set(self, name: str, value: float, help: str = "",
                  **labels: object) -> None:
        pass

    def observe(self, name: str, value: float, help: str = "",
                buckets: tuple[float, ...] | None = None,
                quantiles: tuple[float, ...] | None = None,
                **labels: object) -> None:
        pass

    def observe_batch(self, name: str, values, help: str = "",
                      buckets: tuple[float, ...] | None = None,
                      quantiles: tuple[float, ...] | None = None,
                      **labels: object) -> None:
        pass

    def span_begin(self, name: str, sim_time: float, track: str = "sim",
                   **args: Any) -> Span | None:
        return None

    def span_end(self, span: Span | None, sim_time: float,
                 **args: Any) -> None:
        pass

    def sim_event(self, heap_depth: int) -> None:
        pass


#: Shared inert probe; the safe default everywhere.
NULL_PROBE = _NullProbe()


def probe_of(tracer: Tracer | None) -> Probe:
    """The probe behind a ``tracer=`` argument, or :data:`NULL_PROBE`.

    Instrumented components call this once in their constructor, so
    passing a :class:`Probe` anywhere a tracer is accepted lights up
    metrics and spans for that component — and passing a plain tracer
    (or none) costs nothing.
    """
    if isinstance(tracer, Probe) and not isinstance(tracer, _NullProbe):
        return tracer
    return NULL_PROBE
