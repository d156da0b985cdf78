"""Nestable timing spans with dual clocks and Chrome trace export.

A :class:`Span` measures one named operation on one *track* (checkpoint
barrier, recovery pass, campaign worker …).  Every span records **both**
clocks:

* **sim-time** — the simulator's virtual clock, what the model's
  latency claims are about;
* **wall-time** — ``time.perf_counter()``, what the host actually
  spent, which is what profiling the reproduction itself needs.

Spans on a track nest LIFO (begin/end discipline is enforced), so the
recorder can emit Chrome trace-event ``B``/``E`` pairs that Perfetto
and ``chrome://tracing`` load directly.  Events are exported in the
order they were recorded; since both clocks are monotone this yields
sorted timestamps with correctly matched pairs by construction.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["Span", "SpanError", "SpanRecorder"]


class SpanError(RuntimeError):
    """Begin/end discipline violation (ending a span out of order)."""


class Span:
    """One timed operation; created via :meth:`SpanRecorder.begin`."""

    __slots__ = (
        "span_id", "name", "track", "args",
        "start_sim", "start_wall", "end_sim", "end_wall", "parent_id",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        track: str,
        start_sim: float,
        start_wall: float,
        parent_id: int | None,
        args: dict[str, Any],
    ):
        self.span_id = span_id
        self.name = name
        self.track = track
        self.start_sim = start_sim
        self.start_wall = start_wall
        self.end_sim: float | None = None
        self.end_wall: float | None = None
        self.parent_id = parent_id
        self.args = args

    @property
    def finished(self) -> bool:
        return self.end_sim is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.end_sim - self.start_sim:.6g}s" if self.finished else "open"
        return f"<Span {self.track}/{self.name} {state}>"


class SpanRecorder:
    """Collects spans and renders them as Chrome trace events.

    ``wall_clock`` is injectable for deterministic tests; it must be
    monotone.  Wall timestamps are stored relative to recorder creation
    so exported traces start near zero.
    """

    def __init__(self, wall_clock: Callable[[], float] = time.perf_counter):
        self._wall = wall_clock
        self._t0_wall = wall_clock()
        self.spans: list[Span] = []
        self._stacks: dict[str, list[Span]] = {}
        self._events: list[tuple[str, Span, float, float]] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def begin(
        self, name: str, sim_time: float, track: str = "sim", **args: Any
    ) -> Span:
        """Open a span; it nests under the track's current open span."""
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1].span_id if stack else None
        wall = self._wall() - self._t0_wall
        span = Span(self._next_id, name, track, float(sim_time), wall,
                    parent, args)
        self._next_id += 1
        stack.append(span)
        self.spans.append(span)
        self._events.append(("B", span, float(sim_time), wall))
        return span

    def end(self, span: Span, sim_time: float, **args: Any) -> Span:
        """Close ``span``; must be the innermost open span of its track."""
        stack = self._stacks.get(span.track, [])
        if not stack or stack[-1] is not span:
            raise SpanError(
                f"span {span.name!r} is not the innermost open span on "
                f"track {span.track!r}"
            )
        if span.finished:  # pragma: no cover - unreachable via stack check
            raise SpanError(f"span {span.name!r} already ended")
        stack.pop()
        span.end_sim = float(sim_time)
        span.end_wall = self._wall() - self._t0_wall
        if args:
            span.args.update(args)
        self._events.append(("E", span, span.end_sim, span.end_wall))
        return span

    # ------------------------------------------------------------------
    @property
    def completed(self) -> list[Span]:
        return [s for s in self.spans if s.finished]

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    def chrome_events(self, clock: str = "sim") -> list[dict]:
        """Trace-event list: metadata + matched ``B``/``E`` pairs.

        ``clock`` picks which recorded clock becomes the trace ``ts``
        (microseconds).  Only finished spans are exported; an unfinished
        span's ``B`` would have no matching ``E`` and Perfetto would
        render it as running forever.
        """
        if clock not in ("sim", "wall"):
            raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
        tids: dict[str, int] = {}
        events: list[dict] = []
        for track in sorted({s.track for s in self.spans}):
            tids[track] = len(tids) + 1
            events.append({
                "ph": "M", "pid": 1, "tid": tids[track],
                "name": "thread_name", "args": {"name": track},
            })
        events.insert(0, {
            "ph": "M", "pid": 1, "tid": 0,
            "name": "process_name",
            "args": {"name": f"repro ({clock} time)"},
        })
        for phase, span, sim_t, wall_t in self._events:
            if not span.finished:
                continue
            ts = (sim_t if clock == "sim" else wall_t) * 1e6
            ev = {
                "ph": phase,
                "pid": 1,
                "tid": tids[span.track],
                "ts": ts,
                "name": span.name,
                "cat": span.track,
            }
            if phase == "B" and span.args:
                ev["args"] = {k: _jsonable(v) for k, v in span.args.items()}
            events.append(ev)
        return events


def _jsonable(v: Any):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return repr(v)
