"""Event tracing for simulations.

A :class:`Tracer` collects timestamped, typed records during a run.
Components emit records with :meth:`Tracer.emit`; analysis code filters
them afterwards.  Tracing is optional everywhere — components accept a
``tracer=None`` and the null tracer makes ``emit`` a no-op — so the hot
Monte-Carlo loops pay nothing when tracing is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["TraceRecord", "Tracer", "NULL_TRACER"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped occurrence.

    ``kind`` is a dotted event type (``"checkpoint.commit"``,
    ``"failure.node"``, ``"migration.downtime"`` …); ``data`` carries the
    event payload as a plain dict.
    """

    time: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]


class Tracer:
    """Accumulates :class:`TraceRecord` objects with cheap filtering."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[TraceRecord] = []

    def emit(self, time: float, kind: str, **data: Any) -> None:
        if self.enabled:
            self.records.append(TraceRecord(time, kind, data))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def select(
        self,
        kind: str | None = None,
        prefix: str | None = None,
        where: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Filter records by exact kind, kind prefix, and/or predicate."""
        out = self.records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if prefix is not None:
            out = [r for r in out if r.kind.startswith(prefix)]
        if where is not None:
            out = [r for r in out if where(r)]
        return list(out) if out is self.records else out


class _NullTracer(Tracer):
    """Tracer that drops everything; shared singleton.

    Because the singleton is the default argument of dozens of
    constructors, it must be *truly* inert: it exposes no mutable state
    (``records`` is an empty tuple, not a shared list) and ``enabled``
    cannot be flipped on — so no caller can accidentally leak records
    into the shared instance.
    """

    records: tuple = ()

    def __init__(self) -> None:
        # deliberately no super().__init__ — a null tracer holds no state
        pass

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        pass  # permanently disabled

    def emit(self, time: float, kind: str, **data: Any) -> None:  # noqa: D102
        pass


#: Shared do-nothing tracer; safe default argument.
NULL_TRACER = _NullTracer()
