"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator` — event heap and clock;
* :class:`Process`, :class:`SimEvent`, :class:`Timeout`, :class:`Interrupt`,
  :class:`AllOf` — generator-coroutine process layer;
* :class:`Resource` — a counting semaphore with FIFO grants;
* :class:`RngRegistry` — named deterministic random streams;
* :class:`Tracer` — optional event tracing.
"""

from .engine import (
    LATE,
    NORMAL,
    URGENT,
    EventHandle,
    SimulationError,
    Simulator,
    StopSimulation,
)
from .process import (
    AllOf,
    Interrupt,
    Process,
    ProcessError,
    SimEvent,
    Timeout,
)
from .resources import Resource, ResourceError
from .rng import RngRegistry, derive_seed
from .trace import NULL_TRACER, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "EventHandle",
    "URGENT",
    "NORMAL",
    "LATE",
    "SimEvent",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "ProcessError",
    "Resource",
    "ResourceError",
    "RngRegistry",
    "derive_seed",
    "Tracer",
    "TraceRecord",
    "NULL_TRACER",
]
