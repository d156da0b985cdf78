"""Cluster failure injection.

The central correlation fact that motivates DVDC's orthogonal placement
(Section IV-B): *failures strike physical nodes*, and a node failure
takes down every VM resident on it simultaneously.  A
:class:`FailureSchedule` draws per-node failure times from a
:class:`FailureDistribution` up front; the injector replays it as
node-crash events in the simulation, and subscribers (the job, the
serving runtime, the recovery layer) react.  A failed node is down for
the subscriber's repair interval, then rejoins empty — its VMs must be
reconstructed elsewhere by the recovery layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..sim import NULL_TRACER, Simulator, Tracer
from ..telemetry import probe_of
from .distributions import FailureDistribution

__all__ = ["FailureEvent", "FailureInjector", "FailureSchedule"]


@dataclass(frozen=True)
class FailureEvent:
    """A node crash occurrence."""

    time: float
    node_id: int
    #: index of this failure on the node (0 = first crash)
    ordinal: int


@dataclass
class FailureSchedule:
    """A pre-drawn, replayable trace of failures for paired experiments.

    Using one schedule across policies (diskful vs. diskless) removes the
    failure-sampling noise from the comparison — common random numbers.
    """

    events: list[FailureEvent] = field(default_factory=list)

    @classmethod
    def draw(
        cls,
        rng: np.random.Generator,
        dist: FailureDistribution,
        n_nodes: int,
        horizon: float,
        repair_time: float = 0.0,
    ) -> "FailureSchedule":
        """Draw independent per-node failure processes up to ``horizon``.

        Inter-failure clocks pause during repair: node n's k-th failure
        occurs at ``sum of k draws + k*repair_time``.
        """
        if n_nodes < 1:
            raise ValueError(f"need >= 1 node, got {n_nodes}")
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if repair_time < 0:
            raise ValueError(f"repair_time must be >= 0, got {repair_time}")
        events: list[FailureEvent] = []
        for node in range(n_nodes):
            t = 0.0
            ordinal = 0
            while True:
                t += dist.sample(rng)
                if t > horizon:
                    break
                events.append(FailureEvent(time=t, node_id=node, ordinal=ordinal))
                ordinal += 1
                t += repair_time
        events.sort(key=lambda e: (e.time, e.node_id))
        return cls(events)

    def __len__(self) -> int:
        return len(self.events)


class FailureInjector:
    """Replays a :class:`FailureSchedule` into a live simulation, event
    for event (one schedule serves every method of a paired comparison).

    Subscribers are callables ``fn(event: FailureEvent)`` invoked at the
    failure instant, in subscription order.
    """

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        schedule: FailureSchedule,
        tracer: Tracer = NULL_TRACER,
    ):
        self.sim = sim
        self.n_nodes = n_nodes
        self.schedule = schedule
        self.tracer = tracer
        self.probe = probe_of(tracer)
        self._subscribers: list[Callable[[FailureEvent], None]] = []
        self._delivered: list[FailureEvent] = []
        self._started = False

    # ------------------------------------------------------------------
    def subscribe(self, fn: Callable[[FailureEvent], None]) -> None:
        self._subscribers.append(fn)

    @property
    def delivered(self) -> Sequence[FailureEvent]:
        return tuple(self._delivered)

    def start(self) -> None:
        """Arm the injector; idempotent."""
        if self._started:
            return
        self._started = True
        for ev in self.schedule.events:
            if ev.node_id >= self.n_nodes:
                raise ValueError(
                    f"schedule references node {ev.node_id} >= n_nodes {self.n_nodes}"
                )
            self.sim.at(ev.time, self._deliver, ev)

    # ------------------------------------------------------------------
    def _deliver(self, ev: FailureEvent) -> None:
        self._delivered.append(ev)
        self.tracer.emit(self.sim.now, "failure.node", node=ev.node_id, ordinal=ev.ordinal)
        self.probe.count(
            "repro_failures_total",
            help="Failures injected, by kind and failure domain",
            kind="node", domain=f"node{ev.node_id}",
        )
        for fn in self._subscribers:
            fn(ev)
