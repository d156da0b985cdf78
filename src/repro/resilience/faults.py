"""Transient-fault injection: flaps, stragglers, drops, bit-rot.

The companion of :mod:`repro.failures` for everything short of a crash.
A :class:`TransientFaultSchedule` is drawn once from a seeded RNG and
replayed verbatim (common random numbers across policies, exactly like
:class:`~repro.failures.injector.FailureSchedule`), and the
:class:`TransientFaultInjector` delivers its events into a live cluster:

========  ==========================================================
kind      effect at the fault instant
========  ==========================================================
flap      both NIC directions of the node go down; in-flight flows
          fail with :class:`~repro.network.link.TransientNetworkError`;
          links return after ``duration`` seconds
degrade   NIC bandwidth drops to ``severity`` × nominal (straggler
          node); restored after ``duration`` seconds
drop      the node's in-flight transfers are dropped once (lossy
          blip); link state untouched
corrupt   one byte of one resident checkpoint artifact (parity block
          or committed image) is flipped — silent until a checksum
          is verified
========  ==========================================================

Overlapping flaps/degradations on one node are reference-counted: the
NIC comes back (or returns to full speed) only when the *last*
outstanding fault expires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cluster.cluster import VirtualCluster
from ..sim import NULL_TRACER, Simulator, Tracer
from ..telemetry import probe_of

__all__ = [
    "FAULT_KINDS",
    "TransientFault",
    "TransientFaultSchedule",
    "TransientFaultInjector",
    "corrupt_node_state",
]

FAULT_KINDS = ("flap", "degrade", "drop", "corrupt")


@dataclass(frozen=True)
class TransientFault:
    """One transient-fault occurrence on a node."""

    time: float
    node_id: int
    kind: str
    #: flap/degrade: seconds until the fault clears (ignored otherwise)
    duration: float = 0.0
    #: degrade: bandwidth factor in (0, 1); others ignore it
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if not (0 < self.severity <= 1):
            raise ValueError(f"severity must be in (0, 1], got {self.severity}")


@dataclass
class TransientFaultSchedule:
    """A pre-drawn, replayable trace of transient faults."""

    events: list[TransientFault] = field(default_factory=list)

    @classmethod
    def draw(
        cls,
        rng: np.random.Generator,
        n_nodes: int,
        horizon: float,
        rate: float,
        kinds: Sequence[str] = FAULT_KINDS,
        mean_duration: float = 0.2,
        min_severity: float = 0.05,
    ) -> "TransientFaultSchedule":
        """Poisson transient faults per node at ``rate`` events/second.

        Durations are exponential with ``mean_duration``; degrade
        severities uniform in ``[min_severity, 1)``.
        """
        if n_nodes < 1:
            raise ValueError(f"need >= 1 node, got {n_nodes}")
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if not kinds:
            raise ValueError("kinds must be non-empty")
        for k in kinds:
            if k not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {k!r}; one of {FAULT_KINDS}")
        events: list[TransientFault] = []
        for node in range(n_nodes):
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / rate))
                if t > horizon:
                    break
                kind = kinds[int(rng.integers(len(kinds)))]
                events.append(TransientFault(
                    time=t,
                    node_id=node,
                    kind=kind,
                    duration=float(rng.exponential(mean_duration)),
                    severity=float(rng.uniform(min_severity, 1.0)),
                ))
        events.sort(key=lambda e: (e.time, e.node_id, e.kind))
        return cls(events)

    def __len__(self) -> int:
        return len(self.events)


def corrupt_node_state(
    cluster: VirtualCluster, node_id: int, rng: np.random.Generator
) -> str | None:
    """Flip one byte of one functional checkpoint artifact on the node.

    Targets are all parity blocks and committed images with real bytes,
    chosen uniformly by the seeded ``rng``.  Returns a description of
    what was damaged (``"parity g2"`` / ``"image vm5"``) or None when
    the node holds nothing corruptible — timing-only runs are immune by
    construction, which the injector reports rather than hides.
    """
    node = cluster.node(node_id)
    if not node.alive:
        return None
    targets: list[tuple[str, np.ndarray]] = []
    for gid in sorted(node.parity_store):
        block = node.parity_store[gid]
        if block.data is not None and block.data.size:
            targets.append((f"parity g{gid}", block.data))
    for vm_id in sorted(node.checkpoint_store):
        img = node.checkpoint_store[vm_id]
        if isinstance(img.payload, np.ndarray) and img.payload.size:
            targets.append((f"image vm{vm_id}", img.payload))
    if not targets:
        return None
    label, data = targets[int(rng.integers(len(targets)))]
    flat = data.reshape(-1).view(np.uint8)
    off = int(rng.integers(flat.size))
    flat[off] ^= np.uint8(1 << int(rng.integers(8)))
    return label


class TransientFaultInjector:
    """Delivers a :class:`TransientFaultSchedule` into a live cluster.

    Mirrors :class:`~repro.failures.injector.FailureInjector`'s replay
    mode: arm with :meth:`start`, observe with :meth:`subscribe`.  The
    ``rng`` seeds only corruption target selection, so two runs with the
    same schedule and seed damage the same bytes.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: VirtualCluster,
        schedule: TransientFaultSchedule,
        rng: np.random.Generator | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.sim = sim
        self.cluster = cluster
        self.schedule = schedule
        self.rng = rng or np.random.default_rng(0)
        self.tracer = tracer
        self.probe = probe_of(tracer)
        #: corruption descriptions actually landed, in delivery order
        self.corrupted: list[str] = []
        # reference counts for overlapping flaps/degradations per node
        self._flaps: dict[int, int] = {}
        self._degrades: dict[int, int] = {}
        self._started = False

    def start(self) -> None:
        """Arm the injector; idempotent."""
        if self._started:
            return
        self._started = True
        n_nodes = self.cluster.n_nodes
        for ev in self.schedule.events:
            if ev.node_id >= n_nodes:
                raise ValueError(
                    f"schedule references node {ev.node_id} >= n_nodes {n_nodes}"
                )
            self.sim.at(ev.time, self._fire, ev)

    # ------------------------------------------------------------------
    def _fire(self, ev: TransientFault) -> None:
        self.tracer.emit(
            self.sim.now, f"fault.{ev.kind}", node=ev.node_id,
            duration=ev.duration, severity=ev.severity,
        )
        self.probe.count(
            "repro_failures_total",
            help="Failures injected, by kind and failure domain",
            kind=ev.kind, domain=f"node{ev.node_id}",
        )
        apply = getattr(self, f"_apply_{ev.kind}")
        apply(ev)

    def _apply_flap(self, ev: TransientFault) -> None:
        self._flaps[ev.node_id] = self._flaps.get(ev.node_id, 0) + 1
        self.cluster.topology.set_node_links_up(ev.node_id, False, "link flap")
        self.sim.schedule(ev.duration, self._clear_flap, ev.node_id)

    def _clear_flap(self, node_id: int) -> None:
        self._flaps[node_id] -= 1
        if self._flaps[node_id] == 0:
            self.cluster.topology.set_node_links_up(node_id, True)

    def _apply_degrade(self, ev: TransientFault) -> None:
        self._degrades[ev.node_id] = self._degrades.get(ev.node_id, 0) + 1
        self.cluster.topology.scale_node_bandwidth(ev.node_id, ev.severity)
        self.sim.schedule(ev.duration, self._clear_degrade, ev.node_id)

    def _clear_degrade(self, node_id: int) -> None:
        self._degrades[node_id] -= 1
        if self._degrades[node_id] == 0:
            self.cluster.topology.scale_node_bandwidth(node_id, 1.0)

    def _apply_drop(self, ev: TransientFault) -> None:
        self.cluster.topology.drop_node_flows(ev.node_id)

    def _apply_corrupt(self, ev: TransientFault) -> None:
        what = corrupt_node_state(self.cluster, ev.node_id, self.rng)
        if what is not None:
            self.corrupted.append(f"node{ev.node_id}:{what}")
            self.probe.count(
                "repro_resilience_corruptions_injected_total",
                help="Silent byte flips landed in checkpoint artifacts",
            )
