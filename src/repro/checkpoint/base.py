"""Checkpoint capture strategies and shared policy interfaces.

Terminology follows Section II-B2 (after Plank/Koren):

* **overhead** — wall-clock during which guest execution is suspended by
  checkpointing (the pause);
* **latency** — time from the start of a checkpoint until the checkpoint
  is *usable* for recovery (committed to its sink).  Latency ≥ overhead,
  and diskless checkpointing's whole point is slashing latency by
  removing the disk from the commit path.

A :class:`CaptureStrategy` turns one VM's live state into a
:class:`~repro.cluster.images.CheckpointImage` plus the pause the guest
suffers; sinks/protocols (diskful baseline, Remus, DVDC) then move and
commit those images, each charging its own pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping, NamedTuple, Protocol, Sequence

from ..cluster.hypervisor import Hypervisor
from ..cluster.images import CheckpointImage
from ..cluster.vm import VirtualMachine
from ..migration.downtime import PAPER_BASE_OVERHEAD

__all__ = [
    "CaptureSpec",
    "CaptureStrategy",
    "CaptureOutcome",
    "CheckpointCycleResult",
    "CheckpointProtocol",
    "Unrecoverable",
]

#: In-memory copy bandwidth for non-COW capture (memcpy class), bytes/s.
DEFAULT_COPY_BANDWIDTH = 4e9


@dataclass(frozen=True)
class CaptureSpec:
    """Cost parameters of the capture mechanism.

    ``pause_fixed`` is the suspend/resume floor — the paper's 40 ms
    baseline overhead.  ``copy_bandwidth`` applies when the image (or
    dirty set) must be copied synchronously while paused; copy-on-write
    strategies dodge that term.
    """

    pause_fixed: float = PAPER_BASE_OVERHEAD
    copy_bandwidth: float = DEFAULT_COPY_BANDWIDTH

    def __post_init__(self) -> None:
        if self.pause_fixed < 0:
            raise ValueError(f"pause_fixed must be >= 0, got {self.pause_fixed}")
        if not self.copy_bandwidth > 0:  # NaN included
            raise ValueError(f"copy_bandwidth must be > 0, got {self.copy_bandwidth}")


class CaptureOutcome(NamedTuple):
    """One VM captured: the image plus the guest pause charged."""

    image: CheckpointImage
    pause_seconds: float


class CaptureStrategy(Protocol):
    """Capture policy: produces images and pause costs.

    ``elapsed`` is the time since the VMs' previous checkpoint — what
    incremental strategies need to size the dirty set for logical-only
    VMs (functional VMs read their real dirty log instead).
    :meth:`capture_many` captures a whole barrier in one pass, each VM
    through ``hypervisors[vm.node_id]``; ``baseless`` names the VMs the
    protocol holds no image of to diff against.
    """

    def capture_many(
        self,
        hypervisors: Mapping[int, Hypervisor] | Sequence[Hypervisor],
        vms: Sequence[VirtualMachine],
        epoch: int,
        now: float,
        elapsed: float,
        baseless: Collection[int] = (),
    ) -> list[CaptureOutcome]:  # pragma: no cover - protocol
        ...


@dataclass
class CheckpointCycleResult:
    """Accounting for one cluster-wide checkpoint cycle.

    ``overhead`` — global execution suspension (the model's share of
    T_ov); ``latency`` — start-to-commit for the slowest element;
    ``network_bytes`` / ``disk_bytes`` — traffic; ``parity_bytes`` —
    XOR work performed (diskless protocols only).
    """

    epoch: int
    started_at: float
    overhead: float = 0.0
    latency: float = 0.0
    network_bytes: float = 0.0
    disk_bytes: float = 0.0
    parity_bytes: float = 0.0
    per_vm_pause: dict[int, float] = field(default_factory=dict)
    committed: bool = False


class Unrecoverable(RuntimeError):
    """Recovery is impossible by the failure model, not by a bug.

    The one legitimate way a recovery fails: the faults exceed what the
    protocol can rebuild from — a group lost more elements than its
    parity covers, no node is left to restore onto, or nothing was ever
    committed.  Handlers around ``recover``, ``heal`` and
    ``rehome_shards`` catch this type only; any other exception out of
    them is a bug and propagates.
    """


class CheckpointProtocol(Protocol):
    """End-to-end checkpoint protocol over a cluster.

    Implementations: :class:`repro.checkpoint.diskful.DiskfulCheckpointer`
    (baseline), :class:`repro.core.dvdc.DVDC` (the contribution), and the
    Fig. 1/Fig. 3 architecture variants.
    """

    def run_cycle(self):  # pragma: no cover - protocol
        """Simulation process performing one coordinated checkpoint;
        returns a :class:`CheckpointCycleResult`."""
        ...

    def recover(self, failed_node_id: int):  # pragma: no cover - protocol
        """Simulation process recovering from a node failure; returns a
        recovery report object.  Raises :class:`Unrecoverable` when the
        loss exceeds what the protocol can rebuild (fate); any other
        exception is a bug."""
        ...
