"""Checkpoint image containers.

A :class:`CheckpointImage` is what the checkpointing layer produces and
the parity/recovery layer consumes: the captured state of one VM at one
checkpoint epoch.  It carries both the *logical* size (what the timing
models charge for network/disk movement) and, optionally, a *functional*
payload (real bytes) so that parity and reconstruction can be verified
bit-exactly in tests and examples.

A :class:`ParityBlock` is the XOR of the images of one RAID group, plus
enough metadata to know what it covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .memory import PageDelta

__all__ = ["CheckpointKind", "CheckpointImage", "ParityBlock"]


class CheckpointKind(str, Enum):
    """How the image was captured (Section II-B's three variants)."""

    FULL = "full"
    INCREMENTAL = "incremental"
    FORKED = "forked"


@dataclass(slots=True)
class CheckpointImage:
    """Captured state of one VM at one epoch.

    Attributes
    ----------
    vm_id:
        Owning VM.
    epoch:
        Checkpoint sequence number (0 = first).
    kind:
        Capture strategy that produced it.
    logical_bytes:
        Size charged by timing models (full image or dirty set, after
        compression if any).
    payload:
        Optional functional content: a full flat uint8 snapshot (FULL /
        FORKED) or a :class:`PageDelta` (INCREMENTAL).
    base_epoch:
        For INCREMENTAL images, the epoch this delta applies on top of.
    """

    vm_id: int
    epoch: int
    kind: CheckpointKind
    logical_bytes: float
    captured_at: float
    payload: np.ndarray | PageDelta | None = None
    base_epoch: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.logical_bytes < 0:
            raise ValueError(f"logical_bytes must be >= 0, got {self.logical_bytes}")
        if self.kind == CheckpointKind.INCREMENTAL and self.payload is not None:
            if not isinstance(self.payload, PageDelta):
                raise TypeError("incremental checkpoint payload must be a PageDelta")

    def payload_flat(self) -> np.ndarray:
        """The payload as a flat uint8 array (full snapshots only): the
        payload itself when it is one already, else a view of it."""
        payload = self.payload
        if isinstance(payload, np.ndarray):
            if payload.ndim == 1 and payload.dtype == np.uint8:
                return payload
            return payload.reshape(-1).view(np.uint8)
        raise TypeError(f"checkpoint {self.vm_id}@{self.epoch} has no flat payload")


@dataclass(slots=True)
class ParityBlock:
    """XOR parity over the members of one RAID group at one epoch.

    ``member_vm_ids`` lists the VMs whose images were folded in, in the
    canonical group order.  ``data`` is the XOR of their payloads (when
    functional).  ``logical_bytes`` equals the member image size — parity
    is as large as one member, the RAID-5 space overhead of 1/(k+1).
    """

    group_id: int
    epoch: int
    member_vm_ids: tuple[int, ...]
    logical_bytes: float
    stored_on_node: int | None = None
    data: np.ndarray | None = None
    #: CRC of ``data`` taken at encode time; None for timing-only blocks.
    checksum: int | None = None
    #: CRC of each member image folded in, vm_id -> checksum.  Lets a
    #: rebuild verify the reconstructed bytes end-to-end.
    member_checksums: dict[int, int] = field(default_factory=dict)
