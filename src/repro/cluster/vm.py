"""Virtual machines.

A :class:`VirtualMachine` carries two parallel representations:

* a **logical** size (``memory_bytes``) and dirty rate used by every
  timing model — these can be gigabytes;
* an optional **functional** :class:`MemoryImage` — a real, typically
  scaled-down, byte buffer on which checkpoint capture, parity, and
  recovery operate bit-exactly.

The split keeps Monte-Carlo timing runs allocation-free while letting
correctness tests prove that a reconstructed VM is byte-identical.
"""

from __future__ import annotations

import math
from enum import Enum

from .memory import DEFAULT_PAGE_SIZE, MemoryImage

__all__ = ["VMState", "VirtualMachine", "VMError"]


class VMError(RuntimeError):
    """Illegal VM state transition or misuse."""


class VMState(str, Enum):
    RUNNING = "running"
    PAUSED = "paused"
    MIGRATING = "migrating"
    FAILED = "failed"


class VirtualMachine:
    """One guest VM.

    Parameters
    ----------
    vm_id:
        Unique integer id within the cluster.
    memory_bytes:
        Logical image size used by timing models.
    dirty_rate:
        Bytes of guest memory dirtied per second of execution (drives
        incremental checkpoint sizes and pre-copy convergence).
    image_pages / page_size:
        When given, a functional :class:`MemoryImage` is attached.
    name:
        Optional human label (defaults to ``vm<id>``).
    """

    def __init__(
        self,
        vm_id: int,
        memory_bytes: float,
        dirty_rate: float = 0.0,
        image_pages: int | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        name: str | None = None,
    ):
        # NaN fails every comparison, so these reject it with infinity
        if not (0 < memory_bytes < math.inf):
            raise VMError(f"memory_bytes must be finite and > 0, got {memory_bytes}")
        if not (0 <= dirty_rate < math.inf):
            raise VMError(f"dirty_rate must be finite and >= 0, got {dirty_rate}")
        self.vm_id = int(vm_id)
        self.name = name or f"vm{vm_id}"
        self.memory_bytes = float(memory_bytes)
        self.dirty_rate = float(dirty_rate)
        self.state = VMState.RUNNING
        self.node_id: int | None = None
        self.image: MemoryImage | None = (
            MemoryImage(image_pages, page_size) if image_pages else None
        )
        #: checkpoint epochs this VM has committed
        self.epoch = -1

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def pause(self) -> None:
        if self.state == VMState.FAILED:
            raise VMError(f"{self.name}: cannot pause a failed VM")
        self.state = VMState.PAUSED

    def resume(self) -> None:
        if self.state == VMState.FAILED:
            raise VMError(f"{self.name}: cannot resume a failed VM")
        self.state = VMState.RUNNING

    def begin_migration(self) -> None:
        if self.state != VMState.RUNNING:
            raise VMError(f"{self.name}: can only migrate a running VM (is {self.state})")
        self.state = VMState.MIGRATING

    def end_migration(self) -> None:
        if self.state != VMState.MIGRATING:
            raise VMError(f"{self.name}: not migrating")
        self.state = VMState.RUNNING

    def mark_failed(self) -> None:
        self.state = VMState.FAILED

    def revive(self) -> None:
        """Bring a failed VM back (after reconstruction placed its state)."""
        if self.state != VMState.FAILED:
            raise VMError(f"{self.name}: revive() only applies to failed VMs")
        self.state = VMState.RUNNING

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VM {self.name} {self.memory_bytes / 1e9:.3g}GB {self.state.value}"
            f" node={self.node_id}>"
        )
