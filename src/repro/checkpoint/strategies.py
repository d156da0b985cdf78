"""The three capture variants of Section II-B2: normal, incremental, forked.

* :class:`FullCapture` ("normal") — copy the whole image while paused.
  Needs 3× process memory in the original diskless scheme; here the
  pause charges the synchronous copy.
* :class:`IncrementalCapture` — write-protect pages after a checkpoint,
  catch faults, save only changed pages.  Pause covers copying the dirty
  set; traffic shrinks to the working set.
* :class:`ForkedCapture` — fork/copy-on-write: the guest pauses only for
  the fork itself; page copies happen lazily.  Traffic is still the full
  image (unless the sink applies compression), but overhead collapses to
  the fixed pause — this is what lets the paper's model use a 40 ms
  baseline overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.hypervisor import Hypervisor
from ..cluster.vm import VirtualMachine
from .base import CaptureOutcome, CaptureSpec

__all__ = ["FullCapture", "IncrementalCapture", "ForkedCapture"]


@dataclass(frozen=True)
class FullCapture:
    """Pause, copy everything, resume."""

    spec: CaptureSpec = field(default_factory=CaptureSpec)

    def capture(
        self,
        hypervisor: Hypervisor,
        vm: VirtualMachine,
        epoch: int,
        now: float,
        elapsed: float,
        base: bool = True,
    ) -> CaptureOutcome:
        image = hypervisor.capture_full(vm, now, epoch)
        pause = self.spec.pause_fixed + vm.memory_bytes / self.spec.copy_bandwidth
        return CaptureOutcome(image=image, pause_seconds=pause)


@dataclass(frozen=True)
class IncrementalCapture:
    """Pause, copy only the dirty set, resume.

    For logical-only VMs the dirty set is estimated as
    ``min(dirty_rate · elapsed, memory_bytes)`` — the saturating
    working-set approximation (repeated writes to a hot page cost one
    page).  A VM with nothing to diff against captures full: every VM
    at epoch 0, and any VM the protocol reports without a base
    (``base=False``: one reprovisioned or provisioned mid-run).
    """

    spec: CaptureSpec = field(default_factory=CaptureSpec)

    def capture(
        self,
        hypervisor: Hypervisor,
        vm: VirtualMachine,
        epoch: int,
        now: float,
        elapsed: float,
        base: bool = True,
    ) -> CaptureOutcome:
        if epoch == 0 or not base:
            image = hypervisor.capture_full(vm, now, epoch)
            pause = self.spec.pause_fixed + vm.memory_bytes / self.spec.copy_bandwidth
            return CaptureOutcome(image=image, pause_seconds=pause)
        logical = None
        if vm.image is None:
            logical = min(vm.dirty_rate * max(elapsed, 0.0), vm.memory_bytes)
        image = hypervisor.capture_incremental(
            vm, now, epoch, logical_bytes=logical, base_epoch=epoch - 1
        )
        pause = self.spec.pause_fixed + image.logical_bytes / self.spec.copy_bandwidth
        return CaptureOutcome(image=image, pause_seconds=pause)


@dataclass(frozen=True)
class ForkedCapture:
    """Copy-on-write capture: fixed pause regardless of image size."""

    spec: CaptureSpec = field(default_factory=CaptureSpec)

    def capture(
        self,
        hypervisor: Hypervisor,
        vm: VirtualMachine,
        epoch: int,
        now: float,
        elapsed: float,
        base: bool = True,
    ) -> CaptureOutcome:
        image = hypervisor.capture_forked(vm, now, epoch)
        return CaptureOutcome(image=image, pause_seconds=self.spec.pause_fixed)
