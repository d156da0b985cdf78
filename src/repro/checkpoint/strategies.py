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
from typing import Collection, Mapping, Sequence

from ..cluster.hypervisor import Hypervisor
from ..cluster.vm import VirtualMachine
from .base import CaptureOutcome, CaptureSpec

__all__ = ["FullCapture", "IncrementalCapture", "ForkedCapture"]


@dataclass(frozen=True)
class FullCapture:
    """Pause, copy everything, resume."""

    spec: CaptureSpec = field(default_factory=CaptureSpec)

    def capture_many(
        self,
        hypervisors: Mapping[int, Hypervisor] | Sequence[Hypervisor],
        vms: Sequence[VirtualMachine],
        epoch: int,
        now: float,
        elapsed: float,
        baseless: Collection[int] = (),
    ) -> list[CaptureOutcome]:
        fixed, bandwidth = self.spec.pause_fixed, self.spec.copy_bandwidth
        return [
            CaptureOutcome(
                hypervisors[vm.node_id].capture_full(vm, now, epoch),
                fixed + vm.memory_bytes / bandwidth,
            )
            for vm in vms
        ]


@dataclass(frozen=True)
class IncrementalCapture:
    """Pause, copy only the dirty set, resume.

    For logical-only VMs the dirty set is estimated as
    ``min(dirty_rate · elapsed, memory_bytes)`` — the saturating
    working-set approximation (repeated writes to a hot page cost one
    page).  A VM with nothing to diff against captures full: every VM
    at epoch 0, and any VM the protocol reports without a base
    (``baseless``: one reprovisioned or provisioned mid-run).
    """

    spec: CaptureSpec = field(default_factory=CaptureSpec)

    def capture_many(
        self,
        hypervisors: Mapping[int, Hypervisor] | Sequence[Hypervisor],
        vms: Sequence[VirtualMachine],
        epoch: int,
        now: float,
        elapsed: float,
        baseless: Collection[int] = (),
    ) -> list[CaptureOutcome]:
        fixed, bandwidth = self.spec.pause_fixed, self.spec.copy_bandwidth
        out = []
        for vm in vms:
            hypervisor = hypervisors[vm.node_id]
            if epoch == 0 or vm.vm_id in baseless:
                image = hypervisor.capture_full(vm, now, epoch)
                pause = fixed + vm.memory_bytes / bandwidth
            else:
                logical = None
                if vm.image is None:
                    logical = min(vm.dirty_rate * max(elapsed, 0.0), vm.memory_bytes)
                image = hypervisor.capture_incremental(vm, now, epoch, logical, epoch - 1)
                pause = fixed + image.logical_bytes / bandwidth
            out.append(CaptureOutcome(image, pause))
        return out


@dataclass(frozen=True)
class ForkedCapture:
    """Copy-on-write capture: fixed pause regardless of image size."""

    spec: CaptureSpec = field(default_factory=CaptureSpec)

    def capture_many(
        self,
        hypervisors: Mapping[int, Hypervisor] | Sequence[Hypervisor],
        vms: Sequence[VirtualMachine],
        epoch: int,
        now: float,
        elapsed: float,
        baseless: Collection[int] = (),
    ) -> list[CaptureOutcome]:
        fixed = self.spec.pause_fixed
        return [
            CaptureOutcome(hypervisors[vm.node_id].capture_forked(vm, now, epoch), fixed)
            for vm in vms
        ]
