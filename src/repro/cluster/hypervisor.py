"""Hypervisor-level checkpoint mechanism.

The paper's central systems argument (Section IV-A) is that capture
belongs *below* the kernel: "Applications, user-level libraries, and
even the kernel itself need not be aware that it is being checkpointed."
The :class:`Hypervisor` is that mechanism layer — instantaneous state
operations on the VMs of one node.  All *timing* (how long a pause or a
transfer takes) is charged by the policy layer in
:mod:`repro.checkpoint` and :mod:`repro.core`; keeping
mechanism/policy separate lets every architecture variant (Figs. 1, 3,
4) reuse the same capture code.
"""

from __future__ import annotations

import sys

import numpy as np

from .checksum import block_checksum
from .images import CheckpointImage, CheckpointKind
from .memory import PageDelta
from .node import PhysicalNode
from .vm import VirtualMachine

__all__ = ["Hypervisor", "HypervisorError"]


class HypervisorError(RuntimeError):
    """Capture attempted on state that cannot be captured."""


class Hypervisor:
    """Per-node checkpoint/restore agent."""

    def __init__(self, node: PhysicalNode):
        self.node = node

    def _require_local(self, vm: VirtualMachine) -> None:
        if vm.vm_id not in self.node.vms:
            raise HypervisorError(
                f"vm {vm.vm_id} is not hosted on node {self.node.node_id}"
            )
        if not self.node.alive:
            raise HypervisorError(f"node {self.node.node_id} is down")

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def capture_full(
        self, vm: VirtualMachine, now: float, epoch: int
    ) -> CheckpointImage:
        """Full-image capture.  The VM must already be paused by the
        coordinating policy (consistency requires a global pause point).
        """
        self._require_local(vm)
        payload: np.ndarray | None = None
        if vm.image is not None:
            payload = vm.image.snapshot()
            vm.image.clear_dirty()
        return CheckpointImage(
            vm_id=vm.vm_id,
            epoch=epoch,
            kind=CheckpointKind.FULL,
            logical_bytes=vm.memory_bytes,
            captured_at=now,
            payload=payload,
        )

    def capture_incremental(
        self,
        vm: VirtualMachine,
        now: float,
        epoch: int,
        logical_bytes: float | None = None,
        base_epoch: int | None = None,
    ) -> CheckpointImage:
        """Dirty-page capture (Plank's incremental variant, Section II-B).

        ``logical_bytes`` is what timing models will charge; when the VM
        is functional it defaults to the real delta payload size scaled
        up by ``memory_bytes / image.nbytes`` so logical and functional
        views stay proportional.  Non-functional VMs must pass it.
        """
        self._require_local(vm)
        payload: PageDelta | None = None
        if vm.image is not None:
            payload = vm.image.capture_delta(clear=True)
            if logical_bytes is None:
                scale = vm.memory_bytes / vm.image.nbytes
                logical_bytes = payload.nbytes * scale
        if logical_bytes is None:
            raise HypervisorError(
                "logical_bytes required for incremental capture of a "
                "non-functional VM"
            )
        return CheckpointImage(
            vm_id=vm.vm_id,
            epoch=epoch,
            kind=CheckpointKind.INCREMENTAL,
            logical_bytes=logical_bytes,
            captured_at=now,
            payload=payload,
            base_epoch=base_epoch,
        )

    def capture_forked(
        self, vm: VirtualMachine, now: float, epoch: int
    ) -> CheckpointImage:
        """Copy-on-write (forked) capture: contents equal a full capture,
        but the VM need only pause long enough to fork — the policy layer
        charges the short pause.  Functionally identical payload."""
        self._require_local(vm)
        payload: np.ndarray | None = None
        if vm.image is not None:
            payload = vm.image.snapshot()
            vm.image.clear_dirty()
        return CheckpointImage(
            vm_id=vm.vm_id,
            epoch=epoch,
            kind=CheckpointKind.FORKED,
            logical_bytes=vm.memory_bytes,
            captured_at=now,
            payload=payload,
        )

    # ------------------------------------------------------------------
    # commit / restore
    # ------------------------------------------------------------------
    def commit_checkpoint(self, image: CheckpointImage) -> None:
        """Retain ``image`` as the VM's committed checkpoint in node RAM.

        For incremental images the committed state is the *merged* full
        payload (old committed snapshot patched with the delta) so that a
        single in-memory object always reconstructs the VM — mirroring
        the merge step Plank describes for incremental diskless
        checkpoints.
        """
        if image.kind == CheckpointKind.INCREMENTAL and image.payload is not None:
            prev = self.node.checkpoint_store.get(image.vm_id)
            if prev is None or prev.payload is None:
                raise HypervisorError(
                    f"incremental commit for vm {image.vm_id} without a "
                    "functional base checkpoint"
                )
            delta: PageDelta = image.payload
            prev_payload = prev.payload
            if (
                isinstance(prev_payload, np.ndarray)
                and prev_payload.ndim == 1
                and prev_payload.dtype == np.uint8
                and prev_payload.base is None
                # sole owners: prev is held only by the store, our local,
                # and getrefcount's argument; its payload only by the
                # attribute, our local, and getrefcount's argument
                and sys.getrefcount(prev) <= 3
                and sys.getrefcount(prev_payload) <= 3
            ):
                # Steal the old committed buffer and patch the delta in
                # place: the commit costs O(dirty pages), not O(image).
                prev.payload = None
                merged = prev_payload
            else:
                merged = prev.payload_flat().copy()
            del prev_payload
            delta.apply_to(merged)
            # The committed object is a merged full snapshot: it occupies
            # full-image RAM on the node even though only the delta moved.
            image = CheckpointImage(
                vm_id=image.vm_id,
                epoch=image.epoch,
                kind=CheckpointKind.FULL,
                logical_bytes=prev.logical_bytes,
                captured_at=image.captured_at,
                payload=merged,
                base_epoch=image.base_epoch,
                meta=dict(image.meta, merged_from_incremental=True),
            )
        if isinstance(image.payload, np.ndarray):
            # Commit is the moment the bytes are known good: fingerprint
            # them so restores and scrubs can detect later bit-rot.
            image.meta["checksum"] = block_checksum(image.payload)
        self.node.store_checkpoint(image)

    def committed(self, vm_id: int) -> CheckpointImage | None:
        return self.node.checkpoint_store.get(vm_id)

    def restore(self, vm: VirtualMachine, image: CheckpointImage) -> None:
        """Load a checkpoint into a (possibly re-hosted) VM."""
        self._require_local(vm)
        if vm.image is not None:
            if image.payload is None:
                raise HypervisorError(
                    f"functional vm {vm.vm_id} needs a functional checkpoint"
                )
            vm.image.restore(image.payload_flat())
        vm.epoch = image.epoch
        if vm.state is not None and vm.state.value == "failed":
            vm.revive()
