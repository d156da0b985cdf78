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

from .checksum import block_checksum, page_crcs, update_checksum
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
    def commit_checkpoint(
        self, image: CheckpointImage
    ) -> tuple[int | None, int | None]:
        """Retain ``image`` as the VM's committed checkpoint in node RAM.

        For incremental images the committed state is the *merged* full
        payload (old committed snapshot patched with the delta) so that a
        single in-memory object always reconstructs the VM — mirroring
        the merge step Plank describes for incremental diskless
        checkpoints.

        A functional page image is fingerprinted with its per-page CRCs
        (``meta["page_crcs"]``): a full commit hashes the image whole and
        page by page, an incremental one only the dirty pages, moving the
        base's recorded checksum by them — bytes the base holds are never
        re-hashed, so rot in them stays detectable.  A base without page CRCs (its
        geometry was unknown) is re-hashed whole.

        Returns ``(replaced, committed)``: the checksum of the image this
        commit replaces and of the one it stores (None where absent or
        timing-only), so a caller need not hold either image.
        """
        prev = self.node.checkpoint_store.get(image.vm_id)
        replaced = None if prev is None else prev.meta.get("checksum")
        if image.kind == CheckpointKind.INCREMENTAL and image.payload is not None:
            if prev is None or prev.payload is None:
                raise HypervisorError(
                    f"incremental commit for vm {image.vm_id} without a "
                    "functional base checkpoint"
                )
            delta: PageDelta = image.payload
            base_crcs = prev.meta.get("page_crcs")
            self._check_delta(image.vm_id, delta, prev.payload.nbytes, base_crcs)
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
            meta = dict(image.meta, merged_from_incremental=True)
            if base_crcs is not None:
                new_crcs = page_crcs(delta.pages)
                meta["checksum"] = update_checksum(
                    replaced, delta.indices, base_crcs[delta.indices], new_crcs,
                    delta.n_pages_total, delta.page_size,
                )
                # like the buffer, the record moves over unless the base
                # lives on (no new long-lived allocation per commit)
                if prev.payload is not None or sys.getrefcount(base_crcs) > 3:
                    base_crcs = base_crcs.copy()
                base_crcs[delta.indices] = new_crcs
                meta["page_crcs"] = base_crcs
            else:
                meta["checksum"] = block_checksum(merged)
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
                meta=meta,
            )
        elif isinstance(image.payload, np.ndarray):
            # Commit is the moment the bytes are known good: fingerprint
            # them so restores and scrubs can detect later bit-rot.
            vm = self.node.vms.get(image.vm_id)
            flat = image.payload_flat()
            image.meta["checksum"] = block_checksum(flat)
            if (
                vm is not None
                and vm.image is not None
                and vm.image.nbytes == flat.nbytes
            ):
                image.meta["page_crcs"] = page_crcs(
                    flat.reshape(vm.image.n_pages, vm.image.page_size)
                )
        self.node.store_checkpoint(image)
        return replaced, image.meta.get("checksum")

    @staticmethod
    def _check_delta(
        vm_id: int, delta: PageDelta, base_nbytes: int, base_crcs: np.ndarray | None
    ) -> None:
        """Refuse a delta that cannot patch the committed image — before
        the merge takes the image's buffer, so the VM keeps its last good
        recovery point."""
        n_pages, page_size = delta.n_pages_total, delta.page_size
        if n_pages * page_size != base_nbytes or (
            base_crcs is not None and len(base_crcs) != n_pages
        ):
            base = f"{base_nbytes} B"
            if base_crcs is not None:
                base = f"{len(base_crcs)} pages, {base}"
            raise HypervisorError(
                f"incremental commit for vm {vm_id}: a delta of {n_pages} "
                f"pages × {page_size} B cannot patch the committed image "
                f"({base})"
            )
        idx = delta.indices  # sorted: its ends bound it
        if len(idx) and (idx[0] < 0 or idx[-1] >= n_pages):
            raise HypervisorError(
                f"incremental commit for vm {vm_id}: delta pages "
                f"[{int(idx[0])}, {int(idx[-1])}] outside the committed "
                f"image's {n_pages} pages"
            )

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
