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
from typing import Sequence

import numpy as np

from .checksum import block_checksum, page_crcs, update_checksum
from .images import CheckpointImage, CheckpointKind
from .memory import PageDelta
from .node import NodeError, PhysicalNode
from .vm import VirtualMachine

__all__ = ["Hypervisor", "HypervisorError", "commit_checkpoints"]


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
        """Retain ``image`` as the VM's committed checkpoint in node RAM:
        :func:`commit_checkpoints` with this one image.  Returns its
        ``(replaced, committed)`` checksum pair."""
        return commit_checkpoints([(self.node, image)])[0]

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


def commit_checkpoints(
    entries: Sequence[tuple[PhysicalNode, CheckpointImage]],
) -> list[tuple[int | None, int | None]]:
    """Retain each ``image`` as its VM's committed checkpoint in the RAM
    of its ``node``: the one commit, for one image or a whole epoch.

    For incremental images the committed state is the *merged* full
    payload (old committed snapshot patched with the delta) so that a
    single in-memory object always reconstructs the VM — mirroring the
    merge step Plank describes for incremental diskless checkpoints.
    When the store is the sole owner of the old snapshot, the merge
    steals its buffer and patches the delta in place: a commit costs
    O(dirty pages), not O(image).

    A functional page image is fingerprinted with its per-page CRCs
    (``meta["page_crcs"]``): a full commit hashes the image whole and
    page by page, an incremental one only the dirty pages, moving the
    base's recorded checksum by them — bytes the base holds are never
    re-hashed, so rot in them stays detectable.  A base without page
    CRCs (its geometry was unknown) is re-hashed whole.

    The batch runs in passes, not per image: every delta is checked
    against its base before any buffer is taken (a bad one raises
    :class:`HypervisorError` and leaves every VM's last good recovery
    point in place), then the merges, then one pass hashing every new
    page, then one :func:`~repro.cluster.checksum.update_checksum` per
    image geometry moving every checksum, then one store and RAM check
    per node.  A VM may appear once per batch.

    Returns one ``(replaced, committed)`` pair per entry: the checksum
    of the image the commit replaces and of the one it stores (None
    where absent or timing-only), so a caller need not hold either
    image.
    """
    replaced, bases = _checked(entries)
    committed: list[CheckpointImage] = [image for _, image in entries]
    # geometry -> the moving entries, their dirty pages' indices, their
    # page CRC records and their new bytes
    moving: dict[tuple[int, int], tuple[list, list, list, list]] = {}
    whole: list[int] = []
    # indexed, not enumerated: enumerate's reused tuple would hold the
    # base too, and the steal test counts the base's owners
    for i in range(len(bases)):
        base = bases[i]
        if base is None:
            continue
        bases[i] = None
        image = committed[i]
        delta: PageDelta = image.payload
        payload = base.payload
        steal = (
            isinstance(payload, np.ndarray)
            and payload.ndim == 1
            and payload.dtype == np.uint8
            and payload.base is None
            # sole owners: base is held only by the store, our local and
            # getrefcount's argument; its payload only by the attribute,
            # our local and getrefcount's argument
            and sys.getrefcount(base) <= 3
            and sys.getrefcount(payload) <= 3
        )
        merged = payload if steal else base.payload_flat().copy()
        del payload
        delta.apply_to(merged)
        record = base.meta.get("page_crcs")
        # like the buffer, the record moves over unless the base lives on
        # (no new long-lived allocation per commit)
        if record is not None and (not steal or sys.getrefcount(record) > 3):
            record = record.copy()
        meta = dict(image.meta, merged_from_incremental=True)
        if steal:
            # the old image object goes with its buffer: it becomes the
            # merged snapshot
            base.kind, base.epoch = CheckpointKind.FULL, image.epoch
            base.captured_at, base.base_epoch = image.captured_at, image.base_epoch
            base.meta = meta
            committed[i] = base
        else:
            # The committed object is a merged full snapshot: it occupies
            # full-image RAM on the node even though only the delta moved.
            committed[i] = CheckpointImage(
                vm_id=image.vm_id,
                epoch=image.epoch,
                kind=CheckpointKind.FULL,
                logical_bytes=base.logical_bytes,
                captured_at=image.captured_at,
                payload=merged,
                base_epoch=image.base_epoch,
                meta=meta,
            )
        if record is None:
            whole.append(i)
        else:
            meta["page_crcs"] = record
            geometry = (delta.n_pages_total, delta.page_size)
            lists = moving.get(geometry)
            if lists is None:
                moving[geometry] = lists = ([], [], [], [])
            lists[0].append(i)
            lists[1].append(delta.indices)
            lists[2].append(record)
            lists[3].append(delta.pages)
        base = None
    for (n_pages, page_size), (idxs, indices, records, pages) in moving.items():
        new = page_crcs(pages)
        old = np.empty_like(new)
        counts = [len(idx) for idx in indices]
        start = 0
        for idx, record, count in zip(indices, records, counts):
            end = start + count
            record.take(idx, None, old[start:end])
            record[idx] = new[start:end]
            start = end
        sums = update_checksum(
            [replaced[i] for i in idxs], counts, np.concatenate(indices),
            old, new, n_pages, page_size,
        )
        for i, checksum in zip(idxs, sums):
            committed[i].meta["checksum"] = checksum
    for i in whole:
        committed[i].meta["checksum"] = block_checksum(committed[i].payload)
    _fingerprint_full(entries)
    by_node: dict[PhysicalNode, list[CheckpointImage]] = {}
    for (node, _), image in zip(entries, committed):
        images = by_node.get(node)
        if images is None:
            by_node[node] = images = []
        images.append(image)
    for node, images in by_node.items():
        node.store_checkpoints(images)
    return [
        (old, image.meta.get("checksum"))
        for old, image in zip(replaced, committed)
    ]


def _checked(
    entries: Sequence[tuple[PhysicalNode, CheckpointImage]],
) -> tuple[list[int | None], list[CheckpointImage | None]]:
    """Validate a commit batch before it changes anything.  Returns the
    checksum each entry replaces and, for each functional incremental
    image, the committed base its delta patches (None elsewhere)."""
    replaced: list[int | None] = []
    bases: list[CheckpointImage | None] = []
    seen: set[int] = set()
    for i, (node, image) in enumerate(entries):
        vm_id = image.vm_id
        if not node.alive:
            raise NodeError(f"node {node.node_id} is down")
        if vm_id in seen:
            raise HypervisorError(f"vm {vm_id} is committed twice in one batch")
        seen.add(vm_id)
        prev = node.checkpoint_store.get(vm_id)
        replaced.append(None if prev is None else prev.meta.get("checksum"))
        if image.kind != CheckpointKind.INCREMENTAL or image.payload is None:
            bases.append(None)
            continue
        if prev is None or prev.payload is None:
            raise HypervisorError(
                f"incremental commit for vm {vm_id} without a "
                "functional base checkpoint"
            )
        delta: PageDelta = image.payload
        n_pages, page_size = delta.n_pages_total, delta.page_size
        base_nbytes = prev.payload.nbytes
        base_crcs = prev.meta.get("page_crcs")
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
        if len(idx):
            lo, hi = int(idx[0]), int(idx[-1])
            if lo < 0 or hi >= n_pages:
                raise HypervisorError(
                    f"incremental commit for vm {vm_id}: delta pages "
                    f"[{lo}, {hi}] outside the committed image's "
                    f"{n_pages} pages"
                )
        bases.append(prev)
    return replaced, bases


def _fingerprint_full(
    entries: Sequence[tuple[PhysicalNode, CheckpointImage]],
) -> None:
    """Fingerprint the batch's full functional images: the checksum of
    the bytes, and the page CRCs of every image whose VM's geometry is
    known, all page sizes hashed in one pass each."""
    by_size: dict[int, list[tuple[CheckpointImage, np.ndarray]]] = {}
    for node, image in entries:
        if not isinstance(image.payload, np.ndarray):
            continue  # a delta (merged above) or timing-only
        flat = image.payload_flat()
        image.meta["checksum"] = block_checksum(flat)
        vm = node.vms.get(image.vm_id)
        if vm is None or vm.image is None or vm.image.nbytes != flat.nbytes:
            continue
        found = by_size.get(vm.image.page_size)
        if found is None:
            by_size[vm.image.page_size] = found = []
        found.append((image, flat.reshape(vm.image.n_pages, vm.image.page_size)))
    for found in by_size.values():
        records = page_crcs([pages for _, pages in found])
        start = 0
        for image, pages in found:
            image.meta["page_crcs"] = records[start : start + len(pages)]
            start += len(pages)
