"""Rolling node maintenance: drain → migrate → re-home parity → rejoin.

The drain path is where the control plane finally exercises
:func:`repro.migration.precopy.live_migrate` end to end over real
network flows, under the strict auditor, with **zero unprotected
windows**:

1. every VM on the draining node live-migrates to a home that keeps
   its group orthogonal (:func:`_drain_target`: the member rule of
   :func:`~repro.core.recovery.member_homes`, domain-spread first and
   never degraded);
2. the VM's committed checkpoint image moves with it — *staged* on the
   destination before the migration starts, *promoted* (source copy
   dropped) only after the VM lands, so at every instant the parity
   equation can be audited against the image at the VM's current home;
3. functional images are checksum-verified: the post-migration payload
   must equal the pre-migration fingerprint bit-for-bit;
4. parity shards homed on the draining node (any slot of any coding
   scheme) are re-encoded onto fresh nodes via the protocol's own
   :meth:`~repro.core.dvdc.DisklessCheckpointer.rehome_shards`,
   which keeps each old block until the new one is stored;
5. the empty node is cleanly deactivated, maintained, and rejoined.

A strict :func:`repro.audit.invariants.audit_cluster` sweep runs after
every single step, so any gap — however short in sim-time — fails loud.
Transient network faults are ridden out with bounded retries.
"""

from __future__ import annotations

from ..cluster.checksum import block_checksum
from ..core.groups import LayoutError
from ..core.recovery import DisklessRecoveryReport, least_loaded, member_homes
from ..migration.precopy import live_migrate
from ..network.link import NetworkError
from .scheduler import PlacementError

__all__ = ["drain_node", "migrate_with_verify"]

DRAIN_RETRIES = 3  # after waits of 0.5, 1 and 2 s
DRAIN_RETRY_WAIT = 0.5


def _retrying(sim, attempt):
    """Process: ``yield from attempt()``, retrying a :class:`NetworkError`
    with doubling backoff; the last attempt's error propagates."""
    for retry in range(DRAIN_RETRIES):
        try:
            return (yield from attempt())
        except NetworkError:
            yield sim.timeout(DRAIN_RETRY_WAIT * 2 ** retry)
    return (yield from attempt())


def migrate_with_verify(cp, vm, dst_node_id: int):
    """Process: live-migrate ``vm`` with retries + checksum verification.

    Transient :class:`NetworkError` aborts are retried (:func:`_retrying`).
    For functional VMs the live image is fingerprinted before and after;
    a mismatch raises (and counts) — the migration machinery must be
    bit-exact.  Returns the :class:`~repro.migration.precopy.PrecopyResult`.
    """
    pre = block_checksum(vm.image.flat) if vm.image is not None else None
    result = yield from _retrying(
        cp.cluster.sim,
        lambda: live_migrate(cp.cluster, vm, dst_node_id, tracer=cp.tracer),
    )
    verified = None
    if pre is not None:
        verified = block_checksum(vm.image.flat) == pre
    cp.probe.count(
        "repro_controlplane_migrations_total",
        help="Drain/rebalance live migrations completed",
        verified={None: "n/a", True: "yes", False: "no"}[verified],
    )
    if verified is False:
        raise RuntimeError(
            f"vm {vm.vm_id}: post-migration image fails its pre-migration "
            "checksum — live migration corrupted guest memory"
        )
    if verified:
        cp.verified_migrations += 1
    cp.migrations.append(result)
    return result


def _stage_committed(cp, vm, src: int, dst: int):
    """Process: copy the VM's committed image to ``dst`` (source kept).

    While the copy streams — and all through the migration that follows
    — the authoritative committed image is still the one at the VM's
    current node, so audits never see a hole.
    """
    img = cp.cluster.node(src).checkpoint_store.get(vm.vm_id)
    if img is None:
        return None  # unprotected VM (no committed epoch yet): nothing to move

    def transfer():
        yield cp.ck._transfer(
            src, dst, img.logical_bytes, label=f"drain.ckpt.vm{vm.vm_id}"
        )

    yield from _retrying(cp.cluster.sim, transfer)
    cp.cluster.node(dst).store_checkpoint(img)
    return img


def _promote_committed(cp, vm, src: int, dst: int, img) -> None:
    """Drop the source copy once the VM runs at ``dst`` (instantaneous —
    no yield between the VM landing and the promotion, so there is no
    audit-visible instant with the image on the wrong side)."""
    if img is None:
        return
    src_store = cp.cluster.node(src).checkpoint_store
    if src_store.get(vm.vm_id) is img:
        del src_store[vm.vm_id]


def _unstage_committed(cp, vm, dst: int, img) -> None:
    """Back out a staged copy after a failed migration."""
    if img is None:
        return
    dst_store = cp.cluster.node(dst).checkpoint_store
    if dst_store.get(vm.vm_id) is img:
        del dst_store[vm.vm_id]


def _drain_target(cp, vm) -> int:
    """Where a drain moves ``vm``: the first or second
    :func:`~repro.core.recovery.member_homes` tier, never a degraded
    home (:class:`PlacementError`); a VM in no group yet goes anywhere."""
    exclude = cp.ck.recovery_exclude(set())
    try:
        group = cp.layout.group_of(vm.vm_id)
    except LayoutError:
        return cp.engine.choose_host(exclude=exclude)
    spread, clear, _ = member_homes(
        cp.cluster, group, vm.vm_id, exclude, cp.ck.domains
    )
    if not clear:
        raise PlacementError(
            f"no orthogonality-preserving target for vm {vm.vm_id}"
        )
    return least_loaded(spread or clear)


def drain_node(cp, node_id: int) -> dict:
    """Process: fully evacuate ``node_id`` and power it down cleanly.

    Caller (the drain op) holds the protocol lock and has already placed
    the node in the maintenance set.  Returns a summary dict.
    """
    cluster = cp.cluster
    sim = cluster.sim
    node = cluster.node(node_id)
    if not node.alive:
        raise RuntimeError(f"node {node_id} is down; drain needs a live node")
    span = cp.probe.span_begin("controlplane.drain", sim.now, node=node_id)
    moved_vms: dict[int, int] = {}
    moved_parity: dict[int, int] = {}

    # ---- live-migrate every resident VM (committed image rides along)
    for vm in sorted(cluster.vms_on(node_id), key=lambda v: v.vm_id):
        dst = _drain_target(cp, vm)
        img = yield from _stage_committed(cp, vm, node_id, dst)
        try:
            yield from migrate_with_verify(cp, vm, dst)
        except BaseException:
            _unstage_committed(cp, vm, dst, img)
            raise
        _promote_committed(cp, vm, node_id, dst, img)
        moved_vms[vm.vm_id] = dst
        cp.audit(f"drain node {node_id}: vm {vm.vm_id} -> {dst}")

    # ---- re-encode parity shards homed here onto fresh nodes
    for group in list(cp.layout.groups_with_parity_on(node_id)):
        slots = [j for j, home in enumerate(group.parity_nodes) if home == node_id]

        def rehome():
            report = DisklessRecoveryReport(failed_node=node_id)
            yield from cp.ck.rehome_shards(group, slots, report)
            if group.group_id not in report.reencoded_groups:
                # rehome_shards returns without re-encoding when a
                # transfer failed (or a member just died): retry alike
                raise NetworkError(
                    f"group {group.group_id}: could not re-home parity off "
                    f"node {node_id}"
                )

        yield from _retrying(sim, rehome)
        new_home = cp.layout.group_of(group.member_vm_ids[0]).parity_nodes[slots[0]]
        moved_parity[group.group_id] = new_home
        cp.audit(f"drain node {node_id}: parity g{group.group_id} -> {new_home}")

    # ---- node is now empty: clean power-down for maintenance
    node.deactivate()
    cp.audit(f"drain node {node_id}: deactivated")
    cp.probe.span_end(span, sim.now, vms=len(moved_vms), parity=len(moved_parity))
    cp.tracer.emit(
        sim.now, "controlplane.drained", node=node_id,
        vms=len(moved_vms), parity_groups=len(moved_parity),
    )
    return {
        "node": node_id,
        "migrated_vms": moved_vms,
        "moved_parity_groups": moved_parity,
    }
