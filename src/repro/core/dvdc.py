"""The diskless checkpoint protocol over a RAID group layout.

:class:`DisklessCheckpointer` implements the checkpoint and recovery
protocols of Section IV for *any* :class:`~repro.core.groups.GroupLayout`
— the Fig. 1 first-shot layout, the Fig. 3 dedicated-checkpoint-node
layout, and the Fig. 4 DVDC layout are the same protocol pointed at
different parity placements (that observation is the paper's own
narrative arc).  Convenience constructors for the three architectures
live in :mod:`repro.core.architectures`.  The erasure code is a
:class:`~repro.coding.CodingScheme` with ``m`` parity shards per group;
the paper's single XOR parity block is the ``m = 1`` scheme and runs
the same code as RDP or RS(k, m) — "the parity node" below reads "each
of the group's ``m`` shard homes" in general.

Checkpoint cycle (one epoch):

1. **capture** — coordinated barrier pause (strategy-dependent cost);
2. **exchange** — each member streams its (compressed) capture to its
   group's parity node.  Under the Fig. 4 layout these flows ride
   disjoint NIC pairs and proceed in parallel; under Figs. 1/3 they
   fan into one node and serialize — the architectural contrast the
   model quantifies;
3. **parity** — the parity node XORs the member data into a *staged*
   parity block (one XOR engine per node: concurrent groups with parity
   on the same node serialize, distributed parity parallelizes —
   Section IV-B's "relieve the CPU burden by a factor linear in the
   amount of machines");
4. **commit** — two-phase: staged parity blocks and captured member
   images replace the previous epoch everywhere, atomically at the
   commit timestamp.  Until then the previous epoch remains fully
   recoverable.

Incremental epochs move only dirty data.  A scheme that folds deltas
(XOR, and RS through the members' columns of its generator) folds
``old ⊕ new`` of the dirty pages into the staged copy of the previous
shards — the RAID-5 small-write optimization applied to checkpoints;
any other scheme (RDP, replication), and any group with a full capture
or a shard without its previous block, materializes each member
(committed base + dirty pages) and re-encodes its shards whole.  A VM
with no committed image (provisioned or salvaged mid-run) has no base
to diff against and is captured full.  Every
block's ``member_checksums`` are the CRCs the commit takes of the
members' bytes, except XOR-folded blocks, which record none; an
XOR-folded block's own checksum is derived from those CRCs
(:meth:`~repro.coding.CodingScheme.fold_checksum`), not hashed.

Recovery (after a node crash): every surviving VM rolls back to its
local in-memory checkpoint (a memory copy — no disk, no network); each
group that lost a member rebuilds it from survivors + parity at the
parity node and ships the image to a replacement node; groups that lost
their parity block re-encode onto a new node.  See
:class:`~repro.core.recovery.DisklessRecoveryReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from ..checkpoint.base import (
    CaptureOutcome,
    CaptureStrategy,
    CheckpointCycleResult,
    Unrecoverable,
)
from ..checkpoint.compression import NO_COMPRESSION, CompressionModel
from ..checkpoint.coordinator import CoordinatedCheckpoint
from ..checkpoint.strategies import ForkedCapture
from ..cluster.checksum import block_checksum
from ..cluster.cluster import VirtualCluster
from ..cluster.hypervisor import commit_checkpoints
from ..cluster.images import CheckpointImage, CheckpointKind, ParityBlock
from ..cluster.memory import PageDelta
from ..cluster.vm import VMState
from ..coding import CodingScheme, get_scheme, shard_key, shard_suffix
from ..network.link import NetworkError
from ..sim import AllOf, NULL_TRACER, Resource, Tracer
from ..telemetry import probe_of
from .groups import GroupLayout, LayoutError, RaidGroup
from .recovery import (
    DisklessRecoveryReport,
    choose_parity_node,
    choose_restore_node,
    respread_groups,
    revive_empty,
)

__all__ = ["DisklessCheckpointer", "DisklessCycleResult", "DEFAULT_XOR_BANDWIDTH"]

#: In-memory XOR throughput default (bytes/second) — DDR3-era streaming.
DEFAULT_XOR_BANDWIDTH = 4e9

_ALIVE = attrgetter("alive")


@dataclass
class DisklessCycleResult(CheckpointCycleResult):
    """Cycle accounting plus the per-node parity workload split."""

    xor_seconds_by_node: dict[int, float] = field(default_factory=dict)
    #: groups whose exchange died (node crash, or retries exhausted on a
    #: transient outage); non-empty forces the epoch to abort even when
    #: no node failure bumped the failure epoch
    failed_groups: list[int] = field(default_factory=list)

    @property
    def max_node_xor_seconds(self) -> float:
        return max(self.xor_seconds_by_node.values(), default=0.0)

    @property
    def total_xor_seconds(self) -> float:
        return sum(self.xor_seconds_by_node.values())


class DisklessCheckpointer:
    """Diskless checkpoint/recovery over a group layout."""

    def __init__(
        self,
        cluster: VirtualCluster,
        layout: GroupLayout,
        strategy: CaptureStrategy | None = None,
        compression: CompressionModel = NO_COMPRESSION,
        xor_bandwidth: float = DEFAULT_XOR_BANDWIDTH,
        tracer: Tracer = NULL_TRACER,
        auditor=None,
        retry=None,
        retry_rng=None,
        scheme: CodingScheme | str | None = None,
        domains=None,
    ):
        if not xor_bandwidth > 0:  # NaN would charge no encode time
            raise ValueError(f"xor_bandwidth must be > 0, got {xor_bandwidth}")
        self.cluster = cluster
        self.layout = layout
        #: the erasure-coding scheme protecting every group (default: the
        #: paper's single-parity XOR, the ``m = 1`` instance of the one
        #: m-shard protocol below)
        self.scheme = get_scheme(scheme)
        self.strategy = strategy or ForkedCapture()
        self.compression = compression
        self.xor_bandwidth = xor_bandwidth
        self.tracer = tracer
        self._probe = probe_of(tracer)
        #: optional :class:`repro.resilience.retry.RetryPolicy`; when set,
        #: every protocol transfer retries transient failures with backoff
        self.retry = retry
        self.retry_rng = retry_rng
        #: optional audit hook (``post_cycle``/``post_recovery``/
        #: ``post_capture``); see :class:`repro.audit.Auditor`.  Duck-typed
        #: so the core stays import-free of :mod:`repro.audit`.
        self.auditor = auditor
        #: optional :class:`~repro.failures.domains.FailureDomainMap`:
        #: recovery placement then prefers nodes whose failure domain
        #: holds no other element of the group (geo-spread policy)
        self.domains = domains
        #: optional zero-arg callable returning node ids recovery must
        #: not place onto (controlplane maintenance/fencing cordons);
        #: composed into every chooser's exclusion set
        self.cordons = None
        self.coordinator = CoordinatedCheckpoint(
            cluster, self.strategy, tracer, auditor
        )
        self.epoch = 0
        self.committed_epoch = -1
        self.last_cycle_at: float | None = None
        self.history: list[DisklessCycleResult] = []
        # one parity/XOR engine per node: groups sharing a parity node
        # serialize their XOR work there
        self._xor_engines = {
            n.node_id: Resource(cluster.sim, capacity=1) for n in cluster.nodes
        }

    def attach_auditor(self, auditor) -> None:
        """Install (or replace) the audit hook after construction."""
        self.auditor = auditor
        self.coordinator.auditor = auditor

    # ------------------------------------------------------------------
    # recovery placement constraints
    # ------------------------------------------------------------------
    def recovery_exclude(self, base: set[int]) -> set[int]:
        """Exclusion set for recovery placement: the crash being handled
        plus any controlplane cordons (maintenance / fencing) — a drain
        in progress must never become a parity or restore target."""
        if self.cordons is not None:
            return base | set(self.cordons())
        return base

    # ------------------------------------------------------------------
    # transfers (retry seam)
    # ------------------------------------------------------------------
    def _transfer(self, src: int, dst: int, size: float, label: str):
        """One protocol transfer: a plain :class:`~repro.network.link.Flow`,
        or — when a retry policy is installed — a process that re-issues
        the flow on transient failures with exponential backoff.  Either
        way the result is yieldable and fails with a
        :class:`~repro.network.link.NetworkError` subclass."""
        if self.retry is None:
            return self.cluster.topology.transfer(src, dst, size, label=label)
        # Deferred import: resilience sits above core in the layering.
        from ..resilience.retry import retrying_transfer

        return self.cluster.sim.process(retrying_transfer(
            self.cluster.sim,
            lambda: self.cluster.topology.transfer(src, dst, size, label=label),
            self.retry,
            rng=self.retry_rng,
            probe=self._probe,
            label=label,
        ))

    # ------------------------------------------------------------------
    # checkpoint cycle
    # ------------------------------------------------------------------
    def _encode_at(self, node_id: int, nbytes: float):
        """Process: hold ``node_id``'s encode engine for ``nbytes`` of
        streaming XOR/GF work (groups sharing a shard home serialize)."""
        engine = self._xor_engines[node_id]
        yield engine.request()
        try:
            seconds = nbytes / self.xor_bandwidth
            if seconds > 0:
                yield self.cluster.sim.timeout(seconds)
        finally:
            engine.release()

    def _shard_block(
        self,
        group: RaidGroup,
        j: int,
        epoch: int,
        logical_bytes: float,
        shards: list[np.ndarray] | None,
        member_checksums: dict[int, int],
        checksum: int | None = None,
    ) -> ParityBlock:
        """Shard ``j`` of ``group`` as a store-ready block, keyed with
        :func:`repro.coding.shard_key`; ``shards=None`` is timing-only.
        Its bytes are hashed unless the fold derived their ``checksum``."""
        data = None if shards is None else shards[j]
        if data is not None and checksum is None:
            checksum = block_checksum(data)
        return ParityBlock(
            group_id=shard_key(group.group_id, j),
            epoch=epoch,
            member_vm_ids=group.member_vm_ids,
            logical_bytes=logical_bytes,
            data=data,
            checksum=checksum,
            member_checksums=dict(member_checksums),
        )

    def _group_cycle(
        self,
        group: RaidGroup,
        outcomes: dict[int, CaptureOutcome],
        result: DisklessCycleResult,
        pending: list,
        staged_commits: dict[int, CheckpointImage],
        bases: dict[int, CheckpointImage],
    ):
        """Process: m-way exchange + validation for one group; the shard
        bytes themselves are encoded by the commit-time batched flush.

        Every member ships its capture to *each* of the scheme's ``m``
        shard homes (the m-way traffic the scheme's ``traffic_factor``
        models), and each home charges its encode engine.  The committed
        image a member's delta patches is looked up here, once, into
        ``bases`` (vm id -> image) for the flush.
        """
        sim = self.cluster.sim
        nodes = self.cluster.nodes
        vms = self.cluster.vms
        gid = group.group_id
        homes = group.parity_nodes
        if not all(map(_ALIVE, map(nodes.__getitem__, homes))):
            # a shard home died before the exchange even started (its
            # RAM — including any previous shard — is gone); the group
            # contributes nothing and the epoch aborts
            result.failed_groups.append(gid)
            return
        flows = []
        member_images: list[CheckpointImage] = []
        raw_bytes = 0.0
        transfer = self._transfer
        output_bytes = self.compression.output_bytes
        suffixes = [(home, shard_suffix(j)) for j, home in enumerate(homes)]
        for vm_id in group.member_vm_ids:
            outcome = outcomes.get(vm_id)
            if outcome is None:  # VM failed before capture
                continue
            image = outcome.image
            node_id = vms[vm_id].node_id
            assert node_id is not None
            member_images.append(image)
            if isinstance(image.payload, PageDelta):
                base = nodes[node_id].checkpoint_store.get(vm_id)
                if base is None or base.payload is None:
                    raise RuntimeError(
                        f"vm {vm_id}: incremental epoch without committed base"
                    )
                bases[vm_id] = base
            wire = output_bytes(image.logical_bytes)
            raw_bytes += image.logical_bytes
            label = f"dvdc.g{gid}.vm{vm_id}.e{image.epoch}"
            for home, suffix in suffixes:
                result.network_bytes += wire
                flows.append(transfer(node_id, home, wire, label=label + suffix))
        if not member_images:
            return
        try:
            yield AllOf(sim, flows)
        except NetworkError:
            # a node died mid-exchange, or a transient outage outlived
            # the retry budget; either way this group contributes
            # nothing and the epoch aborts (failed_groups guard)
            result.failed_groups.append(gid)
            return
        # encode at every shard home (serialized per node across groups)
        xor_seconds = result.xor_seconds_by_node
        for home in homes:
            if not nodes[home].alive:
                result.failed_groups.append(gid)
                return
            yield from self._encode_at(home, raw_bytes)
            result.parity_bytes += raw_bytes
            xor_seconds[home] = (
                xor_seconds.get(home, 0.0) + raw_bytes / self.xor_bandwidth
            )

        # Validate and *register* the encode; the numeric work happens
        # once per epoch in _flush_encodes, batched across every group,
        # on the commit path only.  The checks a delta fold depends on
        # (shard-home aliveness, previous-block checksum, member sizes
        # the scheme can fold) stay right here.  A group folds only when
        # every member sent a delta and every shard home holds its
        # previous block; any other group (a base-less VM's full
        # capture, a shard re-homed since the commit) is encoded whole.
        prev = None
        if self.scheme.folds_deltas and all(
            isinstance(img.payload, PageDelta) for img in member_images
        ):
            if not all(map(_ALIVE, map(nodes.__getitem__, homes))):
                # died between the encode above and the fold
                result.failed_groups.append(gid)
                return
            prev = self._shard_blocks(group)
            if any(blk is None or blk.data is None for blk in prev):
                prev = None
        for blk in prev or ():
            if blk.checksum is not None and block_checksum(blk.data) != blk.checksum:
                # folding a delta into rotten parity would produce a
                # self-consistently-checksummed wrong block — refuse
                raise RuntimeError(
                    f"group {gid}: previous parity block fails "
                    "its checksum — silent corruption; scrub or run a "
                    "full epoch before folding increments"
                )
        for img in member_images if prev else ():
            delta = img.payload
            nbytes = delta.n_pages_total * delta.page_size
            for blk in prev:
                why = self.scheme.fold_mismatch(nbytes, blk.data.shape[0])
                if why is not None:
                    raise RuntimeError(f"group {gid}, vm {img.vm_id}: {why}")
        pending.append((group, member_images, prev))
        for img in member_images:
            staged_commits[img.vm_id] = img

    def _flush_encodes(
        self, pending: list, bases: dict[int, CheckpointImage]
    ) -> list[tuple]:
        """Commit-time batched shard encode.

        ``pending`` holds one ``(group, member_images, prev_blocks)``
        record per surviving group, registered in exchange completion
        order; ``bases`` the committed image each delta patches, as the
        exchange found it.  All full-image groups go through one
        :meth:`~repro.coding.CodingScheme.encode_many` call; incremental
        captures are either folded into ``prev_blocks`` by
        :meth:`~repro.coding.CodingScheme.fold_many` (schemes that fold
        deltas: XOR, RS) or materialized — committed base + dirty pages
        — and encoded whole with the rest.

        Returns one ``(group, member_images, shards, prev_blocks)``
        record per pending group: the shard-index-ordered shard bytes
        (None for a timing-only group), and the previous blocks a folded
        group's shards came from (None for an encoded group).  The fold
        reads the committed images only for its call; the caller drops
        ``bases`` after it, so the commit that follows can still patch
        each one in place.
        """
        flats: dict[int, list[np.ndarray]] = {}
        fold: list[int] = []
        for i, (_group, images, prev) in enumerate(pending):
            if any(img.payload is None for img in images):
                continue  # timing-only group: blocks carry no bytes
            if prev is not None:
                fold.append(i)
                continue
            members = []
            for img in images:
                if isinstance(img.payload, PageDelta):
                    full = bases[img.vm_id].payload_flat().copy()
                    img.payload.apply_to(full)
                    members.append(full)
                else:
                    members.append(img.payload_flat())
            flats[i] = members
        shards = dict(zip(flats, self.scheme.encode_many(list(flats.values()))))
        if fold:
            updates = []
            for i in fold:
                group, images, _prev = pending[i]
                deltas = {img.vm_id: img.payload for img in images}
                # one entry per group member, at its encode column
                updates.append([
                    (bases[v].payload_flat(), deltas[v]) if v in deltas else None
                    for v in group.member_vm_ids
                ])
            folded = self.scheme.fold_many(
                [[blk.data for blk in pending[i][2]] for i in fold], updates
            )
            shards.update(zip(fold, folded))
        return [
            (group, images, shards.get(i), prev)
            for i, (group, images, prev) in enumerate(pending)
        ]

    def run_cycle(self, pause_done=None):
        """Process: one coordinated diskless checkpoint epoch.

        Returns a :class:`DisklessCycleResult`.  Overhead is the barrier
        pause; latency runs until the commit point (all parity staged).

        ``pause_done`` — optional :class:`~repro.sim.process.SimEvent`
        succeeded the moment the capture barrier lifts and guests resume.
        Overlapped runners (``CheckpointedJob(overlap=True)``) wait on it
        to restart useful work while the exchange/XOR completes in the
        background — the latency-vs-overhead separation the paper argues
        diskless checkpointing is really about.

        Two-phase safety: if any node fails between capture and commit,
        the whole epoch is *aborted* (``result.committed == False``) and
        the previous epoch remains the recovery point.  The caller must
        run recovery (which rolls every VM back) before the next cycle.
        """
        sim = self.cluster.sim
        start = sim.now
        epoch = self.epoch
        failure_snapshot = self.cluster.failure_epoch
        elapsed = (start - self.last_cycle_at) if self.last_cycle_at is not None else start
        nodes = self.cluster.nodes
        registry = self.cluster.vms
        vms = [
            vm for vm in map(registry.__getitem__, self.layout.vm_ids)
            if vm.state != VMState.FAILED
        ]
        # the base an incremental capture diffs against is the VM's
        # committed image on its host; a VM without one captures full
        baseless = {
            vm.vm_id for vm in vms
            if vm.vm_id not in nodes[vm.node_id].checkpoint_store
        }
        outcomes_list, pause = yield from self.coordinator.capture_all(
            vms, epoch, elapsed, baseless
        )
        if pause_done is not None and not pause_done.triggered:
            pause_done.succeed(pause)
        result = DisklessCycleResult(epoch=epoch, started_at=start, overhead=pause)
        outcomes: dict[int, CaptureOutcome] = {}
        per_vm_pause = result.per_vm_pause
        for o in outcomes_list:
            vm_id = o.image.vm_id
            outcomes[vm_id] = o
            per_vm_pause[vm_id] = o.pause_seconds

        staged_commits: dict[int, CheckpointImage] = {}
        pending: list = []
        bases: dict[int, CheckpointImage] = {}
        group_procs = [
            sim.process(self._group_cycle(
                g, outcomes, result, pending, staged_commits, bases
            ))
            for g in self.layout.groups
        ]
        if group_procs:
            yield AllOf(sim, group_procs)

        # ---- commit point: atomic swap of the whole epoch ----
        if self.cluster.failure_epoch != failure_snapshot or result.failed_groups:
            # a node died mid-cycle, or a group's exchange was lost to a
            # transient outage: abort; previous epoch stays valid
            result.latency = sim.now - start
            result.committed = False
            self.history.append(result)
            # aborted incremental captures already consumed the dirty log;
            # re-mark their pages so the next epoch's delta covers them
            for o in outcomes_list:
                img = o.image
                if img.kind == CheckpointKind.INCREMENTAL and isinstance(
                    img.payload, PageDelta
                ):
                    vm = registry[img.vm_id]
                    if vm.node_id is not None and vm.image is not None:
                        vm.image.touch_pages(img.payload.indices)
            self.tracer.emit(
                sim.now, "diskless.cycle_aborted", epoch=epoch,
                failed_groups=list(result.failed_groups),
            )
            if self.auditor is not None:
                self.auditor.post_cycle(self, result)
            return result
        encoded = self._flush_encodes(pending, bases)
        # the commit may patch these committed images in place: let go
        bases.clear()
        # one batched commit of every member; it fingerprints their
        # bytes, blocks record those CRCs rather than taking their own,
        # and a folded shard moves its checksum by the members'
        # (replaced, committed) pairs
        staged = [
            (nodes[node_id], image)
            for vm_id, image in staged_commits.items()
            if (node_id := registry[vm_id].node_id) is not None
        ]
        commits = dict(zip(
            (image.vm_id for _, image in staged), commit_checkpoints(staged)
        ))
        for _, image in staged:
            registry[image.vm_id].epoch = epoch
        fingerprints = {v: new for v, (_, new) in commits.items() if new is not None}
        fold_sums = self.scheme.folded_member_checksums
        for group, images, shards, prev in encoded:
            member_checksums = {
                img.vm_id: fingerprints[img.vm_id]
                for img in images
                if (prev is None or fold_sums) and img.vm_id in fingerprints
            }
            logical = max(
                max(img.logical_bytes for img in images),
                max(registry[v].memory_bytes for v in group.member_vm_ids),
            )
            deltas = [commits.get(img.vm_id) for img in images]
            for j, node_id in enumerate(group.parity_nodes):
                crc = None
                if prev is not None and shards is not None:
                    crc = self.scheme.fold_checksum(prev[j].checksum, deltas)
                nodes[node_id].store_parity(self._shard_block(
                    group, j, epoch, logical, shards, member_checksums, crc
                ))
        self.committed_epoch = epoch
        self.epoch += 1
        self.last_cycle_at = sim.now
        result.latency = sim.now - start
        result.committed = True
        self.history.append(result)
        self.tracer.emit(
            sim.now, "diskless.cycle", epoch=epoch, overhead=result.overhead,
            latency=result.latency, network_bytes=result.network_bytes,
            parity_bytes=result.parity_bytes,
        )
        if self.auditor is not None:
            self.auditor.post_cycle(self, result)
        return result

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _rollback_survivor(self, vm_id: int, report: DisklessRecoveryReport):
        """Process: in-memory rollback of one surviving VM."""
        vm = self.cluster.vm(vm_id)
        if vm.node_id is None or vm.state == VMState.FAILED:
            return
        hv = self.cluster.hypervisor(vm.node_id)
        image = hv.committed(vm_id)
        if image is None:
            raise RuntimeError(f"vm {vm_id} has no committed local checkpoint")
        if vm.state == VMState.RUNNING:
            vm.pause()
        # in-memory restore: a local memcpy
        yield self.cluster.sim.timeout(
            vm.memory_bytes / self.xor_bandwidth
        )
        if vm.node_id is None or vm.state == VMState.FAILED:
            return  # node died mid-rollback; requeued failure handles it
        hv.restore(vm, image)
        # resume unconditionally: the VM may have been left paused by an
        # interrupted checkpoint barrier when the failure struck
        if vm.state == VMState.PAUSED:
            vm.resume()
        report.rolled_back.append(vm_id)

    def _shard_blocks(self, group: RaidGroup) -> list[ParityBlock | None]:
        """The group's shard blocks in shard-index order; ``None`` marks a
        shard whose home is dead or whose block is missing."""
        out: list[ParityBlock | None] = []
        for j, node_id in enumerate(group.parity_nodes):
            node = self.cluster.node(node_id)
            blk = (
                node.parity_store.get(shard_key(group.group_id, j))
                if node.alive
                else None
            )
            out.append(blk)
        return out

    def _lost_shard_slots(self, group: RaidGroup) -> list[int]:
        """Shard indices whose home is dead or whose block is missing —
        what :meth:`recover` re-homes.  Slots merely colocated with a
        member are :meth:`heal`'s business."""
        return [j for j, blk in enumerate(self._shard_blocks(group)) if blk is None]

    def _recover_group(
        self, group: RaidGroup, lost_vm_ids: list[int], report: DisklessRecoveryReport
    ):
        """Process: rebuild every lost member of one group via the scheme.

        Handles any erasure pattern within ``scheme.tolerance`` (multiple
        members, members + shards); patterns beyond it raise
        :class:`~repro.checkpoint.base.Unrecoverable`.
        Shards the crash took are re-encoded afterwards in the same pass.
        """
        sim = self.cluster.sim
        gid = group.group_id
        k = len(group.member_vm_ids)
        beyond = f"beyond {self.scheme.name} tolerance {self.scheme.tolerance}"
        shard_blocks = self._shard_blocks(group)
        lost_set = set(lost_vm_ids)
        missing_shards = sum(1 for b in shard_blocks if b is None)
        erasures = len(lost_set) + missing_shards
        staging = next(
            (
                group.parity_nodes[j]
                for j, b in enumerate(shard_blocks)
                if b is not None
            ),
            None,
        )
        # The scheme guarantees any <= tolerance erasures; replication can
        # additionally recover any pattern that leaves one replica alive.
        over_tolerance = erasures > self.scheme.tolerance
        replica_rescue = (
            getattr(self.scheme, "copies", None) is not None and staging is not None
        )
        if (over_tolerance and not replica_rescue) or staging is None:
            raise Unrecoverable(
                f"group {gid} lost {len(lost_set)} members and "
                f"{missing_shards} parity shards — {beyond}"
            )

        survivors = [v for v in group.member_vm_ids if v not in lost_set]
        flows = []
        wire_bytes = 0.0
        decode_bytes = 0.0
        survivor_payloads: dict[int, np.ndarray] = {}
        for v in survivors:
            vm = self.cluster.vm(v)
            if vm.node_id is None:
                raise Unrecoverable(
                    f"group {gid}: survivor vm {v} also lost — {beyond}"
                )
            img = self.cluster.hypervisor(vm.node_id).committed(v)
            if img is None:
                raise Unrecoverable(f"survivor vm {v} has no committed checkpoint")
            decode_bytes += vm.memory_bytes
            if img.payload is not None:
                survivor_payloads[v] = img.payload_flat()
            if vm.node_id != staging:
                wire_bytes += vm.memory_bytes
                flows.append(
                    self._transfer(
                        vm.node_id, staging, vm.memory_bytes,
                        label=f"rebuild.g{gid}.vm{v}",
                    )
                )
        # surviving shards hosted elsewhere stream to the staging node too
        for j, blk in enumerate(shard_blocks):
            home = group.parity_nodes[j]
            if blk is None or home == staging:
                continue
            size = float(blk.data.shape[0]) if blk.data is not None else blk.logical_bytes
            decode_bytes += size
            wire_bytes += size
            flows.append(
                self._transfer(
                    home, staging, size, label=f"rebuild.g{gid}{shard_suffix(j)}"
                )
            )
        if flows:
            try:
                yield AllOf(sim, flows)
            except NetworkError:
                # another node died mid-rebuild; leave the VMs failed —
                # the queued failure's recovery pass retries the group.
                # Aborted transfers never count toward report.network_bytes.
                return
        report.network_bytes += wire_bytes
        if not self.cluster.node(staging).alive:
            raise Unrecoverable(
                f"group {gid}: staging node {staging} died during "
                f"reconstruction — {beyond}"
            )
        decode_bytes += sum(self.cluster.vm(v).memory_bytes for v in lost_set)
        yield from self._encode_at(staging, decode_bytes)
        report.xor_bytes += decode_bytes

        functional = len(survivor_payloads) == len(survivors) and any(
            b is not None and b.data is not None for b in shard_blocks
        )
        rebuilt: dict[int, np.ndarray] = {}
        if functional:
            ref = next(b for b in shard_blocks if b is not None and b.data is not None)
            length = self.scheme.working_length(int(ref.data.shape[0]), k)
            decoded = self.scheme.reconstruct(
                [survivor_payloads.get(v) for v in group.member_vm_ids],
                [None if b is None else b.data for b in shard_blocks],
                nbytes=length,
            )
            # any surviving block carries the members' commit-time CRCs
            expected = next(b for b in shard_blocks if b is not None).member_checksums
            for idx, v in enumerate(group.member_vm_ids):
                if v not in lost_set:
                    continue
                lost_vm = self.cluster.vm(v)
                nbytes = (
                    lost_vm.image.nbytes if lost_vm.image is not None else length
                )
                img_bytes = decoded[idx][:nbytes].copy()
                expect = expected.get(v)
                if expect is not None and block_checksum(img_bytes) != expect:
                    raise Unrecoverable(
                        f"vm {v}: rebuilt image fails its end-to-end checksum "
                        "— a survivor image or a parity shard is silently "
                        "corrupt; scrub before recovering"
                    )
                rebuilt[v] = img_bytes

        # ship each rebuilt image to its new home and restore
        for v in lost_vm_ids:
            lost_vm = self.cluster.vm(v)
            target = choose_restore_node(
                self.cluster, group, v,
                exclude=self.recovery_exclude({report.failed_node}),
                domains=self.domains,
            )
            if target != staging:
                flow = self._transfer(
                    staging, target, lost_vm.memory_bytes,
                    label=f"restore.g{gid}.vm{v}",
                )
                try:
                    yield flow
                except NetworkError:
                    return  # destination (or source) died; retried later
                report.network_bytes += lost_vm.memory_bytes
            self.cluster.place_failed_vm(v, target)
            hv = self.cluster.hypervisor(target)
            image = CheckpointImage(
                vm_id=v,
                epoch=self.committed_epoch,
                kind=CheckpointKind.FULL,
                logical_bytes=lost_vm.memory_bytes,
                captured_at=sim.now,
                payload=rebuilt.get(v),
                meta={"reconstructed": True},
            )
            if rebuilt.get(v) is not None or lost_vm.image is None:
                hv.restore(lost_vm, image)
            else:  # functional VM but timing-only parity: revive without bytes
                lost_vm.revive()
            hv.commit_checkpoint(image)
            report.reconstructed[v] = target
            self.tracer.emit(
                sim.now, "diskless.rebuild", vm=v, group=gid, target=target,
            )
        # re-home any shard slots this crash emptied
        slots = self._lost_shard_slots(group)
        if slots:
            yield from self.rehome_shards(group, slots, report)

    def shard_homes(
        self, group: RaidGroup, slots: list[int], failed_node: int = -1
    ) -> list[int]:
        """``group``'s shard homes with each of ``slots`` moved to a
        fresh node: one that avoids ``failed_node``, the cordons and the
        group's other shard homes (and, with :attr:`domains`, their
        failure domains where it can).  Raises
        :class:`~repro.checkpoint.base.Unrecoverable` when no node is
        left to hold a shard."""
        homes = list(group.parity_nodes)
        for j in slots:
            taken = {h for i, h in enumerate(homes) if i != j}
            avoid = frozenset(
                self.domains.domain_of(h)
                for h in taken
                if self.cluster.node(h).alive
            ) if self.domains is not None else frozenset()
            homes[j] = choose_parity_node(
                self.cluster, self.layout, group,
                exclude=self.recovery_exclude({failed_node} | taken),
                domains=self.domains,
                avoid_domains=avoid,
            )
        return homes

    def rehome_shards(
        self, group: RaidGroup, slots: list[int], report: DisklessRecoveryReport
    ):
        """Process: re-encode shard ``slots`` of ``group`` onto fresh homes.

        The one re-home path: recovery passes the slots a crash emptied,
        :meth:`heal` the slots it found misplaced, a controlplane drain
        the slots homed on the node it is emptying.  New homes avoid
        ``report.failed_node``, the cordons and the group's other shard
        homes; all ``m`` shards are recomputed from the committed member
        images (one encode) and the requested slots stored — each old
        block is dropped only after its replacement is in place.
        """
        sim = self.cluster.sim
        gid = group.group_id
        homes = self.shard_homes(group, slots, report.failed_node)
        payloads = []
        total = 0.0
        for v in group.member_vm_ids:
            vm = self.cluster.vm(v)
            if vm.node_id is None:
                # a member just died too: the queued failure's recovery
                # will rebuild it and re-encode this group afterwards
                return
            img = self.cluster.hypervisor(vm.node_id).committed(v)
            if img is None:
                raise Unrecoverable(f"vm {v} has no committed checkpoint to re-encode")
            total += vm.memory_bytes
            if img.payload is not None:
                payloads.append(img.payload_flat())
        flows = []
        wire_bytes = 0.0
        for j in slots:
            for v in group.member_vm_ids:
                vm = self.cluster.vm(v)
                if vm.node_id != homes[j]:
                    wire_bytes += vm.memory_bytes
                    flows.append(
                        self._transfer(
                            vm.node_id, homes[j], vm.memory_bytes,
                            label=f"reencode.g{gid}.vm{v}{shard_suffix(j)}",
                        )
                    )
        if flows:
            try:
                yield AllOf(sim, flows)
            except NetworkError:
                # retried by the queued failure's recovery; dead transfers
                # contribute nothing to the accounting
                return
        report.network_bytes += wire_bytes
        for j in slots:
            yield from self._encode_at(homes[j], total)
            report.xor_bytes += total
        if not all(self.cluster.node(homes[j]).alive for j in slots):
            # a new home died mid-encode: as for a failed transfer, the
            # queued failure's recovery (or the next heal) retries
            return
        functional = payloads and len(payloads) == len(group.member_vm_ids)
        shards = self.scheme.encode(payloads) if functional else None
        member_checksums = (
            {v: block_checksum(p) for v, p in zip(group.member_vm_ids, payloads)}
            if functional
            else {}
        )
        logical = max(self.cluster.vm(v).memory_bytes for v in group.member_vm_ids)
        for j in slots:
            block = self._shard_block(
                group, j, self.committed_epoch, logical, shards, member_checksums
            )
            self.cluster.node(homes[j]).store_parity(block)
            # drop the superseded block from the previous home, if any
            old_home = self.cluster.node(group.parity_nodes[j])
            if old_home.alive and old_home.node_id != homes[j]:
                old_home.parity_store.pop(shard_key(gid, j), None)
        # the layout now points the moved shards at their new nodes
        self.layout.replace_group(
            gid, RaidGroup(gid, group.member_vm_ids, homes[0], tuple(homes[1:]))
        )
        if gid not in report.reencoded_groups:
            report.reencoded_groups.append(gid)
        self.tracer.emit(
            sim.now, "diskless.reencode", group=gid, node=homes[slots[0]]
        )

    def _misplaced_shard_slots(self, group: RaidGroup) -> list[int]:
        """Shard slots :meth:`heal` should move: every lost slot (even a
        degraded home beats no shard), plus slots colocated with a
        member — same node, or with :attr:`domains` same failure domain
        — for which a strictly valid new home exists."""
        member_nodes = {
            self.cluster.vm(v).node_id
            for v in group.member_vm_ids
            if self.cluster.vm(v).node_id is not None
        }
        member_doms = (
            {self.domains.domain_of(m) for m in member_nodes}
            if self.domains is not None
            else set()
        )
        homes = group.parity_nodes
        slots = []
        spare: list[int] | None = None  # scanned only for a colocated slot
        for j, blk in enumerate(self._shard_blocks(group)):
            if blk is None:
                slots.append(j)
                continue
            on_member_node = homes[j] in member_nodes
            if not on_member_node and (
                self.domains is None
                or self.domains.domain_of(homes[j]) not in member_doms
            ):
                continue
            if spare is None:
                spare = [
                    n.node_id
                    for n in self.cluster.alive_nodes
                    if n.node_id not in member_nodes and n.node_id not in homes
                ]
            if on_member_node:
                movable = bool(spare)
            else:
                # the current home is safe node-wise: it moves only if a
                # domain-orthogonal home actually exists
                movable = any(
                    self.domains.domain_of(n) not in member_doms for n in spare
                )
            if movable:
                slots.append(j)
        return slots

    def heal(self):
        """Process: restore layout validity after node repairs -- the one
        layout repair every caller runs.

        Post-recovery placements can be *degraded*: with few nodes the
        only place to restore a rebuilt VM is beside another member of
        its group or on one of its shard homes, so one element of slack
        is gone until the crashed node returns.  ``heal`` first moves
        crowded members (:func:`~repro.core.recovery.respread_groups`,
        per :attr:`domains`), then scans for groups with a shard
        co-located with a member (or missing/on a dead node) and
        re-encodes it onto a strictly valid node when one exists.  Call
        it once repairs have landed -- the job, the serving runtime
        (through :class:`~repro.core.recovery.RecoveryDriver`), the
        self-healer and the fuzzer do.  Returns the ids of the groups
        it healed.
        """
        moved = yield from respread_groups(
            self, self.cluster, self.domains, self.tracer
        )
        healed = {self.layout.group_of(v).group_id for v in moved}
        for group in list(self.layout.groups):
            slots = self._misplaced_shard_slots(group)
            if not slots:
                continue
            report = DisklessRecoveryReport(failed_node=-1)
            try:
                yield from self.rehome_shards(group, slots, report)
            except Unrecoverable:
                continue
            healed.add(group.group_id)
        healed = sorted(healed)
        if healed:
            self.tracer.emit(self.cluster.sim.now, "diskless.heal", groups=healed)
        return healed

    def recover(self, failed_node_id: int):
        """Process: full DVDC recovery after ``failed_node_id`` crashed.

        Phases run concurrently where independent: survivor rollbacks
        (local memory copies), per-group member reconstruction (any
        within-tolerance mix of lost members and shards), and shard
        re-encoding.  Returns a
        :class:`~repro.core.recovery.DisklessRecoveryReport`; raises
        :class:`~repro.checkpoint.base.Unrecoverable` when the loss is
        beyond the scheme's tolerance or nothing was ever committed.
        """
        sim = self.cluster.sim
        start = sim.now
        if self.committed_epoch < 0:
            raise Unrecoverable("no committed checkpoint epoch to recover from")
        report = DisklessRecoveryReport(failed_node=failed_node_id)

        lost_by_group: dict[int, list[int]] = {}
        for vm in self.cluster.all_vms:
            if vm.state != VMState.FAILED or vm.node_id is not None:
                continue
            try:
                gid = self.layout.group_of(vm.vm_id).group_id
            except LayoutError:
                # provisioned since the last commit, so no checkpoint
                # holds it: back empty; the next epoch protects it
                revive_empty(
                    self.cluster, vm, self.recovery_exclude({failed_node_id})
                )
                continue
            lost_by_group.setdefault(gid, []).append(vm.vm_id)
        groups_by_id = {g.group_id: g for g in self.layout.groups}
        procs = [
            sim.process(self._recover_group(groups_by_id[gid], lost, report))
            for gid, lost in lost_by_group.items()
        ]
        # groups that lost no member but are missing a shard anywhere
        # (this crash, or a re-encode aborted by an earlier overlapping one)
        for group in self.layout.groups:
            if group.group_id in lost_by_group:
                continue
            slots = self._lost_shard_slots(group)
            if slots:
                procs.append(sim.process(self.rehome_shards(group, slots, report)))
        # all surviving VMs roll back locally
        lost_set = {v for lost in lost_by_group.values() for v in lost}
        for vm_id in self.layout.vm_ids:
            if vm_id not in lost_set:
                procs.append(sim.process(self._rollback_survivor(vm_id, report)))
        if procs:
            yield AllOf(sim, procs)
        report.recovery_time = sim.now - start
        report.restored_epoch = self.committed_epoch
        self.tracer.emit(
            sim.now, "diskless.recovery", node=failed_node_id,
            duration=report.recovery_time, reconstructed=list(report.reconstructed),
        )
        if self.auditor is not None:
            self.auditor.post_recovery(self, report)
        return report
