"""Remus-style asynchronous cross-site replication.

Remus (PAPERS.md) keeps a warm full copy of each VM at a remote host by
streaming checkpoint epochs asynchronously: the primary never waits for
the remote ack, so protection is cheap but the copy *lags* — state
committed inside the lag window is lost if the whole primary site dies
before the stream lands.

:class:`RemusAsyncReplicator` is that pattern as a policy layer over
DVDC: local parity still handles ordinary node loss at LAN speed, while
every committed epoch is additionally shipped over the WAN to a standby
node in the next site.  When a correlated failure exceeds the local
scheme's tolerance (a full-site outage — fate for ``local-parity`` and
plain ``geo-spread`` beyond ``m``), :meth:`salvage_cluster` restores the
dead VMs from their remote copies at whatever epoch the stream had
reached, rolling the survivors back to match and reporting how many
epochs the lag cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.checksum import block_checksum
from ..cluster.images import CheckpointImage, CheckpointKind
from ..cluster.vm import VMState
from ..core.dvdc import DisklessCheckpointer
from ..core.recovery import DisklessRecoveryReport
from ..network.link import NetworkError
from ..sim import AllOf, NULL_TRACER, Tracer
from ..telemetry import probe_of
from .topology import GeoSpec

__all__ = ["RemoteCopy", "RemusSalvageReport", "RemusAsyncReplicator"]


@dataclass
class RemoteCopy:
    """One VM's warm standby image at a remote site."""

    vm_id: int
    node_id: int  # standby home
    epoch: int  # checkpoint epoch the copy holds
    payload: np.ndarray | None  # full flat snapshot (None = timing-only)
    checksum: int | None
    replicated_at: float


@dataclass
class RemusSalvageReport:
    """Outcome of a remote-copy salvage after a beyond-tolerance loss."""

    #: VMs restored from their remote copy (vm_id -> standby node)
    salvaged: dict[int, int] = field(default_factory=dict)
    #: VMs that had no usable copy (never replicated, or standby dead)
    unsalvageable: list[int] = field(default_factory=list)
    #: survivors rolled back to the committed epoch
    rolled_back: list[int] = field(default_factory=list)
    #: committed_epoch − oldest restored copy epoch (0 = no loss window)
    rollback_epochs: int = 0
    salvage_time: float = 0.0


class RemusAsyncReplicator:
    """Asynchronous remote full-copy protection over a geo cluster.

    Each VM gets a fixed standby node in the *next* site
    (``(site + 1) % n_sites``, round-robin within that site), so no
    site's copies live in the site they protect.  Replication rides the
    modeled WAN links — the lag window is whatever the low-bandwidth
    uplinks make it, and is recorded per epoch in :attr:`lag_by_epoch`.
    """

    def __init__(
        self,
        cluster,
        geo: GeoSpec,
        ck: DisklessCheckpointer,
        tracer: Tracer = NULL_TRACER,
    ):
        if geo.n_sites < 2:
            raise ValueError("remus-async needs >= 2 sites")
        self.cluster = cluster
        self.geo = geo
        self.ck = ck
        self.tracer = tracer
        self._probe = probe_of(tracer)
        self.copies: dict[int, RemoteCopy] = {}
        self._standby: dict[int, int] = {}
        self._rr: dict[int, int] = {}  # per-site round-robin cursor
        #: bytes shipped over the WAN by replication (requested)
        self.wan_bytes = 0.0
        #: epoch -> seconds from commit to last remote ack
        self.lag_by_epoch: dict[int, float] = {}
        self.replicated_epochs = 0

    # ------------------------------------------------------------------
    # standby placement
    # ------------------------------------------------------------------
    def standby_node(self, vm_id: int) -> int:
        """The VM's fixed standby home (assigned on first use)."""
        if vm_id not in self._standby:
            vm = self.cluster.vm(vm_id)
            if vm.node_id is None:
                raise RuntimeError(
                    f"vm {vm_id}: cannot assign a standby while homeless"
                )
            site = self.geo.site_of(vm.node_id)
            standby_site = (site + 1) % self.geo.n_sites
            pool = self.geo.nodes_in_site(standby_site)
            cursor = self._rr.get(standby_site, 0)
            self._standby[vm_id] = pool[cursor % len(pool)]
            self._rr[standby_site] = cursor + 1
        return self._standby[vm_id]

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------
    def replicate_epoch(self, committed_at: float | None = None):
        """Process: ship every VM's committed image to its standby.

        Asynchronous by construction — call it *after* a cycle commits;
        the protocol never waits on it.  A VM whose transfer fails
        (WAN outage, node crash) simply keeps its previous copy; the lag
        window grows accordingly.  Returns the number of fresh copies.
        """
        sim = self.cluster.sim
        epoch = self.ck.committed_epoch
        if epoch < 0:
            return 0
        started = sim.now if committed_at is None else committed_at
        procs = [
            sim.process(self._replicate_vm(vm_id))
            for vm_id in sorted(self.ck.layout.vm_ids)
        ]
        if procs:
            yield AllOf(sim, procs)
        fresh = sum(1 for c in self.copies.values() if c.epoch == epoch)
        self.lag_by_epoch[epoch] = sim.now - started
        self.replicated_epochs += 1
        self._probe.observe(
            "repro_geo_remus_lag_seconds", sim.now - started,
            help="Commit-to-remote-ack lag per replicated epoch",
        )
        self.tracer.emit(
            sim.now, "geo.remus.replicated", epoch=epoch, fresh=fresh,
            lag=sim.now - started,
        )
        return fresh

    def _replicate_vm(self, vm_id: int):
        cluster = self.cluster
        vm = cluster.vm(vm_id)
        if vm.node_id is None or vm.state == VMState.FAILED:
            return
        image = cluster.hypervisor(vm.node_id).committed(vm_id)
        if image is None:
            return
        dst = self.standby_node(vm_id)
        size = vm.memory_bytes
        if dst != vm.node_id:
            flow = cluster.topology.transfer(
                vm.node_id, dst, size, label=f"remus.vm{vm_id}"
            )
            try:
                yield flow
            except NetworkError:
                return  # keep the older copy; lag window widens
        payload = None
        checksum = None
        if image.payload is not None:
            payload = image.payload_flat().copy()
            checksum = block_checksum(payload)
        self.wan_bytes += size
        self.copies[vm_id] = RemoteCopy(
            vm_id=vm_id, node_id=dst, epoch=image.epoch, payload=payload,
            checksum=checksum, replicated_at=cluster.sim.now,
        )

    # ------------------------------------------------------------------
    # salvage
    # ------------------------------------------------------------------
    def salvage_cluster(self) -> "RemusSalvageReport":
        """Process: recover a beyond-tolerance loss from remote copies.

        Every failed, homeless VM is re-hosted on its standby node and
        restored from the copy there (a local restore — the bytes
        already crossed the WAN); survivors roll back to the committed
        epoch.  The caller is expected to repair dead nodes, ``heal()``,
        and run a fresh cycle to re-converge epochs before any strict
        audit — salvaged VMs legitimately sit at older epochs until
        then.
        """
        sim = self.cluster.sim
        start = sim.now
        out = RemusSalvageReport()
        lost = [
            vm.vm_id
            for vm in self.cluster.all_vms
            if vm.state == VMState.FAILED and vm.node_id is None
        ]
        lost_set = set(lost)
        roll = DisklessRecoveryReport(failed_node=-1)
        procs = []
        for vm_id in self.ck.layout.vm_ids:
            if vm_id not in lost_set:
                procs.append(
                    sim.process(self.ck._rollback_survivor(vm_id, roll))
                )
        for vm_id in lost:
            procs.append(sim.process(self._salvage_vm(vm_id, out)))
        if procs:
            yield AllOf(sim, procs)
        out.rolled_back = roll.rolled_back
        restored = [
            self.copies[v].epoch for v in out.salvaged
        ]
        if restored:
            out.rollback_epochs = self.ck.committed_epoch - min(restored)
        out.salvage_time = sim.now - start
        self._probe.count(
            "repro_geo_remus_salvages_total", help="Remote-copy salvages run",
        )
        self.tracer.emit(
            sim.now, "geo.remus.salvage", salvaged=sorted(out.salvaged),
            unsalvageable=out.unsalvageable, rollback_epochs=out.rollback_epochs,
        )
        return out

    def _salvage_vm(self, vm_id: int, out: RemusSalvageReport):
        cluster = self.cluster
        copy = self.copies.get(vm_id)
        if copy is None or not cluster.node(copy.node_id).alive:
            out.unsalvageable.append(vm_id)
            return
        if copy.payload is not None and copy.checksum is not None:
            if block_checksum(copy.payload) != copy.checksum:
                out.unsalvageable.append(vm_id)
                return
        vm = cluster.vm(vm_id)
        cluster.place_failed_vm(vm_id, copy.node_id)
        hv = cluster.hypervisor(copy.node_id)
        # local restore from the warm copy: a memcpy, like a rollback
        yield cluster.sim.timeout(vm.memory_bytes / self.ck.xor_bandwidth)
        image = CheckpointImage(
            vm_id=vm_id,
            epoch=copy.epoch,
            kind=CheckpointKind.FULL,
            logical_bytes=vm.memory_bytes,
            captured_at=cluster.sim.now,
            payload=None if copy.payload is None else copy.payload.copy(),
            meta={"salvaged": True},
        )
        if copy.payload is not None or vm.image is None:
            hv.restore(vm, image)
        else:
            vm.revive()
        hv.commit_checkpoint(image)
        out.salvaged[vm_id] = copy.node_id
        self.tracer.emit(
            cluster.sim.now, "geo.remus.salvaged_vm", vm=vm_id,
            node=copy.node_id, epoch=copy.epoch,
        )
