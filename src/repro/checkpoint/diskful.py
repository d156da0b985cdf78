"""Disk-full checkpointing to a shared NAS — the paper's baseline.

The pipeline per cycle (Section V-B's accounting):

1. **capture** — coordinated barrier pause (shared with DVDC);
2. **network** — every node streams its VMs' images to the NAS; all
   streams converge on the single NAS ingress link and serialize
   (``bw/N`` each — the bottleneck the paper attacks);
3. **disk** — the NAS array writes each stream out.

Overhead = the barrier pause.  Latency = until the *last* image is
committed on NAS — the point at which the new checkpoint generation is
usable.  Two-phase safety: each image is stored under a versioned key
and the previous generation is deleted only after the new generation is
fully committed, so a crash mid-cycle can always fall back.

Recovery: the whole cluster rolls back to the last committed generation
— every VM re-fetches its image from the NAS (fan-out on the egress
link), the failed node's VMs are re-placed on survivors first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.cluster import VirtualCluster
from ..cluster.images import CheckpointImage, CheckpointKind
from ..cluster.memory import PageDelta
from ..cluster.vm import VirtualMachine, VMState
from ..network.link import NetworkError
from ..sim import AllOf, NULL_TRACER, Tracer
from ..telemetry import probe_of
from .base import CaptureStrategy, CheckpointCycleResult, Unrecoverable
from .compression import NO_COMPRESSION, CompressionModel
from .coordinator import CoordinatedCheckpoint
from .strategies import ForkedCapture

__all__ = ["DiskfulCheckpointer", "DiskfulRecoveryReport"]


@dataclass
class DiskfulRecoveryReport:
    """Outcome of a baseline rollback-recovery."""

    failed_node: int
    restored_vms: list[int] = field(default_factory=list)
    rolled_back_vms: list[int] = field(default_factory=list)
    recovery_time: float = 0.0
    bytes_read: float = 0.0
    restored_epoch: int = -1


class DiskfulCheckpointer:
    """Coordinated checkpoint/restart against the shared NAS."""

    def __init__(
        self,
        cluster: VirtualCluster,
        strategy: CaptureStrategy | None = None,
        compression: CompressionModel = NO_COMPRESSION,
        tracer: Tracer = NULL_TRACER,
        retry=None,
        retry_rng=None,
    ):
        self.cluster = cluster
        self.strategy = strategy or ForkedCapture()
        self.compression = compression
        self.tracer = tracer
        self.probe = probe_of(tracer)
        #: optional :class:`repro.resilience.retry.RetryPolicy` applied to
        #: NAS-bound and restore transfers
        self.retry = retry
        self.retry_rng = retry_rng
        self.coordinator = CoordinatedCheckpoint(cluster, self.strategy, tracer)
        self.epoch = 0
        self.last_cycle_at: float | None = None
        self.committed_epoch = -1
        self.history: list[CheckpointCycleResult] = []

    # ------------------------------------------------------------------
    def _key(self, vm_id: int, epoch: int) -> str:
        return f"vm{vm_id}/epoch{epoch}"

    def _nas_flow(self, make_flow, label: str):
        """A NAS-bound flow, retry-wrapped when a policy is installed."""
        if self.retry is None:
            return make_flow()
        # Deferred import: resilience sits above checkpoint in the layering.
        from ..resilience.retry import retrying_transfer

        return self.cluster.sim.process(retrying_transfer(
            self.cluster.sim, make_flow, self.retry,
            rng=self.retry_rng, probe=self.probe, label=label,
        ))

    def _ship_one(self, image: CheckpointImage, wire_bytes: float):
        """Process: stream one image node→NAS, then write it to disk.

        Incremental captures are *consolidated server-side*: the NAS
        patches the delta onto the previous generation's object so every
        catalog entry is always a directly-restorable full image (what
        real checkpoint stores do to avoid unbounded delta chains).  The
        disk pays for the delta write; the catalog holds the full size.
        """
        vm = self.cluster.vm(image.vm_id)
        node_id = vm.node_id
        assert node_id is not None
        label = f"ckpt.vm{image.vm_id}.e{image.epoch}"
        flow = self._nas_flow(
            lambda: self.cluster.topology.transfer_to_nas(
                node_id, wire_bytes, label=label
            ),
            label,
        )
        try:
            yield flow
        except NetworkError:
            return None  # sender died or retries exhausted; epoch aborts
        stored_size = None
        if image.kind == CheckpointKind.INCREMENTAL:
            stored_size = vm.memory_bytes
            if isinstance(image.payload, PageDelta):
                prev_key = self._key(image.vm_id, image.epoch - 1)
                if not self.cluster.nas.contains(prev_key):
                    raise RuntimeError(
                        f"vm {image.vm_id}: incremental upload without a "
                        "previous generation on the NAS"
                    )
                prev: CheckpointImage = self.cluster.nas.lookup(prev_key).payload
                merged = prev.payload_flat().copy()
                image.payload.apply_to(merged)
                image = CheckpointImage(
                    vm_id=image.vm_id,
                    epoch=image.epoch,
                    kind=CheckpointKind.FULL,
                    logical_bytes=vm.memory_bytes,
                    captured_at=image.captured_at,
                    payload=merged,
                    meta=dict(image.meta, consolidated=True),
                )
        obj = yield from self.cluster.nas.store(
            self._key(image.vm_id, image.epoch), wire_bytes,
            payload=image, stored_size=stored_size,
        )
        return obj

    def run_cycle(self, pause_done=None):
        """Process: one full coordinated checkpoint cycle.

        Returns a :class:`CheckpointCycleResult`; ``overhead`` is the
        barrier pause, ``latency`` the start-to-commit span.
        ``pause_done`` fires when guests resume (overlapped runners).
        A node failure mid-cycle aborts the generation switch; the
        previous generation remains the recovery point.
        """
        sim = self.cluster.sim
        start = sim.now
        epoch = self.epoch
        cycle_span = self.probe.span_begin(
            "diskful.cycle", start, track="checkpoint", epoch=epoch,
        )
        failure_snapshot = self.cluster.failure_epoch
        elapsed = (start - self.last_cycle_at) if self.last_cycle_at is not None else start
        vms = [vm for vm in self.cluster.all_vms if vm.state != VMState.FAILED]
        outcomes, pause = yield from self.coordinator.capture_all(vms, epoch, elapsed)

        if pause_done is not None and not pause_done.triggered:
            pause_done.succeed(pause)
        result = CheckpointCycleResult(epoch=epoch, started_at=start, overhead=pause)
        for o in outcomes:
            result.per_vm_pause[o.image.vm_id] = o.pause_seconds

        # ship all images concurrently; NAS ingress serializes them
        ship_span = self.probe.span_begin(
            "diskful.ship", sim.now, track="checkpoint", epoch=epoch,
        )
        shippers = []
        for o in outcomes:
            wire = self.compression.output_bytes(o.image.logical_bytes)
            result.network_bytes += wire
            result.disk_bytes += wire
            shippers.append(self.cluster.sim.process(self._ship_one(o.image, wire)))
        shipped: dict[int, object] = {}
        if shippers:
            shipped = yield AllOf(sim, shippers)
        self.probe.span_end(ship_span, sim.now, n_images=len(shippers))
        self.probe.count(
            "repro_checkpoint_bytes_total", result.network_bytes,
            help="Checkpoint bytes moved, by architecture and path",
            arch="diskful", path="network",
        )

        # two-phase commit: new generation complete -> drop the old one;
        # a ship that returned None died (node crash or retries exhausted)
        # — the generation is incomplete, so the old one stays current
        if self.cluster.failure_epoch != failure_snapshot or any(
            v is None for v in shipped.values()
        ):
            result.latency = sim.now - start
            result.committed = False
            self.history.append(result)
            self.tracer.emit(sim.now, "diskful.cycle_aborted", epoch=epoch)
            self.probe.count(
                "repro_checkpoint_cycles_total",
                help="Checkpoint cycles, by architecture and commit outcome",
                arch="diskful", committed="false",
            )
            self.probe.span_end(cycle_span, sim.now, committed=False)
            return result
        for o in outcomes:
            old_key = self._key(o.image.vm_id, epoch - 1)
            if self.cluster.nas.contains(old_key):
                self.cluster.nas.delete(old_key)
        self.committed_epoch = epoch
        self.epoch += 1
        self.last_cycle_at = sim.now
        result.latency = sim.now - start
        result.committed = True
        self.history.append(result)
        self.tracer.emit(
            sim.now, "diskful.cycle", epoch=epoch, overhead=result.overhead,
            latency=result.latency, network_bytes=result.network_bytes,
        )
        self.probe.count(
            "repro_checkpoint_cycles_total",
            help="Checkpoint cycles, by architecture and commit outcome",
            arch="diskful", committed="true",
        )
        self.probe.observe(
            "repro_checkpoint_commit_latency_seconds", result.latency,
            help="Cycle start to generation commit, by architecture",
            arch="diskful",
        )
        self.probe.span_end(cycle_span, sim.now, committed=True)
        return result

    # ------------------------------------------------------------------
    def _restore_one(self, vm: VirtualMachine, report: DiskfulRecoveryReport):
        """Process: fetch a VM's committed image from NAS and load it.

        Bails out quietly if the VM's node dies mid-restore — the new
        failure is queued and the next recovery pass re-places it.
        """
        key = self._key(vm.vm_id, self.committed_epoch)
        obj = yield from self.cluster.nas.fetch(key)
        if vm.node_id is None:
            return
        node_id = vm.node_id
        label = f"restore.vm{vm.vm_id}"
        flow = self._nas_flow(
            lambda: self.cluster.topology.transfer_from_nas(
                node_id, obj.size, label=label
            ),
            label,
        )
        try:
            yield flow
        except NetworkError:
            return  # destination died mid-restore; retried later
        report.bytes_read += obj.size
        if vm.node_id is None:  # node died while the image was in flight
            return
        image: CheckpointImage = obj.payload
        hv = self.cluster.hypervisor(vm.node_id)
        if vm.state == VMState.FAILED:
            hv.restore(vm, image)
        else:
            vm.pause()
            hv.restore(vm, image)
            vm.resume()

    def heal(self):
        """Process: nothing to heal — NAS state survives node churn."""
        return []
        yield  # pragma: no cover - makes this a generator

    def recover(self, failed_node_id: int):
        """Process: global rollback-restart after ``failed_node_id`` died.

        The failed node's VMs are re-placed round-robin on surviving
        nodes; then *every* VM reloads the committed generation from the
        NAS (coordinated restart semantics).
        """
        sim = self.cluster.sim
        start = sim.now
        if self.committed_epoch < 0:
            raise Unrecoverable("no committed checkpoint generation to recover from")
        span = self.probe.span_begin(
            "diskful.recover", start, track="recovery", node=failed_node_id,
        )
        report = DiskfulRecoveryReport(failed_node=failed_node_id)
        survivors = [n for n in self.cluster.alive_nodes if n.node_id != failed_node_id]
        if not survivors:
            raise Unrecoverable("no surviving nodes to recover onto")
        # re-place dead VMs
        homeless = [vm for vm in self.cluster.all_vms if vm.state == VMState.FAILED
                    and vm.node_id is None]
        for i, vm in enumerate(homeless):
            target = survivors[i % len(survivors)]
            self.cluster.place_failed_vm(vm.vm_id, target.node_id)
            report.restored_vms.append(vm.vm_id)
        # global rollback: every VM re-fetches
        restorers = []
        for vm in self.cluster.all_vms:
            if vm.node_id is None:
                continue
            if vm.vm_id not in report.restored_vms:
                report.rolled_back_vms.append(vm.vm_id)
            restorers.append(sim.process(self._restore_one(vm, report)))
        if restorers:
            yield AllOf(sim, restorers)
        report.recovery_time = sim.now - start
        report.restored_epoch = self.committed_epoch
        self.tracer.emit(
            sim.now, "diskful.recovery", node=failed_node_id,
            duration=report.recovery_time, bytes=report.bytes_read,
        )
        self.probe.observe(
            "repro_recovery_seconds", report.recovery_time,
            help="Wall of one rollback-recovery pass, by architecture",
            arch="diskful",
        )
        self.probe.count(
            "repro_recovery_bytes_total", report.bytes_read,
            help="Bytes re-read during recovery, by architecture",
            arch="diskful",
        )
        self.probe.span_end(span, sim.now, bytes=report.bytes_read)
        return report
