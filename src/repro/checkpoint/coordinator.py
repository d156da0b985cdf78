"""Coordinated consistent distributed checkpoint.

Fig. 1's protocol begins: "We coordinate a consistent distributed
checkpoint at each VM."  Because capture happens at the hypervisor and
the guests are paused together, a barrier-style coordinated checkpoint
suffices (no Chandy–Lamport marker propagation is needed — in-flight
network state is bounded by pausing all endpoints within one barrier
window; this is the standard argument for VM-level global snapshots).

:class:`CoordinatedCheckpoint` implements the barrier: pause every VM,
capture each via the configured strategy, resume together.  The global
pause window — the cycle's *overhead* in the model's sense — is the
maximum per-VM pause, since captures proceed in parallel on their
respective nodes.
"""

from __future__ import annotations

from typing import Collection, Sequence

from ..cluster.cluster import VirtualCluster
from ..cluster.vm import VirtualMachine, VMState
from ..sim import NULL_TRACER, Tracer
from ..telemetry import probe_of
from .base import CaptureOutcome, CaptureStrategy

__all__ = ["CoordinatedCheckpoint"]


class CoordinatedCheckpoint:
    """Barrier capture across a set of VMs."""

    def __init__(
        self,
        cluster: VirtualCluster,
        strategy: CaptureStrategy,
        tracer: Tracer = NULL_TRACER,
        auditor=None,
    ):
        self.cluster = cluster
        self.strategy = strategy
        self.tracer = tracer
        self.probe = probe_of(tracer)
        #: optional audit hook (``post_capture(epoch, outcomes, dropped)``);
        #: see :class:`repro.audit.Auditor`
        self.auditor = auditor

    def capture_all(
        self,
        vms: Sequence[VirtualMachine],
        epoch: int,
        elapsed: float,
        baseless: Collection[int] = frozenset(),
    ):
        """Simulation process: barrier-pause, capture, barrier-resume.

        Returns ``(outcomes, pause_window)`` where ``outcomes`` is a list
        of :class:`CaptureOutcome` in VM order and ``pause_window`` is
        the global suspension charged to the job.  ``baseless`` names the
        VMs the calling protocol holds no base image of; their capture
        is told so (``base=False``).

        Per-VM captures on the *same* node serialize (one capture engine
        per hypervisor); captures on different nodes run concurrently.
        The pause window is therefore the max over nodes of the sum of
        that node's VM pauses.
        """
        sim = self.cluster.sim
        live = [vm for vm in vms if vm.state != VMState.FAILED]
        span = self.probe.span_begin(
            "checkpoint.capture", sim.now, track="checkpoint",
            epoch=epoch, n_vms=len(live),
        )
        for vm in live:
            vm.pause()
        self.tracer.emit(sim.now, "coordinated.pause", epoch=epoch, n_vms=len(live))

        outcomes: list[CaptureOutcome] = self.strategy.capture_many(
            self.cluster.hypervisors, live, epoch, sim.now, elapsed, baseless
        )
        per_node_pause: dict[int, float] = {}
        for vm, outcome in zip(live, outcomes):
            node_id = vm.node_id
            per_node_pause[node_id] = per_node_pause.get(node_id, 0.0) + outcome.pause_seconds

        pause_window = max(per_node_pause.values(), default=0.0)
        if pause_window > 0.0:
            yield sim.timeout(pause_window)

        # A node that crashed inside the barrier window took its VMs (and
        # their just-captured images, which live in that node's RAM) with
        # it.  Returning those outcomes would let a stale image from a
        # dead VM reach the exchange/commit path, so drop them here.
        dropped = [
            o for vm, o in zip(live, outcomes) if vm.state == VMState.FAILED
        ]
        if dropped:
            outcomes = [
                o for vm, o in zip(live, outcomes) if vm.state != VMState.FAILED
            ]
            self.tracer.emit(
                sim.now, "coordinated.stale_captures_dropped", epoch=epoch,
                vms=[o.image.vm_id for o in dropped],
            )
            self.probe.count(
                "repro_checkpoint_stale_captures_total", len(dropped),
                help="Captured images dropped because the VM failed "
                     "inside the barrier window",
            )

        for vm in live:
            if vm.state == VMState.PAUSED:  # a failure may have struck mid-pause
                vm.resume()
        if self.auditor is not None:
            self.auditor.post_capture(epoch, outcomes, dropped)
        self.tracer.emit(
            sim.now, "coordinated.resume", epoch=epoch, pause=pause_window
        )
        self.probe.observe(
            "repro_checkpoint_pause_seconds", pause_window,
            help="Global barrier pause window per coordinated capture",
        )
        self.probe.count(
            "repro_checkpoint_captures_total", len(live),
            help="Per-VM captures performed",
        )
        self.probe.span_end(span, sim.now, pause=pause_window)
        return outcomes, pause_window
