"""Remus-style active/standby replication (Cully et al., NSDI'08).

The Section VI comparator: each protected VM runs *speculatively* on an
active host while checkpoints stream asynchronously to a standby host
that always holds the most recent committed image.  Epochs can run at
tens of Hz ("as many as 40 times per second").  Output commit is
enforced by buffering externally visible output until the standby acks
the epoch.

Differences from DVDC the model must expose (Section VI):

* Remus pairs hosts 1:1 (or N:1) — memory cost is a full image per VM on
  the standby; DVDC stores one parity image per group.
* On failure Remus resumes *immediately* from the standby (losing only
  the speculation window); DVDC must roll everyone back and XOR-rebuild.

:class:`RemusPair` simulates one protected VM; :class:`RemusModel`
provides the closed-form per-epoch overhead used in the comparison
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cluster import VirtualCluster
from ..cluster.vm import VirtualMachine
from ..network.link import NetworkError
from ..sim import Interrupt, NULL_TRACER, Tracer

__all__ = ["RemusModel", "RemusPair", "RemusEpochStats"]


@dataclass(frozen=True)
class RemusModel:
    """Closed-form Remus cost model.

    Per epoch of length ``E`` a VM dirties ``min(rate·E, image)`` bytes;
    the epoch pause is ``pause_fixed`` (copy-on-write capture into the
    transmit buffer), and replication traffic is the dirty set.  The
    epoch sustains only if traffic fits the link: ``rate·E ≤ bw·E`` ⇒
    ``rate ≤ bw``; otherwise the protected VM must be throttled — the
    "significant impact to the system" the paper notes at 40 Hz.

    ``speculation_loss(E)`` — expected lost work on failover = E/2 plus
    the in-flight epoch ≈ 1.5·E on average.
    """

    epoch_length: float = 25e-3
    pause_fixed: float = 5e-3
    bandwidth: float = 125e6

    def __post_init__(self) -> None:
        if self.epoch_length <= 0:
            raise ValueError(f"epoch_length must be > 0, got {self.epoch_length}")
        if self.pause_fixed < 0:
            raise ValueError(f"pause_fixed must be >= 0, got {self.pause_fixed}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")

    def epoch_dirty_bytes(self, vm_dirty_rate: float, image_bytes: float) -> float:
        return min(vm_dirty_rate * self.epoch_length, image_bytes)

    def overhead_fraction(self, vm_dirty_rate: float, image_bytes: float) -> float:
        """Fraction of wall-clock lost to epoch pauses and backpressure.

        Pause per epoch plus any shortfall when the dirty set cannot be
        drained within one epoch (buffering backpressure throttles the
        guest for the excess).
        """
        dirty = self.epoch_dirty_bytes(vm_dirty_rate, image_bytes)
        drain = dirty / self.bandwidth
        backpressure = max(0.0, drain - self.epoch_length)
        return (self.pause_fixed + backpressure) / self.epoch_length

    def speculation_loss(self) -> float:
        """Expected execution lost at failover (output-committed work is
        never lost; speculative work since the last committed epoch is)."""
        return 1.5 * self.epoch_length

    def standby_memory_bytes(self, image_bytes: float) -> float:
        """Standby-side memory per protected VM: a full image."""
        return image_bytes


@dataclass
class RemusEpochStats:
    epochs: int = 0
    replicated_bytes: float = 0.0
    pause_seconds: float = 0.0
    failovers: int = 0
    lost_work: float = 0.0


class RemusPair:
    """One protected VM replicating to a standby node (simulation).

    Run :meth:`protect` as a process; it loops epochs until interrupted.
    Call :meth:`failover` after the active node dies: the VM re-registers
    on the standby instantly and the stats record the speculation loss.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        vm: VirtualMachine,
        standby_node_id: int,
        model: RemusModel | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        if vm.node_id == standby_node_id:
            raise ValueError("standby must be a different node than the active host")
        self.cluster = cluster
        self.vm = vm
        self.standby_node_id = standby_node_id
        self.model = model or RemusModel(bandwidth=cluster.spec.node_bandwidth)
        self.tracer = tracer
        self.stats = RemusEpochStats()
        self.last_committed_at: float | None = None

    def protect(self):
        """Process: run replication epochs until interrupted or until the
        active host dies (then :meth:`failover` takes over)."""
        sim = self.cluster.sim
        m = self.model
        try:
            while True:
                yield sim.timeout(m.epoch_length)
                dirty = m.epoch_dirty_bytes(self.vm.dirty_rate, self.vm.memory_bytes)
                # epoch pause: capture into transmit buffer
                self.vm.pause()
                yield sim.timeout(m.pause_fixed)
                self.vm.resume()
                # asynchronous drain to the standby
                src = self.vm.node_id
                if src is None:
                    return self.stats
                if dirty > 0:
                    flow = self.cluster.topology.transfer(
                        src, self.standby_node_id, dirty,
                        label=f"remus.vm{self.vm.vm_id}.e{self.stats.epochs}",
                    )
                    try:
                        yield flow
                    except NetworkError:
                        if self.vm.node_id is not None:
                            raise
                        return self.stats  # the host died mid-drain
                self.last_committed_at = sim.now
                self.stats.epochs += 1
                self.stats.replicated_bytes += dirty
                self.stats.pause_seconds += m.pause_fixed
        except Interrupt:
            return self.stats

    def failover(self) -> float:
        """Activate the standby copy; returns lost (speculative) work.

        The VM must currently be FAILED (its active node crashed).  The
        standby's image is the last committed epoch, so the work since
        ``last_committed_at`` is lost.
        """
        sim = self.cluster.sim
        if self.vm.node_id is not None:
            raise RuntimeError(f"vm {self.vm.vm_id} still has an active host")
        self.cluster.place_failed_vm(self.vm.vm_id, self.standby_node_id)
        self.vm.revive()
        lost = 0.0 if self.last_committed_at is None else sim.now - self.last_committed_at
        self.stats.failovers += 1
        self.stats.lost_work += lost
        self.tracer.emit(sim.now, "remus.failover", vm=self.vm.vm_id, lost=lost)
        return lost
