"""Iterative pre-copy live migration (Clark et al., NSDI'05).

Pre-copy ships the full image while the guest keeps running, then
iterates over the pages dirtied during each round until the residual set
is small enough to stop-and-copy.  DVDC rides this machinery for its
checkpoint traffic (Section IV-C: "Remus is simply using live migration
as a convenient method through which to implement efficient incremental
checkpointing").

Two forms are provided:

* :class:`PrecopyModel` — the closed-form geometric model: with
  dirty/bandwidth ratio ``ρ``, round ``i`` moves ``S·ρ^i`` bytes, so
  total traffic is the geometric sum and downtime is the residual over
  the wire.  This feeds the analytical overhead model.
* :func:`live_migrate` — a simulation process that performs the rounds
  over real :class:`~repro.network.link.Flow` objects, moves the VM's
  registration, and (for functional VMs) copies the image bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cluster import VirtualCluster
from ..cluster.vm import VirtualMachine, VMState
from ..network.link import NetworkError
from ..sim import NULL_TRACER, Tracer
from .downtime import DowntimeModel

__all__ = ["PrecopyModel", "PrecopyResult", "live_migrate"]


@dataclass(frozen=True)
class PrecopyResult:
    """Outcome of a migration (modeled or simulated)."""

    rounds: int
    total_bytes: float
    total_time: float
    downtime: float
    converged: bool


@dataclass(frozen=True)
class PrecopyModel:
    """Closed-form pre-copy estimates.

    Parameters
    ----------
    bandwidth:
        Transfer bandwidth available to migration, bytes/second.
    max_rounds:
        Cap on iterative rounds before forcing stop-and-copy.
    downtime_target_bytes:
        Stop-and-copy is entered once the residual dirty set is at or
        below this size (Xen's writable-working-set heuristic distilled).
    """

    bandwidth: float
    max_rounds: int = 30
    downtime_target_bytes: float = 1e6
    downtime_model: DowntimeModel = DowntimeModel()

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")

    def rho(self, dirty_rate: float) -> float:
        """Dirty-to-bandwidth ratio; ≥ 1 means pre-copy cannot converge."""
        return dirty_rate / self.bandwidth

    def estimate(self, image_bytes: float, dirty_rate: float) -> PrecopyResult:
        """Rounds, traffic, elapsed time, and downtime for one migration."""
        if image_bytes < 0:
            raise ValueError(f"image_bytes must be >= 0, got {image_bytes}")
        if dirty_rate < 0:
            raise ValueError(f"dirty_rate must be >= 0, got {dirty_rate}")
        rho = self.rho(dirty_rate)
        to_send = image_bytes
        total = 0.0
        elapsed = 0.0
        rounds = 0
        converged = True
        while to_send > self.downtime_target_bytes and rounds < self.max_rounds:
            t = to_send / self.bandwidth
            total += to_send
            elapsed += t
            rounds += 1
            to_send = min(image_bytes, dirty_rate * t)
            if rho >= 1.0 and rounds >= 2:
                # diverging: residual stopped shrinking, force stop-and-copy
                converged = False
                break
        downtime = self.downtime_model.downtime(to_send, self.bandwidth)
        total += to_send
        elapsed += to_send / self.bandwidth
        return PrecopyResult(
            rounds=rounds,
            total_bytes=total,
            total_time=elapsed + self.downtime_model.fixed_cost(),
            downtime=downtime,
            converged=converged,
        )


def live_migrate(
    cluster: VirtualCluster,
    vm: VirtualMachine,
    dst_node_id: int,
    model: PrecopyModel | None = None,
    tracer: Tracer = NULL_TRACER,
):
    """Simulation process: live-migrate ``vm`` to ``dst_node_id``.

    Performs pre-copy rounds as real network flows (so migration traffic
    contends with checkpoint traffic on the same links), then the
    stop-and-copy pause, then re-registers the VM on the destination.
    Returns a :class:`PrecopyResult`.

    For functional VMs the image travels by reference-copy at the
    stop-and-copy point — the simulated payload equals the source
    bit-exactly, and the dirty log is preserved semantics-wise (cleared,
    as a real migration's final round leaves a clean slate).
    """
    sim = cluster.sim
    model = model or PrecopyModel(bandwidth=cluster.spec.node_bandwidth)
    src = vm.node_id
    if src is None:
        raise ValueError(f"vm {vm.vm_id} is not hosted anywhere")
    if src == dst_node_id:
        return PrecopyResult(0, 0.0, 0.0, 0.0, True)
    vm.begin_migration()
    tracer.emit(sim.now, "migration.start", vm=vm.vm_id, src=src, dst=dst_node_id)
    start = sim.now
    total = 0.0
    rounds = 0
    to_send = vm.memory_bytes
    converged = True
    rho = model.rho(vm.dirty_rate)
    while to_send > model.downtime_target_bytes and rounds < model.max_rounds:
        flow = cluster.topology.transfer(
            src, dst_node_id, to_send, label=f"migrate.vm{vm.vm_id}.r{rounds}"
        )
        try:
            yield flow
        except NetworkError:
            # source or destination died mid-round: cancel the migration;
            # the guest (if its host survived) keeps running at the source
            if vm.state == VMState.MIGRATING:
                vm.end_migration()
            tracer.emit(sim.now, "migration.aborted", vm=vm.vm_id)
            raise
        round_time = sim.now - start if rounds == 0 else flow.finished_at - flow.started_at
        total += to_send
        rounds += 1
        to_send = min(vm.memory_bytes, vm.dirty_rate * round_time)
        if rho >= 1.0 and rounds >= 2:
            converged = False
            break
    # stop-and-copy: guest pauses, residual moves, VM activates remotely
    downtime_start = sim.now
    if to_send > 0:
        flow = cluster.topology.transfer(
            src, dst_node_id, to_send, label=f"migrate.vm{vm.vm_id}.final"
        )
        try:
            yield flow
        except NetworkError:
            if vm.state == VMState.MIGRATING:
                vm.end_migration()
            tracer.emit(sim.now, "migration.aborted", vm=vm.vm_id)
            raise
        total += to_send
    yield sim.timeout(model.downtime_model.fixed_cost())
    downtime = sim.now - downtime_start
    cluster.node(src).evict(vm)
    vm.end_migration()
    cluster.node(dst_node_id).host(vm)
    tracer.emit(
        sim.now, "migration.done", vm=vm.vm_id, src=src, dst=dst_node_id,
        rounds=rounds, total_bytes=total, downtime=downtime,
    )
    return PrecopyResult(
        rounds=rounds,
        total_bytes=total,
        total_time=sim.now - start,
        downtime=downtime,
        converged=converged,
    )
