"""The one managed-cluster builder and the runs the ``controlplane``
verbs make on it: the churn soak, the rolling drain and a timed status
run.  Each driver returns what its caller renders.
"""

from __future__ import annotations

from ..core.architectures import dvdc
from ..resilience import (DEFAULT_RETRY, SparePool, TransientFaultInjector,
                          TransientFaultSchedule)
from ..sim import AllOf, RngRegistry, Tracer
from .coordinator import AuditFailure, ControlPlane, ControlPlaneConfig

__all__ = ["build_managed", "soak", "rolling_drain", "timed_status"]


def build_managed(
    nodes: int, *, vms_per_node: int = 2, spares: int = 2, group_size: int = 4,
    seed: int = 0, repair_time: float = 10.0, maintenance_seconds: float = 0.5,
) -> tuple[ControlPlane, RngRegistry]:
    """An unstarted control plane over ``nodes`` nodes of ``vms_per_node``
    small functional VMs and ``spares`` cold spares, checkpointing DVDC
    every 2 s; returns ``(cp, rngs)``.  The spares are powered off before
    the layout is drawn, so no parity is homed on one, and a shape with
    no layout raises :class:`~repro.core.groups.LayoutError` here."""
    from ..workloads import scaled_scenario  # it imports our scheduler

    tracer = Tracer()
    sc = scaled_scenario(
        nodes + spares, vms_per_node, vm_memory=1024.0, seed=seed,
        image_pages=16, page_size=64, spares=spares, tracer=tracer,
    )
    pool = SparePool.provision(sc.cluster, spares) if spares else None
    ck = dvdc(
        sc.cluster, group_size=group_size, tracer=tracer,
        retry=DEFAULT_RETRY, retry_rng=sc.rngs.stream("retry"),
    )
    config = ControlPlaneConfig(checkpoint_interval=2.0, repair_time=repair_time,
                                maintenance_seconds=maintenance_seconds)
    cp = ControlPlane(sc.cluster, ck, spares=pool, config=config, tracer=tracer)
    return cp, sc.rngs


def soak(
    cp: ControlPlane, rngs: RngRegistry, *, ops: int = 500,
    mean_gap: float = 0.5, fault_rate: float = 0.002, faults: bool = True,
) -> str | None:
    """The churn soak: ``ops`` operations at exponential gaps of mean
    ``mean_gap`` while, with ``faults``, transient faults hit the nodes
    in service at ``fault_rate`` per node-second.  Once the ops are
    terminal and fences and recoveries have settled, one fresh epoch and
    a strict audit; returns why that audit failed, or None."""
    sim, cluster = cp.cluster.sim, cp.cluster
    if faults:
        horizon = ops * mean_gap * 1.2
        schedule = TransientFaultSchedule.draw(
            rngs.stream("faults"), len(cluster.alive_nodes), horizon,
            rate=fault_rate, mean_duration=1.5,
        )
        TransientFaultInjector(
            sim, cluster, schedule, rng=rngs.stream("fault-targets"),
            tracer=cp.tracer,
        ).start()
    cp.start()
    rng = rngs.stream("churn")

    def churn():
        submitted = []
        for _ in range(ops):
            yield sim.timeout(float(rng.exponential(mean_gap)))
            kind = rng.choice(
                ["provision", "kill", "drain", "query"],
                p=[0.25, 0.2, 0.15, 0.4],
            )
            params = {}
            if kind == "provision":
                params = dict(memory_bytes=1024.0, image_pages=16,
                              page_size=64)
            elif kind in ("kill", "drain"):
                candidates = [
                    n.node_id for n in cluster.alive_nodes
                    if n.node_id not in cp.maintenance
                    and n.node_id not in cp.fenced
                ]
                if not candidates:
                    kind = "query"
                else:
                    params = dict(node_id=int(rng.choice(candidates)))
            submitted.append(cp.submit(kind, **params))
        yield AllOf(sim, [op.done for op in submitted])
        # settle: let in-flight fences/recoveries/repairs finish
        settle = 0
        while cp.settling and settle < 600:
            yield sim.timeout(1.0)
            settle += 1
        yield sim.timeout(2 * cp.config.repair_time)
        # one fresh epoch with every node back: re-encodes any parity a
        # late repair restored capacity for, so the audit sees steady state
        yield from cp.checkpoint()
        try:
            cp.audit("post-soak")
        except AuditFailure as exc:
            return str(exc)
        finally:
            cp.stop()
        return None

    return sim.run_process(churn(), until=ops * mean_gap * 200)


def rolling_drain(cp: ControlPlane) -> list[str]:
    """Once an epoch has committed, drain, maintain and rejoin each node
    in service in turn; returns the issues (a failed drain, or one with
    no checksum-verified migration).  The final strict audit raises
    :class:`AuditFailure` on fatal findings."""
    sim = cp.cluster.sim
    in_service = [n.node_id for n in cp.cluster.alive_nodes]
    cp.start()

    def roll():
        # first protect everything: one committed epoch
        yield cp.submit("query").done  # warm the façade
        while cp.ck.committed_epoch < 0:
            yield sim.timeout(1.0)
        issues = []
        for node_id in in_service:
            before = cp.verified_migrations
            op = cp.submit("drain", node_id=node_id)
            yield op.done
            if op.state.value != "DONE":
                issues.append(f"drain node {node_id}: {op.error}")
            elif cp.verified_migrations == before:
                issues.append(
                    f"drain node {node_id}: no checksum-verified migration"
                )
        cp.audit("post-rolling-maintenance")
        cp.stop()
        return issues

    return sim.run_process(roll(), until=len(in_service) * 1000.0)


def timed_status(cp: ControlPlane, duration: float) -> dict:
    """Run the control plane for ``duration`` sim seconds; returns
    :meth:`ControlPlane.status` afterwards."""
    sim = cp.cluster.sim
    cp.start()

    def run():
        yield sim.timeout(duration)
        cp.stop()

    sim.run_process(run(), until=duration * 10)
    return cp.status()
