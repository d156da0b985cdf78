"""Spare-node pool and the self-healing state machine.

After ``recover()`` the cluster runs — but *degraded*: with few nodes
the only legal restore target is often the group's own parity node, so
one more crash in the wrong place is fatal.  The paper stops there; a
production cluster does not.  The :class:`SelfHealer` drives the cycle

::

                    node crash
    PROTECTED ───────────────────────▶ DEGRADED
        ▲                                 │
        │                                 │ reprotect()
        │  layout valid, parity           ▼
        └───────────────────────── RE-PROTECTING
           everywhere, audits         (pull spare, re-place
           green                       members, re-encode)

pulling a node from the :class:`SparePool` when one is available and
running the one layout repair,
:meth:`~repro.core.dvdc.DisklessCheckpointer.heal`: crowded members
move, co-located parity re-encodes.  The time spent
outside PROTECTED — the *window of vulnerability* during which a second
failure could be unrecoverable — is recorded per incident and exported
as the ``repro_degraded_window_seconds`` histogram; the Monte-Carlo
layer (:func:`repro.model.montecarlo.window_loss_probability`) turns
that window into a loss probability for Fig.-5-style studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..cluster.cluster import VirtualCluster
from ..coding import shard_key, shard_name
from ..core.dvdc import DisklessCheckpointer
from ..core.placement import group_layout_errors
from ..sim import NULL_TRACER, Tracer
from ..telemetry import probe_of

__all__ = ["ClusterHealth", "SparePool", "SelfHealer", "HealingReport"]


class ClusterHealth(str, Enum):
    """Protection state of the cluster against the *next* failure."""

    PROTECTED = "protected"
    DEGRADED = "degraded"
    REPROTECTING = "reprotecting"


class SparePool:
    """Cold spare nodes: provisioned in the cluster, powered down empty.

    A spare is an ordinary :class:`~repro.cluster.node.PhysicalNode`
    that was cleanly deactivated at build time, so placement never uses
    it until :meth:`acquire` powers it on (empty, maximally free — the
    load-based placement helpers then prefer it naturally).
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        node_ids: list[int] | None = None,
    ):
        self.cluster = cluster
        self.tracer = NULL_TRACER  # the owning SelfHealer sets its own
        self._available: list[int] = []
        self.acquired: list[int] = []
        #: times :meth:`acquire` came up empty — every one is a failure
        #: the cluster could not re-protect against
        self.exhausted = 0
        for nid in node_ids or []:
            self.add(nid)

    @classmethod
    def provision(cls, cluster: VirtualCluster, count: int) -> "SparePool":
        """Deactivate the ``count`` highest-numbered empty nodes as spares.

        Call after VM placement: only nodes hosting nothing qualify.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        empty = [
            n.node_id
            for n in reversed(cluster.nodes)
            if n.alive and not n.vms and not n.checkpoint_store and not n.parity_store
        ]
        if len(empty) < count:
            raise ValueError(
                f"only {len(empty)} empty node(s) available for {count} spare(s)"
            )
        return cls(cluster, empty[:count])

    def add(self, node_id: int) -> None:
        node = self.cluster.node(node_id)
        if node.alive:
            node.deactivate()
        self._available.append(node_id)
        self._available.sort()

    @property
    def available(self) -> tuple[int, ...]:
        return tuple(self._available)

    def __len__(self) -> int:
        return len(self._available)

    def acquire(self) -> int | None:
        """Power on the lowest-numbered spare; None when the pool is dry.

        An empty pool is not silent: each dry acquire emits a
        ``healing.spares_exhausted`` trace event and bumps the
        ``repro_resilience_spares_exhausted_total`` counter, so
        operators see the moment self-healing runs out of hardware."""
        if not self._available:
            self.exhausted += 1
            self.tracer.emit(
                self.cluster.sim.now, "healing.spares_exhausted",
                acquired=len(self.acquired),
            )
            probe_of(self.tracer).count(
                "repro_resilience_spares_exhausted_total",
                help="Spare-pool acquire() calls that found the pool dry",
            )
            return None
        nid = self._available.pop(0)
        self.cluster.repair_node(nid)
        self.acquired.append(nid)
        return nid


@dataclass
class HealingReport:
    """Outcome of one :meth:`SelfHealer.reprotect` pass."""

    state: ClusterHealth
    rounds: int = 0
    spares_used: list[int] = field(default_factory=list)
    healed_groups: list[int] = field(default_factory=list)
    #: seconds from the degrading failure to PROTECTED; None if still open
    window_seconds: float | None = None
    issues: list[str] = field(default_factory=list)


class SelfHealer:
    """Drives the cluster back to PROTECTED after failures."""

    def __init__(
        self,
        checkpointer: DisklessCheckpointer,
        spares: SparePool | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.ck = checkpointer
        self.cluster = checkpointer.cluster
        self.spares = (
            spares
            if spares is not None
            else SparePool(checkpointer.cluster)
        )
        if self.spares.tracer is NULL_TRACER and tracer is not NULL_TRACER:
            # surface pool exhaustion through the healer's tracer rather
            # than dropping it on the floor
            self.spares.tracer = tracer
        self.tracer = tracer
        self.probe = probe_of(tracer)
        self.state = ClusterHealth.PROTECTED
        self.degraded_since: float | None = None
        #: closed vulnerability windows, (start, end) sim seconds
        self.windows: list[tuple[float, float]] = []
        #: per-group open window starts (group id -> sim seconds)
        self._group_degraded_since: dict[int, float] = {}
        #: per-group closed windows (group id -> [(start, end), ...])
        self.group_windows: dict[int, list[tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # assessment
    # ------------------------------------------------------------------
    def exposed(self) -> dict[int, list[str]]:
        """Why each exposed group is short of protection: a shard home
        down or holding no block (every group before the first commit),
        or :func:`~repro.core.placement.group_layout_errors` under the
        scheme's tolerance and the checkpointer's domains."""
        out: dict[int, list[str]] = {}
        tolerance, domains = self.ck.scheme.tolerance, self.ck.domains
        for g in self.ck.layout.groups:
            reasons = group_layout_errors(g, self.cluster, tolerance, domains)
            for j, pnode_id in enumerate(g.parity_nodes):
                pnode = self.cluster.node(pnode_id)
                if not pnode.alive:
                    reasons.append(
                        f"group {g.group_id}: {shard_name(j)} node {pnode_id} down"
                    )
                elif shard_key(g.group_id, j) not in pnode.parity_store:
                    reasons.append(
                        f"group {g.group_id}: no {shard_name(j)} block "
                        f"on node {pnode_id}"
                    )
            if reasons:
                out[g.group_id] = reasons
        return out

    def _sync_group_windows(self, now: float, exposed) -> None:
        """Open/close per-group windows against :meth:`exposed`.

        Closing observes ``repro_degraded_window_seconds{group=...}`` —
        the same family as the aggregate label-less series, so brownout
        cost is attributable to the parity group that was exposed.
        """
        for gid in sorted(exposed):
            self._group_degraded_since.setdefault(gid, now)
        for gid in sorted(set(self._group_degraded_since) - set(exposed)):
            start = self._group_degraded_since.pop(gid)
            self.group_windows.setdefault(gid, []).append((start, now))
            self.probe.observe(
                "repro_degraded_window_seconds", now - start,
                help="Time spent without full single-failure protection",
                group=str(gid),
            )

    def assess(self) -> tuple[ClusterHealth, list[str]]:
        """Re-evaluate protection state; closes the vulnerability window
        (and observes the histogram) on the transition back to PROTECTED.
        Returns the state and everything standing between the cluster
        and full protection: :meth:`exposed`'s reasons, or that no epoch
        has committed.
        """
        exposed = self.exposed()
        found = (
            ["no committed checkpoint epoch"] if self.ck.committed_epoch < 0
            else [r for reasons in exposed.values() for r in reasons]
        )
        now = self.cluster.sim.now
        self._sync_group_windows(now, exposed)
        if found:
            if self.degraded_since is None:
                self.degraded_since = now
            if self.state != ClusterHealth.REPROTECTING:
                self._transition(ClusterHealth.DEGRADED)
        else:
            if self.degraded_since is not None:
                window = now - self.degraded_since
                self.windows.append((self.degraded_since, now))
                self.degraded_since = None
                self.probe.observe(
                    "repro_degraded_window_seconds", window,
                    help="Time spent without full single-failure protection",
                )
                self.tracer.emit(now, "healing.window_closed", seconds=window)
            self._transition(ClusterHealth.PROTECTED)
        return self.state, found

    def _transition(self, state: ClusterHealth) -> None:
        if state == self.state:
            return
        self.tracer.emit(
            self.cluster.sim.now, "healing.state",
            previous=self.state.value, state=state.value,
        )
        self.probe.count(
            "repro_resilience_health_transitions_total",
            help="Self-healing state-machine transitions",
            to=state.value,
        )
        self.state = state

    def on_failure(self, event=None) -> None:
        """Failure-instant hook: opens the vulnerability window.  Shaped
        to subscribe directly to a
        :class:`~repro.failures.injector.FailureInjector`."""
        if self.degraded_since is None:
            self.degraded_since = self.cluster.sim.now
        self._sync_group_windows(self.cluster.sim.now, self.exposed())
        self._transition(ClusterHealth.DEGRADED)

    @property
    def last_window_seconds(self) -> float | None:
        if not self.windows:
            return None
        start, end = self.windows[-1]
        return end - start

    # ------------------------------------------------------------------
    # re-protection
    # ------------------------------------------------------------------
    def reprotect(self, max_rounds: int = 4):
        """Process: drive the cluster back to PROTECTED.

        Each round: :meth:`DisklessCheckpointer.heal` (move crowded
        members, re-encode co-located or missing parity), reassess.
        If a round makes no progress and a spare is available, one is
        pulled (powered on empty) and the next round's placement uses
        it.  Terminates in DEGRADED — explicitly, not by exception —
        when the pool is dry and no valid placement exists.
        """
        report = HealingReport(state=self.state)
        _, found = self.assess()
        if not found:
            report.state = self.state
            if self.state == ClusterHealth.PROTECTED:
                report.window_seconds = self.last_window_seconds
            return report
        self._transition(ClusterHealth.REPROTECTING)
        for _ in range(max_rounds):
            report.rounds += 1
            healed = yield from self.ck.heal()
            report.healed_groups.extend(healed)
            _, found = self.assess()
            if self.state == ClusterHealth.PROTECTED:
                break
            self._transition(ClusterHealth.REPROTECTING)
            if healed:
                continue  # progress without spending a spare; go again
            spare = self.spares.acquire()
            if spare is None:
                break  # out of options: settle in DEGRADED below
            report.spares_used.append(spare)
            self.tracer.emit(
                self.cluster.sim.now, "healing.spare_acquired", node=spare,
            )
        _, found = self.assess()
        if self.state != ClusterHealth.PROTECTED:
            self._transition(ClusterHealth.DEGRADED)
        report.state = self.state
        report.issues = found
        report.window_seconds = (
            self.last_window_seconds
            if self.state == ClusterHealth.PROTECTED
            else None
        )
        return report
