"""The failure path: the recovery driver, salvage, reports and placement.

Recovery after a node crash (Section VI's description of the DVDC
failure path): "DVDC requires all nodes to roll back to their previous
checkpoints, compute the failed node's checkpoint from parity and data,
and then resume."  :class:`RecoveryDriver` is the one loop around that
path; the job, the control plane, the serving runtime and the fuzzer
each hand failed nodes to it.  :func:`respread_groups` is the member
half of the one layout repair,
:meth:`~repro.core.dvdc.DisklessCheckpointer.heal`.
Every member move -- rebuild, salvage, respread, drain -- takes its
home from :func:`member_homes`, the one statement of the orthogonal
rule (Figs. 2 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..checkpoint.base import Unrecoverable
from ..cluster.cluster import VirtualCluster
from ..cluster.vm import VMState
from ..network.link import NetworkError
from ..sim import NULL_TRACER, Tracer
from .groups import GroupLayout, LayoutError, RaidGroup

__all__ = ["DisklessRecoveryReport", "RecoveryDriver", "salvage",
           "respread_groups", "member_homes", "least_loaded",
           "revive_empty", "choose_restore_node", "choose_parity_node"]


@dataclass
class DisklessRecoveryReport:
    """Outcome of one diskless recovery pass."""

    failed_node: int
    #: VMs rebuilt from parity (vm_id -> node restored onto)
    reconstructed: dict[int, int] = field(default_factory=dict)
    #: groups whose parity block was re-encoded on a new node
    reencoded_groups: list[int] = field(default_factory=list)
    #: VMs that only rolled back to their local committed checkpoint
    rolled_back: list[int] = field(default_factory=list)
    recovery_time: float = 0.0
    network_bytes: float = 0.0
    xor_bytes: float = 0.0
    restored_epoch: int = -1


def _homeless(cluster: VirtualCluster) -> list:
    """VMs that died with their node and are hosted nowhere yet."""
    return [
        vm for vm in cluster.all_vms
        if vm.state == VMState.FAILED and vm.node_id is None
    ]


def least_loaded(nodes) -> int:
    """The id of the node hosting the fewest VMs, ties by id."""
    return min(nodes, key=lambda n: (len(n.vms), n.node_id)).node_id


def revive_empty(cluster: VirtualCluster, vm, exclude=frozenset()) -> int:
    """Host a dead VM that no checkpoint holds again, empty, on the
    least-loaded live node outside ``exclude``; returns that node."""
    alive = [n for n in cluster.alive_nodes if n.node_id not in exclude]
    if not alive:
        raise Unrecoverable("no alive node to cold-start onto")
    target = least_loaded(alive)
    cluster.place_failed_vm(vm.vm_id, target)
    vm.revive()
    return target


class RecoveryDriver:
    """The one recovery loop every consumer of the cluster goes through.

    A caller hands a failed node over (:meth:`hand_over`) when its own
    rules say so -- at the kill, at the fence, after a repair wait -- and
    runs :meth:`drain` inline in its own process.  The drain recovers the
    queued nodes oldest first, one at a time: ``recover``, or before the
    first commit a cold start (every dead VM comes back empty on the
    least-loaded live node).  It decides no fate: :class:`Unrecoverable`
    leaves the drain with the failing node dequeued, the rest queued.
    """

    def __init__(self, checkpointer):
        self.ck = checkpointer
        self.cluster = checkpointer.cluster
        #: failed nodes awaiting recovery, oldest first
        self.queue: list[int] = []
        #: a node was handed over and the drain taking it has not ended
        self.busy = False
        self._heal_proc = None  # the background heal last started
        self._heal_deferred = False

    def hand_over(self, node_id: int) -> bool:
        """Queue ``node_id``.  True when no drain is running, so the
        caller must run one; a running drain takes the node itself."""
        self.queue.append(node_id)
        idle, self.busy = not self.busy, True
        return idle

    def drain(self, around):
        """Process: recover every queued node, including nodes queued
        while it runs.  ``around(node_id, recovery)`` is the caller's
        wrapper around one recovery (a lock, counters, fate): a process
        that must ``yield from recovery``, whose value is the protocol's
        recovery report (None for a cold start)."""
        try:
            while self.queue:
                node_id = self.queue.pop(0)
                yield from around(node_id, self._recover(node_id))
        finally:
            self.busy = False
        if self._heal_deferred and not self._healing:
            self._heal_deferred = False
            self.heal()

    def _recover(self, node_id: int):
        if self.ck.committed_epoch >= 0:
            return (yield from self.ck.recover(node_id))
        for vm in _homeless(self.cluster):
            revive_empty(self.cluster, vm)
        return None

    def heal(self, defer: bool = False) -> None:
        """Repair the layout (``ck.heal``: members, then shards) in the
        background after a repair: now, or when ``defer`` is set or a
        drain or heal runs, after the drain or at :meth:`settle`."""
        if defer or self.busy or self._healing:
            self._heal_deferred = True
        else:
            self._heal_proc = self.cluster.sim.process(self.ck.heal())

    @property
    def _healing(self) -> bool:
        return self._heal_proc is not None and self._heal_proc.alive

    def settle(self):
        """Process: let a background heal land, then run a deferred one
        inline -- what a caller does before mutating state itself."""
        if self._healing:
            yield self._heal_proc
        if self._heal_deferred:
            self._heal_deferred = False
            yield from self.ck.heal()


def salvage(ck, run_epoch):
    """Process: reprovision what recovery could not rebuild, then commit.

    A loss beyond the scheme's tolerance cannot be rebuilt from parity.
    Rather than leave the cluster degraded, declare the lost VMs' state
    gone and host them again, empty, keeping each group spread where the
    nodes allow (:func:`choose_restore_node`); move every shard slot
    homed on a dead node to a live one; then commit a fresh epoch with
    ``run_epoch()`` -- the caller's cycle -- so parity covers the new
    images before any further ``recover``.  That epoch writes every
    block: nothing is read from the old homes, whose RAM died with
    them.  A crash that aborts it is salvaged along, until an epoch
    commits.  Returns the reprovisioned VM ids; no node left to host a
    VM or a shard is :class:`Unrecoverable`.
    """
    cluster, layout = ck.cluster, ck.layout
    salvaged: list[int] = []
    while True:
        for vm in _homeless(cluster):
            exclude = ck.recovery_exclude(set())
            try:
                group = layout.group_of(vm.vm_id)
            except LayoutError:  # provisioned since the last commit
                revive_empty(cluster, vm, exclude)
            else:
                target = choose_restore_node(
                    cluster, group, vm.vm_id, exclude, ck.domains
                )
                cluster.place_failed_vm(vm.vm_id, target)
                vm.revive()
            salvaged.append(vm.vm_id)
        for group in list(layout.groups):
            dead = [j for j, p in enumerate(group.parity_nodes)
                    if not cluster.node(p).alive]
            if dead:
                homes = ck.shard_homes(group, dead)
                layout.replace_group(group.group_id, RaidGroup(
                    group.group_id, group.member_vm_ids, homes[0],
                    tuple(homes[1:]),
                ))
        result = yield from run_epoch()
        if result.committed:
            return salvaged


def respread_groups(ck, cluster, domains=None, tracer: Tracer = NULL_TRACER):
    """Process: restore the orthogonality of *members* after repairs.

    Recovery legitimately lands rebuilt members where the preferred
    nodes were down: beside another member of their group, on a shard
    home, or with ``domains`` (a
    :class:`~repro.failures.domains.FailureDomainMap`) in a failure
    domain already holding an element of the group.  ``domains=None``
    makes each node its own domain.  Once nodes are repaired, this pass
    cold-migrates each offending member -- committed image and all --
    onto the least-loaded node of :func:`member_homes`' first tier,
    outside the cordons (``ck.recovery_exclude``).  A move whose
    transfer fails, or whose source or target dies before it lands,
    leaves the member where it is, resumed if it survived; a dead member
    is the recovery's.  Shard re-homes stay the second pass of
    :meth:`~repro.core.dvdc.DisklessCheckpointer.heal`.  Returns
    ``{vm_id: new_node}``.
    """
    def domain_of(node_id: int) -> int:
        return domains.domain_of(node_id) if domains is not None else node_id

    moved: dict[int, int] = {}
    for group in list(ck.layout.groups):
        placed: dict[int, list[int]] = {}  # domain -> member vm_ids there
        parity_doms = {
            domain_of(p) for p in group.parity_nodes if cluster.node(p).alive
        }
        for v in group.member_vm_ids:
            node = cluster.vm(v).node_id
            if node is None:
                continue
            placed.setdefault(domain_of(node), []).append(v)
        offenders = [
            v
            for dom, vms in sorted(placed.items())
            for v in sorted(vms)[1:]  # keep the first element per domain
        ] + [
            v
            for dom, vms in sorted(placed.items())
            if dom in parity_doms
            for v in sorted(vms)[:1]
        ]
        for vm_id in offenders:
            vm = cluster.vm(vm_id)
            src = vm.node_id
            if src is None:
                continue
            spread = member_homes(
                cluster, group, vm_id, ck.recovery_exclude(set()), domains
            )[0]
            if not spread:
                continue
            dst = least_loaded(spread)
            was_running = vm.state == VMState.RUNNING
            if was_running:
                vm.pause()
            try:
                yield ck._transfer(
                    src, dst, vm.memory_bytes, label=f"respread.vm{vm_id}"
                )
            except NetworkError:
                pass  # the member stays where it is
            else:
                if vm.node_id == src and cluster.node(dst).alive:
                    cluster.move_vm(vm_id, dst)
                    img = cluster.node(src).checkpoint_store.pop(vm_id, None)
                    if img is not None:
                        cluster.node(dst).checkpoint_store[vm_id] = img
                    moved[vm_id] = dst
                    tracer.emit(
                        cluster.sim.now, "geo.respread", vm=vm_id, src=src,
                        dst=dst, group=group.group_id,
                    )
            # a member whose node died mid-move is the recovery's
            if was_running and vm.state == VMState.PAUSED:
                vm.resume()
    return moved


def member_homes(
    cluster: VirtualCluster,
    group: RaidGroup,
    vm_id: int,
    exclude=frozenset(),
    domains=None,
) -> tuple[list, list, list]:
    """Where member ``vm_id`` of ``group`` may live: the live nodes
    outside ``exclude`` in three nested tiers, best first --

    1. nodes whose failure unit (the node's domain in ``domains``, a
       :class:`~repro.failures.domains.FailureDomainMap`, else the node)
       holds no *other* live element of the group;
    2. nodes holding no other member and no shard of the group;
    3. nodes holding no other member.

    Callers take the :func:`least_loaded` node of the first tier they
    may use: recovery and salvage any (:func:`choose_restore_node`), a
    respread the first, a control-plane drain the first two.
    """
    member_nodes = {
        cluster.vm(v).node_id
        for v in group.member_vm_ids
        if v != vm_id and cluster.vm(v).node_id is not None
    }
    apart = [
        n for n in cluster.alive_nodes
        if n.node_id not in exclude and n.node_id not in member_nodes
    ]
    clear = [n for n in apart if n.node_id not in group.parity_nodes]
    if domains is None:  # each node its own unit: tier 1 is tier 2
        return clear, clear, apart
    taken = {domains.domain_of(n) for n in member_nodes} | {
        domains.domain_of(p) for p in group.parity_nodes
        if cluster.node(p).alive
    }
    spread = [n for n in clear if domains.domain_of(n.node_id) not in taken]
    return spread, clear, apart


def choose_restore_node(
    cluster: VirtualCluster,
    group: RaidGroup,
    vm_id: int,
    exclude: set[int] | None = None,
    domains=None,
) -> int:
    """Pick the node to restore member ``vm_id`` of ``group`` onto: the
    least-loaded node of the first non-empty :func:`member_homes` tier,
    else of every live node outside ``exclude`` (a degraded placement
    that :meth:`~repro.core.dvdc.DisklessCheckpointer.heal` repairs
    once nodes return)."""
    exclude = exclude or set()
    for tier in member_homes(cluster, group, vm_id, exclude, domains):
        if tier:
            return least_loaded(tier)
    alive = [n for n in cluster.alive_nodes if n.node_id not in exclude]
    if not alive:
        raise Unrecoverable("no alive node to restore onto")
    return least_loaded(alive)


def choose_parity_node(
    cluster: VirtualCluster,
    layout: GroupLayout,
    group: RaidGroup,
    exclude: set[int] | None = None,
    domains=None,
    avoid_domains: frozenset[int] = frozenset(),
) -> int:
    """Pick a replacement parity node: alive, hosting no group member,
    with the lightest current parity load.

    When no non-member node survives (e.g. 4 nodes, group size 3, one
    node down), the parity is placed on the member node carrying the
    fewest of this group's members — the layout is then *degraded*
    (that node's failure would cost two elements) until the cluster
    repairs and :meth:`~repro.core.dvdc.DisklessCheckpointer.heal`
    moves it.

    With ``domains`` set, eligible nodes whose failure domain holds no
    surviving group element (and is not in ``avoid_domains`` — the
    domains of sibling parity shards already chosen) are preferred, so
    a domain loss still costs the group at most one element.  The tier
    is a preference, not a filter: when the constraint can't be met the
    historical tie-break applies unchanged.  ``domains=None`` is
    bit-identical to the historical behavior.
    """
    exclude = exclude or set()
    member_count: dict[int, int] = {}
    for v in group.member_vm_ids:
        node = cluster.vm(v).node_id
        if node is not None:
            member_count[node] = member_count.get(node, 0) + 1
    load = layout.parity_load()
    eligible = [
        n
        for n in cluster.alive_nodes
        if n.node_id not in member_count and n.node_id not in exclude
    ]
    if domains is not None and eligible:
        taken_domains = {domains.domain_of(m) for m in member_count}
        taken_domains |= set(avoid_domains)
        spread = [n for n in eligible
                  if domains.domain_of(n.node_id) not in taken_domains]
        if spread:
            return min(
                spread, key=lambda n: (load.get(n.node_id, 0), n.node_id)
            ).node_id
    if eligible:
        return min(eligible, key=lambda n: (load.get(n.node_id, 0), n.node_id)).node_id
    fallback = [n for n in cluster.alive_nodes if n.node_id not in exclude]
    if not fallback:
        raise Unrecoverable(f"no alive node for parity of group {group.group_id}")
    return min(
        fallback,
        key=lambda n: (member_count.get(n.node_id, 0), load.get(n.node_id, 0), n.node_id),
    ).node_id
