"""Orthogonal RAID group construction (Figs. 2–4).

The placement rules that make VM-image RAID safe on a virtualized
cluster (Section IV-B):

1. **orthogonality** — members of one parity group live on pairwise
   distinct physical nodes (a node failure may cost each group at most
   one member);
2. **parity independence** — a group's parity block lives on a node
   hosting *none* of its members (else one crash costs a member *and*
   the parity: unrecoverable under single-parity).

Three layouts reproduce the paper's figures:

* :func:`layout_firstshot` — Fig. 1: one VM per node, a single group,
  parity on a dedicated spare node;
* :func:`layout_checkpoint_node` — Fig. 3: orthogonal groups with all
  parity concentrated on one checkpointing node;
* :func:`layout_dvdc` — Fig. 4: orthogonal groups with parity rotated
  across all nodes RAID-5 style, every node a compute node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..cluster.cluster import VirtualCluster
from ..cluster.vm import VirtualMachine

__all__ = [
    "RaidGroup",
    "GroupLayout",
    "LayoutError",
    "build_orthogonal_layout",
    "layout_firstshot",
    "layout_checkpoint_node",
    "layout_dvdc",
]


class LayoutError(RuntimeError):
    """No layout satisfying the orthogonality constraints exists."""


@dataclass(frozen=True)
class RaidGroup:
    """One parity group: an ordered tuple of member VMs plus the node(s)
    responsible for holding (and computing) their parity shards.

    ``parity_node`` is shard 0's home — the only shard under the
    classic single-parity (XOR) scheme, which is why it keeps its
    historical name and position.  Coding schemes with ``m > 1`` shards
    (RDP, RS(k, m), replication) place shards ``1..m-1`` on
    ``extra_parity_nodes``, each a distinct non-member node.
    """

    group_id: int
    member_vm_ids: tuple[int, ...]
    parity_node: int
    extra_parity_nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.extra_parity_nodes and len(set(self.parity_nodes)) != len(
            self.parity_nodes
        ):
            raise LayoutError(
                f"group {self.group_id}: parity shards share a node "
                f"{self.parity_nodes}"
            )

    @property
    def parity_nodes(self) -> tuple[int, ...]:
        """All shard homes, shard index order: ``(parity_node, *extras)``."""
        return (self.parity_node, *self.extra_parity_nodes)


@dataclass
class GroupLayout:
    """A complete partition of protected VMs into RAID groups."""

    groups: list[RaidGroup] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._group_of: dict[int, RaidGroup] = {}
        for g in self.groups:
            for vm_id in g.member_vm_ids:
                if vm_id in self._group_of:
                    raise LayoutError(f"vm {vm_id} appears in two groups")
                self._group_of[vm_id] = g

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    @property
    def vm_ids(self) -> list[int]:
        return sorted(self._group_of)

    def group_of(self, vm_id: int) -> RaidGroup:
        try:
            return self._group_of[vm_id]
        except KeyError:
            raise LayoutError(f"vm {vm_id} is not in any group") from None

    def replace_group(self, group_id: int, new_group: RaidGroup) -> None:
        """Swap a group in place (e.g. parity moved to a new node),
        keeping the vm→group index consistent."""
        idx = next(
            (i for i, g in enumerate(self.groups) if g.group_id == group_id), None
        )
        if idx is None:
            raise LayoutError(f"no group with id {group_id}")
        old = self.groups[idx]
        if new_group.member_vm_ids != old.member_vm_ids:
            for vm_id in old.member_vm_ids:
                del self._group_of[vm_id]
            for vm_id in new_group.member_vm_ids:
                if vm_id in self._group_of:
                    raise LayoutError(f"vm {vm_id} already in another group")
        self.groups[idx] = new_group
        for vm_id in new_group.member_vm_ids:
            self._group_of[vm_id] = new_group

    def add_group(self, group: RaidGroup) -> None:
        """Append a new group (e.g. freshly provisioned VMs entering
        protection), keeping ids and the vm→group index consistent."""
        if any(g.group_id == group.group_id for g in self.groups):
            raise LayoutError(f"group id {group.group_id} already in layout")
        for vm_id in group.member_vm_ids:
            if vm_id in self._group_of:
                raise LayoutError(f"vm {vm_id} already in another group")
        self.groups.append(group)
        for vm_id in group.member_vm_ids:
            self._group_of[vm_id] = group

    def next_group_id(self) -> int:
        return max((g.group_id for g in self.groups), default=-1) + 1

    def groups_with_parity_on(self, node_id: int) -> list[RaidGroup]:
        return [g for g in self.groups if node_id in g.parity_nodes]

    def parity_load(self) -> dict[int, int]:
        """Shards-per-parity-node histogram — Fig. 4's even distribution
        shows up as a flat histogram, Fig. 3's as a single spike."""
        load: dict[int, int] = {}
        for g in self.groups:
            for n in g.parity_nodes:
                load[n] = load.get(n, 0) + 1
        return load


def _vms_by_node(
    cluster: VirtualCluster, vms: Iterable[VirtualMachine]
) -> dict[int, list[int]]:
    by_node: dict[int, list[int]] = {}
    for vm in vms:
        if vm.node_id is None:
            raise LayoutError(f"vm {vm.vm_id} is not hosted anywhere")
        by_node.setdefault(vm.node_id, []).append(vm.vm_id)
    for ids in by_node.values():
        ids.sort()
    return by_node


def build_orthogonal_layout(
    cluster: VirtualCluster,
    group_size: int,
    parity: str | int = "rotate",
    vms: Sequence[VirtualMachine] | None = None,
    domains=None,
    n_parity: int = 1,
) -> GroupLayout:
    """Greedy orthogonal grouping.

    Repeatedly forms a group by drawing one unassigned VM from each of
    the ``group_size`` nodes currently holding the most unassigned VMs
    (largest-first greedy — the classic feasibility-preserving heuristic
    for balanced partition into rainbow sets).  A final group may be
    smaller than ``group_size`` when counts don't divide evenly.

    ``parity`` is either ``"rotate"`` (balance parity blocks across all
    eligible nodes — RAID-5 style, Fig. 4) or a fixed node id (dedicated
    checkpointing node, Figs. 1/3).

    ``domains`` (a :class:`repro.failures.domains.FailureDomainMap`)
    strengthens orthogonality to *failure domains*: members of a group
    are drawn from distinct racks/PDUs and the parity node's domain
    hosts none of them, so a whole-domain crash costs each group at
    most one element — Fig. 2's controller argument lifted to racks.

    ``n_parity`` is the coding scheme's shard count ``m``: each group
    gets ``m`` pairwise-distinct non-member parity nodes.  In rotate
    mode all ``m`` are drawn from the least-loaded heap; with a fixed
    parity node, shard 0 lands there and shards ``1..m-1`` rotate over
    the remaining eligible nodes.
    """
    if group_size < 1:
        raise LayoutError(f"group_size must be >= 1, got {group_size}")
    if n_parity < 1:
        raise LayoutError(f"n_parity must be >= 1, got {n_parity}")
    pool = vms if vms is not None else cluster.all_vms
    by_node = _vms_by_node(cluster, pool)
    if domains is not None:
        hosting_domains = {domains.domain_of(n) for n in by_node}
        if group_size > len(hosting_domains):
            raise LayoutError(
                f"group_size {group_size} exceeds the {len(hosting_domains)} "
                "failure domains hosting VMs"
            )
    elif group_size > len(by_node):
        raise LayoutError(
            f"group_size {group_size} exceeds the {len(by_node)} nodes hosting VMs"
        )
    if isinstance(parity, int):
        parity_nodes_fixed = parity
        if not (0 <= parity < cluster.n_nodes):
            raise LayoutError(f"parity node {parity} out of range")
    else:
        parity_nodes_fixed = None
        if parity != "rotate":
            raise LayoutError(f"parity must be 'rotate' or a node id, got {parity!r}")

    groups: list[RaidGroup] = []
    parity_count: dict[int, int] = {n.node_id: 0 for n in cluster.nodes}
    gid = 0
    # Donor selection is "nodes with most remaining VMs first, stable
    # tie-break by id" — historically a full sort per group, O(G·n log n).
    # A lazy max-heap of (-remaining, node_id) pops valid entries in that
    # exact order (stale counts are re-pushed with their current value),
    # so the donor sequence — and hence the layout — is bit-identical at
    # O(log n) amortized per draw.
    donor_heap = [(-len(ids), n) for n, ids in by_node.items() if ids]
    heapq.heapify(donor_heap)
    remaining_total = sum(len(ids) for ids in by_node.values())
    # Rotate-mode parity is "least parity blocks, tie-break by id" over
    # eligible nodes — the same lazy-heap trick applies.
    parity_heap = [(0, n.node_id) for n in cluster.nodes if n.alive]
    heapq.heapify(parity_heap)
    while remaining_total:
        donors: list[int] = []
        skipped: list[tuple[int, int]] = []  # valid but domain-duplicated
        used_domains: set[int] = set()
        while donor_heap and len(donors) < group_size:
            negc, n = heapq.heappop(donor_heap)
            ids = by_node[n]
            if not ids:
                continue
            if -negc != len(ids):  # stale count: reinsert at its true rank
                heapq.heappush(donor_heap, (-len(ids), n))
                continue
            if domains is not None:
                d = domains.domain_of(n)
                if d in used_domains:
                    skipped.append((negc, n))
                    continue
                used_domains.add(d)
            donors.append(n)
        member_ids = tuple(by_node[n].pop(0) for n in donors)
        remaining_total -= len(member_ids)
        for entry in skipped:
            heapq.heappush(donor_heap, entry)
        for n in donors:
            if by_node[n]:
                heapq.heappush(donor_heap, (-len(by_node[n]), n))
        member_nodes = set(donors)
        member_domains = (
            {domains.domain_of(n) for n in member_nodes}
            if domains is not None
            else None
        )
        picked: list[int] = []
        picked_domains: set[int] = set()
        if parity_nodes_fixed is not None:
            if parity_nodes_fixed in member_nodes:
                raise LayoutError(
                    f"dedicated parity node {parity_nodes_fixed} hosts a member "
                    f"of group {gid}; exclude its VMs from the layout"
                )
            if member_domains is not None and (
                domains.domain_of(parity_nodes_fixed) in member_domains
            ):
                raise LayoutError(
                    f"dedicated parity node {parity_nodes_fixed} shares a "
                    f"failure domain with a member of group {gid}"
                )
            picked.append(parity_nodes_fixed)
            if domains is not None:
                picked_domains.add(domains.domain_of(parity_nodes_fixed))
            parity_count[parity_nodes_fixed] += 1
        while len(picked) < n_parity:
            # first valid pop == min over eligible nodes by
            # (parity_count, id); members / shared-domain / already
            # picked nodes are set aside and restored after the pick
            # (their counts are untouched, so their entries stay exact)
            pnode = None
            aside: list[tuple[int, int]] = []
            while parity_heap:
                c, n = heapq.heappop(parity_heap)
                if c != parity_count[n]:  # stale: reinsert at true rank
                    heapq.heappush(parity_heap, (parity_count[n], n))
                    continue
                if (
                    n in member_nodes
                    or n in picked
                    or (
                        member_domains is not None
                        and domains.domain_of(n) in member_domains
                    )
                    or (domains is not None and domains.domain_of(n) in picked_domains)
                ):
                    aside.append((c, n))
                    continue
                pnode = n
                break
            for entry in aside:
                heapq.heappush(parity_heap, entry)
            if pnode is None:
                raise LayoutError(
                    f"no node available to hold parity shard {len(picked)} of "
                    f"group {gid}: members and prior shards cover every eligible "
                    + ("failure domain" if domains is not None else "node")
                    + " — reduce group_size or the scheme's shard count"
                )
            heapq.heappush(parity_heap, (parity_count[pnode] + 1, pnode))
            parity_count[pnode] += 1
            picked.append(pnode)
            if domains is not None:
                picked_domains.add(domains.domain_of(pnode))
        groups.append(RaidGroup(gid, member_ids, picked[0], tuple(picked[1:])))
        gid += 1
    return GroupLayout(groups)


def layout_firstshot(
    cluster: VirtualCluster,
    parity_node: int | None = None,
    n_parity: int = 1,
) -> GroupLayout:
    """Fig. 1: one VM per node, one big N-member group, dedicated parity.

    ``parity_node`` defaults to the highest-numbered node without VMs;
    with an ``n_parity``-shard coding scheme the extra shards take the
    next-highest VM-free nodes.  Raises if any node hosts more than one
    protected VM — the restriction the first-shot design imposes.
    """
    by_node = _vms_by_node(cluster, cluster.all_vms)
    for node_id, ids in by_node.items():
        if len(ids) > 1:
            raise LayoutError(
                f"first-shot architecture allows one VM per node; node "
                f"{node_id} hosts {len(ids)}"
            )
    empty = sorted(
        (n.node_id for n in cluster.nodes if n.node_id not in by_node),
        reverse=True,
    )
    if parity_node is None:
        if not empty:
            raise LayoutError("no VM-free node available as the parity node")
        parity_node = empty[0]
    if parity_node in by_node:
        raise LayoutError(f"parity node {parity_node} hosts a VM")
    extras = tuple(n for n in empty if n != parity_node)[: n_parity - 1]
    if len(extras) < n_parity - 1:
        raise LayoutError(
            f"need {n_parity} VM-free parity nodes, only {len(extras) + 1} available"
        )
    members = tuple(ids[0] for _, ids in sorted(by_node.items()))
    return GroupLayout([RaidGroup(0, members, parity_node, extras)])


def layout_checkpoint_node(
    cluster: VirtualCluster,
    checkpoint_node: int,
    group_size: int | None = None,
    n_parity: int = 1,
) -> GroupLayout:
    """Fig. 3: orthogonal groups; every group's primary parity on one
    dedicated checkpointing node (which must host no protected VMs).
    With a multi-shard scheme, shards ``1..m-1`` rotate over non-member
    compute nodes, so the default group size shrinks to leave them room.
    """
    compute_vms = [vm for vm in cluster.all_vms if vm.node_id != checkpoint_node]
    if len(compute_vms) != len(cluster.all_vms):
        raise LayoutError(
            f"checkpoint node {checkpoint_node} hosts VMs; move them first"
        )
    n_compute = len({vm.node_id for vm in compute_vms})
    size = group_size if group_size is not None else n_compute - (n_parity - 1)
    return build_orthogonal_layout(
        cluster, size, parity=checkpoint_node, vms=compute_vms, n_parity=n_parity
    )


def layout_dvdc(
    cluster: VirtualCluster, group_size: int | None = None, n_parity: int = 1,
    domains=None,
) -> GroupLayout:
    """Fig. 4: fully distributed — orthogonal groups, parity rotated over
    all nodes, every node computes.  Default group size is
    ``n_nodes - n_parity`` (members on all nodes but the scheme's ``m``
    shard homes; single parity keeps the paper's ``n_nodes - 1``).
    ``domains`` constrains orthogonality to failure domains (geo-spread:
    default size then becomes ``n_domains - n_parity``)."""
    if group_size is not None:
        size = group_size
    else:
        units, count = (
            ("failure domains", domains.n_domains) if domains is not None
            else ("nodes", cluster.n_nodes)
        )
        size = count - n_parity
        if size < 1:
            raise LayoutError(
                f"{count} {units} leave no room for a member beside "
                f"{n_parity} parity shards; need more than {n_parity} {units} "
                "or an explicit group_size"
            )
    return build_orthogonal_layout(
        cluster, size, parity="rotate", domains=domains, n_parity=n_parity
    )
