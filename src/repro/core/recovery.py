"""Recovery reports and placement helpers for diskless recovery.

Recovery after a node crash (Section VI's description of the DVDC
failure path): "DVDC requires all nodes to roll back to their previous
checkpoints, compute the failed node's checkpoint from parity and data,
and then resume."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..checkpoint.base import Unrecoverable
from ..cluster.cluster import VirtualCluster
from .groups import GroupLayout, RaidGroup

__all__ = ["DisklessRecoveryReport", "choose_restore_node", "choose_parity_node"]


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


def choose_restore_node(
    cluster: VirtualCluster,
    layout: GroupLayout,
    group: RaidGroup,
    exclude: set[int] | None = None,
    domains=None,
) -> int:
    """Pick the node to restore a reconstructed VM onto.

    Preference order: an alive node hosting no member of the same group
    and not the group's parity node (keeps the layout valid), breaking
    ties by current VM count; falls back to any alive non-member node,
    then any alive node (with the caller expected to rebalance).

    With ``domains`` (a :class:`~repro.failures.domains.FailureDomainMap`),
    a stronger tier is tried first: an ideal node whose failure domain
    holds no surviving element of the group — so a geo-spread layout
    stays domain-orthogonal through recovery whenever capacity allows.
    ``domains=None`` is bit-identical to the historical behavior.
    """
    exclude = exclude or set()
    member_nodes = {
        cluster.vm(v).node_id
        for v in group.member_vm_ids
        if cluster.vm(v).node_id is not None
    }
    alive = [n for n in cluster.alive_nodes if n.node_id not in exclude]
    if not alive:
        raise Unrecoverable("no alive node to restore onto")

    def load(n):  # VMs hosted, then id for determinism
        return (len(n.vms), n.node_id)

    ideal = [n for n in alive if n.node_id not in member_nodes
             and n.node_id not in group.parity_nodes]
    if domains is not None and ideal:
        taken_domains = {domains.domain_of(m) for m in member_nodes}
        taken_domains |= {
            domains.domain_of(p) for p in group.parity_nodes
            if cluster.node(p).alive
        }
        spread = [n for n in ideal
                  if domains.domain_of(n.node_id) not in taken_domains]
        if spread:
            return min(spread, key=load).node_id
    if ideal:
        return min(ideal, key=load).node_id
    non_member = [n for n in alive if n.node_id not in member_nodes]
    if non_member:
        return min(non_member, key=load).node_id
    return min(alive, key=load).node_id


def choose_parity_node(
    cluster: VirtualCluster,
    layout: GroupLayout,
    group: RaidGroup,
    exclude: set[int] | None = None,
    allow_degraded: bool = True,
    domains=None,
    avoid_domains: frozenset[int] = frozenset(),
) -> int:
    """Pick a replacement parity node: alive, hosting no group member,
    with the lightest current parity load.

    When no non-member node survives (e.g. 4 nodes, group size 3, one
    node down) and ``allow_degraded`` is set, the parity is placed on
    the member node carrying the fewest of this group's members — the
    layout is then *degraded* (that node's failure would cost two
    elements) until the cluster heals and
    :func:`~repro.core.placement.rebalance_after_migration` runs.

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
    if not allow_degraded:
        raise Unrecoverable(f"no eligible parity node for group {group.group_id}")
    fallback = [n for n in cluster.alive_nodes if n.node_id not in exclude]
    if not fallback:
        raise Unrecoverable(f"no alive node for parity of group {group.group_id}")
    return min(
        fallback,
        key=lambda n: (member_count.get(n.node_id, 0), load.get(n.node_id, 0), n.node_id),
    ).node_id
