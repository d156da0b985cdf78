"""Layout validation and failure-tolerance analysis.

These checks are the executable form of Fig. 2's argument: grid the
RAID groups across controllers (nodes) so that any single controller
failure destroys at most one element per group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Collection

from ..cluster.cluster import VirtualCluster
from .groups import GroupLayout, RaidGroup

__all__ = [
    "validate_layout",
    "group_layout_errors",
    "group_losses_if_node_fails",
    "survives_single_node_failure",
    "tolerable_node_failure_sets",
    "LayoutReport",
]


@dataclass
class LayoutReport:
    """Result of :func:`validate_layout`."""

    ok: bool
    errors: list[str] = field(default_factory=list)
    parity_load: dict[int, int] = field(default_factory=dict)


def validate_layout(
    layout: GroupLayout,
    cluster: VirtualCluster,
    tolerance: int = 1,
    domains=None,
) -> LayoutReport:
    """Check orthogonality and parity independence of every group
    (:func:`group_layout_errors`)."""
    errors = [
        err
        for g in layout.groups
        for err in group_layout_errors(g, cluster, tolerance, domains)
    ]
    return LayoutReport(ok=not errors, errors=errors, parity_load=layout.parity_load())


def group_layout_errors(
    group: RaidGroup,
    cluster: VirtualCluster,
    tolerance: int = 1,
    domains=None,
) -> list[str]:
    """Why ``group``'s placement breaks the orthogonal layout, if it does.

    ``tolerance`` is the erasure capability of the coding scheme in use
    (1 for XOR, 2 for RDP and RS(k,2), ``m`` for RS(k,m)): a group may
    co-locate at most ``tolerance`` elements (members + parity shards)
    per node — or per failure *domain* when
    a :class:`repro.failures.domains.FailureDomainMap` is given.  A
    member hosted nowhere is an error too.
    """
    unit = domains.domain_of if domains is not None else (lambda n: n)
    nodes = [cluster.vm(v).node_id for v in group.member_vm_ids]
    errors = [
        f"group {group.group_id}: vm {v} is homeless"
        for v, n in zip(group.member_vm_ids, nodes) if n is None
    ]
    # count elements (members + parity shards) per failure unit
    per_unit = Counter(
        unit(n) for n in (*nodes, *group.parity_nodes) if n is not None
    )
    unit_name = "domain" if domains is not None else "node"
    return errors + [
        f"group {group.group_id}: {count} elements on {unit_name} "
        f"{unit_id} exceeds tolerance {tolerance}"
        for unit_id, count in per_unit.items() if count > tolerance
    ]


def group_losses_if_node_fails(
    layout: GroupLayout, cluster: VirtualCluster, dead_nodes: Collection[int]
) -> dict[int, int]:
    """Elements (members + parity) each group loses when every node in
    ``dead_nodes`` dies, a member hosted nowhere counting as lost;
    groups that lose nothing are left out."""
    losses: dict[int, int] = {}
    for g in layout.groups:
        n = sum(
            1 for vm_id in g.member_vm_ids
            if (node := cluster.vm(vm_id).node_id) is None or node in dead_nodes
        )
        n += sum(1 for p in g.parity_nodes if p in dead_nodes)
        if n:
            losses[g.group_id] = n
    return losses


def survives_single_node_failure(
    layout: GroupLayout, cluster: VirtualCluster, tolerance: int = 1
) -> bool:
    """True iff every possible single node crash is recoverable."""
    return all(
        max(group_losses_if_node_fails(layout, cluster, {n.node_id}).values(),
            default=0)
        <= tolerance
        for n in cluster.nodes
    )


def tolerable_node_failure_sets(
    layout: GroupLayout, cluster: VirtualCluster, tolerance: int = 1, max_set: int = 2
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Enumerate which node-failure combinations (up to ``max_set``
    simultaneous crashes) are survivable.  Returns (survivable, fatal)."""
    from itertools import combinations

    node_ids = [n.node_id for n in cluster.nodes]
    survivable: list[tuple[int, ...]] = []
    fatal: list[tuple[int, ...]] = []
    for r in range(1, max_set + 1):
        for combo in combinations(node_ids, r):
            losses = group_losses_if_node_fails(layout, cluster, combo)
            worst = max(losses.values(), default=0)
            (survivable if worst <= tolerance else fatal).append(combo)
    return survivable, fatal
