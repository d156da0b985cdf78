"""Layout validation and failure-tolerance analysis.

These checks are the executable form of Fig. 2's argument: grid the
RAID groups across controllers (nodes) so that any single controller
failure destroys at most one element per group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from ..cluster.cluster import VirtualCluster
from .groups import GroupLayout

__all__ = [
    "validate_layout",
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
    """Check orthogonality and parity independence.

    ``tolerance`` is the erasure capability of the coding scheme in use
    (1 for XOR, 2 for RDP and RS(k,2), ``m`` for RS(k,m)): a group may
    co-locate at most ``tolerance`` elements (members + parity shards)
    per node — or per failure *domain* when
    a :class:`repro.failures.domains.FailureDomainMap` is given.
    """
    errors: list[str] = []

    def unit_of(node_id: int) -> int:
        return domains.domain_of(node_id) if domains is not None else node_id

    unit_name = "domain" if domains is not None else "node"
    for g in layout.groups:
        nodes: list[int] = []
        for vm_id in g.member_vm_ids:
            vm = cluster.vm(vm_id)
            if vm.node_id is None:
                errors.append(f"group {g.group_id}: vm {vm_id} is homeless")
                continue
            nodes.append(vm.node_id)
        # count elements (members + parity block) per failure unit
        per_unit: dict[int, int] = {}
        for n in nodes:
            per_unit[unit_of(n)] = per_unit.get(unit_of(n), 0) + 1
        for pnode in g.parity_nodes:
            pu = unit_of(pnode)
            per_unit[pu] = per_unit.get(pu, 0) + 1
        for unit_id, count in per_unit.items():
            if count > tolerance:
                errors.append(
                    f"group {g.group_id}: {count} elements on {unit_name} "
                    f"{unit_id} exceeds tolerance {tolerance}"
                )
    return LayoutReport(ok=not errors, errors=errors, parity_load=layout.parity_load())


def group_losses_if_node_fails(
    layout: GroupLayout, cluster: VirtualCluster, dead_nodes: Collection[int]
) -> dict[int, int]:
    """Elements (members + parity) each group loses when every node in
    ``dead_nodes`` dies; groups that lose nothing are left out."""
    losses: dict[int, int] = {}
    for g in layout.groups:
        n = sum(
            1 for vm_id in g.member_vm_ids
            if cluster.vm(vm_id).node_id in dead_nodes
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
