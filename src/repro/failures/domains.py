"""Failure domains: correlated node failures (racks, PDUs, switches).

Fig. 2's argument is literally about *controller* domains: grid each
RAID group across controllers so one controller failure costs each
group at most one disk.  In a cluster the same correlation exists one
level up — nodes share racks, power circuits, and top-of-rack switches,
and those fail as units.  This module models it:

* :class:`FailureDomainMap` — which node lives in which domain;
* domain-aware placement lives in :func:`repro.core.groups.\
build_orthogonal_layout` (``domains=`` parameter): members of a group
  are spread across *domains*, not merely nodes, so a full-rack loss
  still costs each group at most one element — single-parity
  recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FailureDomainMap", "racks"]


@dataclass(frozen=True)
class FailureDomainMap:
    """Assignment of nodes to correlated failure domains.

    ``assignment[node_id] == domain_id``.  Domains are dense integers
    starting at 0.
    """

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.assignment:
            raise ValueError("need at least one node")
        doms = set(self.assignment)
        if doms != set(range(len(doms))):
            raise ValueError(
                f"domain ids must be dense 0..k-1, got {sorted(doms)}"
            )

    @property
    def n_nodes(self) -> int:
        return len(self.assignment)

    @property
    def n_domains(self) -> int:
        return len(set(self.assignment))

    def domain_of(self, node_id: int) -> int:
        if not (0 <= node_id < self.n_nodes):
            raise ValueError(f"node {node_id} out of range")
        return self.assignment[node_id]


def racks(n_nodes: int, nodes_per_rack: int) -> FailureDomainMap:
    """Consecutive nodes grouped into racks of ``nodes_per_rack``."""
    if n_nodes < 1 or nodes_per_rack < 1:
        raise ValueError("n_nodes and nodes_per_rack must be >= 1")
    return FailureDomainMap(
        tuple(i // nodes_per_rack for i in range(n_nodes))
    )
