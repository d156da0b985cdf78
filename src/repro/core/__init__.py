"""The paper's contribution: DVDC — orthogonal RAID groups over VMs,
the diskless checkpoint protocol, and recovery.  The parity codecs live
one layer down in :mod:`repro.coding` and are re-exported here."""

from ..coding import ParityCodeError, RDPCode, smallest_prime_at_least
from .architectures import checkpoint_node, dvdc, first_shot
from .dvdc import DEFAULT_XOR_BANDWIDTH, DisklessCheckpointer, DisklessCycleResult
from .groups import (
    GroupLayout,
    LayoutError,
    RaidGroup,
    build_orthogonal_layout,
    layout_checkpoint_node,
    layout_dvdc,
    layout_firstshot,
)
from .placement import (
    LayoutReport,
    group_losses_if_node_fails,
    survives_single_node_failure,
    tolerable_node_failure_sets,
    validate_layout,
)
from .recovery import (
    DisklessRecoveryReport,
    choose_parity_node,
    choose_restore_node,
    member_homes,
)

__all__ = [
    "RDPCode",
    "ParityCodeError",
    "smallest_prime_at_least",
    "RaidGroup",
    "GroupLayout",
    "LayoutError",
    "build_orthogonal_layout",
    "layout_firstshot",
    "layout_checkpoint_node",
    "layout_dvdc",
    "validate_layout",
    "LayoutReport",
    "group_losses_if_node_fails",
    "survives_single_node_failure",
    "tolerable_node_failure_sets",
    "DisklessCheckpointer",
    "DisklessCycleResult",
    "DEFAULT_XOR_BANDWIDTH",
    "DisklessRecoveryReport",
    "member_homes",
    "choose_restore_node",
    "choose_parity_node",
    "first_shot",
    "checkpoint_node",
    "dvdc",
]
