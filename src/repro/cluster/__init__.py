"""Virtualized-cluster substrate: memory, VMs, nodes, hypervisors."""

from .cluster import ClusterSpec, VirtualCluster
from .hypervisor import Hypervisor, HypervisorError
from .images import CheckpointImage, CheckpointKind, ParityBlock
from .memory import DEFAULT_PAGE_SIZE, MemoryImage, PageDelta
from .node import NodeError, PhysicalNode
from .vm import VirtualMachine, VMError, VMState
from .xorsum import (
    as_u8,
    measure_xor_bandwidth,
    reconstruct_missing_padded,
    xor_reduce,
    xor_reduce_padded,
)

__all__ = [
    "MemoryImage",
    "PageDelta",
    "DEFAULT_PAGE_SIZE",
    "VirtualMachine",
    "VMState",
    "VMError",
    "PhysicalNode",
    "NodeError",
    "Hypervisor",
    "HypervisorError",
    "CheckpointImage",
    "CheckpointKind",
    "ParityBlock",
    "VirtualCluster",
    "ClusterSpec",
    "xor_reduce",
    "xor_reduce_padded",
    "reconstruct_missing_padded",
    "as_u8",
    "measure_xor_bandwidth",
]
