"""Physical nodes.

A node hosts VMs and — in diskless checkpointing — volatile in-memory
state: checkpoint buffers for its own VMs and parity blocks for remote
RAID groups.  The defining behaviour for the whole paper is in
:meth:`PhysicalNode.fail`: a crash atomically destroys *everything*
resident — guest VMs, local checkpoints, parity — which is exactly why
group members must live on distinct nodes (orthogonal placement) and why
parity for a group must not live with any member.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from ..cluster.images import CheckpointImage, ParityBlock
from .vm import VirtualMachine

__all__ = ["PhysicalNode", "NodeError"]

_MEMORY_BYTES = attrgetter("memory_bytes")
_LOGICAL_BYTES = attrgetter("logical_bytes")


class NodeError(RuntimeError):
    """Illegal node operation (e.g. placing on a dead or full node)."""


class PhysicalNode:
    """One physical machine: RAM budget, hosted VMs, volatile stores.

    Parameters
    ----------
    node_id:
        Unique integer id.
    ram_bytes:
        Physical memory; hosting VMs plus in-memory checkpoint/parity
        buffers must fit (enforced by :meth:`check_memory`).
    cpu_cores:
        Informational; used by CPU-cost accounting in the DVDC protocol.
    """

    def __init__(self, node_id: int, ram_bytes: float, cpu_cores: int = 8):
        if not ram_bytes > 0:  # NaN would switch the RAM check off
            raise NodeError(f"ram_bytes must be > 0, got {ram_bytes}")
        if cpu_cores < 1:
            raise NodeError(f"cpu_cores must be >= 1, got {cpu_cores}")
        self.node_id = int(node_id)
        self.ram_bytes = float(ram_bytes)
        self.cpu_cores = int(cpu_cores)
        self.alive = True
        self.vms: dict[int, VirtualMachine] = {}
        #: committed checkpoint images of *local* VMs, vm_id -> image
        self.checkpoint_store: dict[int, CheckpointImage] = {}
        #: parity blocks this node is responsible for, group_id -> block
        self.parity_store: dict[int, ParityBlock] = {}
        self.failure_count = 0

    # ------------------------------------------------------------------
    # hosting
    # ------------------------------------------------------------------
    def host(self, vm: VirtualMachine) -> None:
        if not self.alive:
            raise NodeError(f"node {self.node_id} is down")
        if vm.vm_id in self.vms:
            raise NodeError(f"vm {vm.vm_id} already on node {self.node_id}")
        if vm.node_id is not None:
            raise NodeError(
                f"vm {vm.vm_id} still registered on node {vm.node_id}; evict first"
            )
        self.vms[vm.vm_id] = vm
        vm.node_id = self.node_id
        self.check_memory()

    def evict(self, vm: VirtualMachine) -> None:
        if vm.vm_id not in self.vms:
            raise NodeError(f"vm {vm.vm_id} not on node {self.node_id}")
        del self.vms[vm.vm_id]
        vm.node_id = None

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    @property
    def vm_bytes(self) -> float:
        return sum(map(_MEMORY_BYTES, self.vms.values()))

    @property
    def checkpoint_bytes(self) -> float:
        return sum(map(_LOGICAL_BYTES, self.checkpoint_store.values()))

    @property
    def parity_bytes(self) -> float:
        return sum(map(_LOGICAL_BYTES, self.parity_store.values()))

    @property
    def used_bytes(self) -> float:
        return self.vm_bytes + self.checkpoint_bytes + self.parity_bytes

    def check_memory(self) -> None:
        """Raise if resident state exceeds physical RAM."""
        if self.used_bytes > self.ram_bytes * (1 + 1e-9):
            raise NodeError(
                f"node {self.node_id} over-committed: "
                f"{self.used_bytes:.3g} > {self.ram_bytes:.3g} bytes"
            )

    # ------------------------------------------------------------------
    # volatile stores
    # ------------------------------------------------------------------
    def store_checkpoint(self, image: CheckpointImage) -> None:
        self.store_checkpoints((image,))

    def store_checkpoints(self, images: Iterable[CheckpointImage]) -> None:
        """Store committed images, in order, then check RAM once."""
        if not self.alive:
            raise NodeError(f"node {self.node_id} is down")
        store = self.checkpoint_store
        for image in images:
            store[image.vm_id] = image
        self.check_memory()

    def store_parity(self, block: ParityBlock) -> None:
        if not self.alive:
            raise NodeError(f"node {self.node_id} is down")
        block.stored_on_node = self.node_id
        self.parity_store[block.group_id] = block
        self.check_memory()

    # ------------------------------------------------------------------
    # failure / repair
    # ------------------------------------------------------------------
    def fail(self) -> list[VirtualMachine]:
        """Crash the node: all resident VMs die, volatile stores vanish.

        Returns the list of VMs that were lost (now in FAILED state and
        no longer registered here).
        """
        if not self.alive:
            return []
        self.alive = False
        self.failure_count += 1
        lost = list(self.vms.values())
        for vm in lost:
            vm.mark_failed()
            vm.node_id = None
        self.vms.clear()
        self.checkpoint_store.clear()
        self.parity_store.clear()
        return lost

    def repair(self) -> None:
        """Bring the node back, empty."""
        self.alive = True

    def deactivate(self) -> None:
        """Power the node down *cleanly* as a cold spare.

        Unlike :meth:`fail` this is only legal on an empty node — spares
        are provisioned before any VMs land on them — and does not bump
        ``failure_count``.  A spare is brought online with :meth:`repair`
        (the cluster's ``repair_node`` path), after which placement sees
        an empty, maximally-free node.
        """
        if self.vms or self.checkpoint_store or self.parity_store:
            raise NodeError(
                f"node {self.node_id} holds state; only empty nodes can be spares"
            )
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "DOWN"
        return (
            f"<Node {self.node_id} {state} vms={sorted(self.vms)} "
            f"mem {self.used_bytes / 1e9:.3g}/{self.ram_bytes / 1e9:.3g}GB>"
        )
