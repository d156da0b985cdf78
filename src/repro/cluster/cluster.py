"""The virtualized cluster: nodes + network + NAS + failure wiring.

:class:`VirtualCluster` is the facade the core protocols operate on.  It
owns the physical nodes (each with a hypervisor), the switched topology,
the shared NAS, and the VM registry, and it translates node-failure
events into the state changes every layer above observes (VMs die,
volatile stores vanish).
"""

from __future__ import annotations


from ..network.topology import (
    DEFAULT_LATENCY,
    DEFAULT_NAS_BANDWIDTH,
    GBE_BANDWIDTH,
    SwitchedTopology,
)
from ..sim import NULL_TRACER, Simulator, Tracer
from ..storage.disk import DiskSpec
from ..storage.nas import NAS
from .hypervisor import Hypervisor
from .node import NodeError, PhysicalNode
from .vm import VirtualMachine

__all__ = ["VirtualCluster", "ClusterSpec"]

#: Generous default so RAM accounting never binds unless a test wants it to.
DEFAULT_NODE_RAM = 256e9


class ClusterSpec:
    """Bag of constructor parameters for :class:`VirtualCluster`.

    Mirrors the Fig. 5 configuration by default: values are overridable
    per experiment.
    """

    def __init__(
        self,
        n_nodes: int = 4,
        node_ram: float = DEFAULT_NODE_RAM,
        cpu_cores: int = 8,
        node_bandwidth: float = GBE_BANDWIDTH,
        nas_bandwidth: float = DEFAULT_NAS_BANDWIDTH,
        nas_disk: DiskSpec | None = None,
        latency: float = DEFAULT_LATENCY,
        topology_factory=None,
    ):
        if n_nodes < 1:
            raise ValueError(f"need >= 1 node, got {n_nodes}")
        self.n_nodes = n_nodes
        self.node_ram = node_ram
        self.cpu_cores = cpu_cores
        self.node_bandwidth = node_bandwidth
        self.nas_bandwidth = nas_bandwidth
        self.nas_disk = nas_disk or DiskSpec(bandwidth=nas_bandwidth, channels=1)
        self.latency = latency
        #: optional ``(sim, spec, tracer) -> ClusterTopology`` override;
        #: None keeps the flat switched fabric (see repro.geo for the
        #: hierarchical multi-site variant)
        self.topology_factory = topology_factory


class VirtualCluster:
    """Nodes, hypervisors, network, NAS, and the VM registry."""

    def __init__(
        self,
        sim: Simulator,
        spec: ClusterSpec | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.sim = sim
        self.spec = spec or ClusterSpec()
        self.tracer = tracer
        self.nodes: list[PhysicalNode] = [
            PhysicalNode(i, self.spec.node_ram, self.spec.cpu_cores)
            for i in range(self.spec.n_nodes)
        ]
        self.hypervisors: list[Hypervisor] = [Hypervisor(n) for n in self.nodes]
        if self.spec.topology_factory is not None:
            self.topology = self.spec.topology_factory(sim, self.spec, tracer)
        else:
            self.topology = SwitchedTopology(
                sim,
                self.spec.n_nodes,
                node_bandwidth=self.spec.node_bandwidth,
                nas_bandwidth=self.spec.nas_bandwidth,
                latency=self.spec.latency,
                tracer=tracer,
            )
        self.nas = NAS(sim, disk_spec=self.spec.nas_disk, tracer=tracer)
        self.vms: dict[int, VirtualMachine] = {}
        self._next_vm_id = 0
        #: bumped on every node crash; protocols snapshot it at cycle
        #: start and abort their commit if it moved (two-phase safety)
        self.failure_epoch = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.spec.n_nodes

    def create_vm(
        self,
        node_id: int,
        memory_bytes: float,
        dirty_rate: float = 0.0,
        image_pages: int | None = None,
        page_size: int = 4096,
        name: str | None = None,
    ) -> VirtualMachine:
        """Create a VM and host it on ``node_id``."""
        vm = VirtualMachine(
            self._next_vm_id,
            memory_bytes,
            dirty_rate=dirty_rate,
            image_pages=image_pages,
            page_size=page_size,
            name=name,
        )
        self._next_vm_id += 1
        self.node(node_id).host(vm)
        self.vms[vm.vm_id] = vm
        return vm

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> PhysicalNode:
        if not (0 <= node_id < len(self.nodes)):
            raise NodeError(f"node id {node_id} out of range")
        return self.nodes[node_id]

    def hypervisor(self, node_id: int) -> Hypervisor:
        self.node(node_id)
        return self.hypervisors[node_id]

    def vm(self, vm_id: int) -> VirtualMachine:
        try:
            return self.vms[vm_id]
        except KeyError:
            raise NodeError(f"unknown vm id {vm_id}") from None

    def vms_on(self, node_id: int) -> list[VirtualMachine]:
        return [self.vms[v] for v in sorted(self.node(node_id).vms)]

    @property
    def alive_nodes(self) -> list[PhysicalNode]:
        return [n for n in self.nodes if n.alive]

    @property
    def all_vms(self) -> list[VirtualMachine]:
        return [self.vms[k] for k in sorted(self.vms)]

    # ------------------------------------------------------------------
    # failure / repair / movement
    # ------------------------------------------------------------------
    def kill_node(self, node_id: int) -> list[VirtualMachine]:
        """Crash a node; returns the VMs that died with it."""
        lost = self.node(node_id).fail()
        self.failure_epoch += 1
        torn = self.topology.abort_node_flows(node_id, f"node {node_id} failed")
        if torn:
            self.tracer.emit(self.sim.now, "cluster.flows_aborted",
                             node=node_id, flows=torn)
        self.tracer.emit(
            self.sim.now, "cluster.node_failed", node=node_id,
            lost_vms=[vm.vm_id for vm in lost],
        )
        return lost

    def repair_node(self, node_id: int) -> None:
        self.node(node_id).repair()
        self.tracer.emit(self.sim.now, "cluster.node_repaired", node=node_id)

    def move_vm(self, vm_id: int, dst_node_id: int) -> None:
        """Instantaneous re-registration (the *bookkeeping* part of
        migration; the timed transfer lives in :mod:`repro.migration`)."""
        vm = self.vm(vm_id)
        if vm.node_id is not None:
            self.node(vm.node_id).evict(vm)
        self.node(dst_node_id).host(vm)

    def place_failed_vm(self, vm_id: int, dst_node_id: int) -> None:
        """Host a failed (crashed) VM on a new node prior to restore."""
        vm = self.vm(vm_id)
        if vm.node_id is not None:
            raise NodeError(f"vm {vm_id} is still hosted on node {vm.node_id}")
        self.node(dst_node_id).host(vm)
