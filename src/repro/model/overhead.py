"""Per-checkpoint overhead pipelines — Section V-B's accounting.

"In both cases, we can essentially look at the amount of data and speed
of data transmission for each operation to determine overhead times."
The model charges a serialized three-stage pipeline per checkpoint:

* **disk-full baseline** — capture pause → network fan-in through the
  single NAS ingress (``total / B_nas``) → NAS disk write
  (``total / B_disk``);
* **diskless (DVDC)** — capture pause → distributed peer exchange
  (each node ships its own VMs' data over its own NIC:
  ``per_node / B_node`` — "sped up by a factor roughly linear in the
  number of machines") → in-memory XOR at the parity nodes
  (``per_node / B_xor`` — "orders-of-magnitude faster than a disk
  write").

Following the paper's framing, the baseline is *traditional* full-image
checkpointing while DVDC rides the live-migration machinery with
incremental capture and delta compression (Section IV-C).  Both sides
are fully configurable for ablations (e.g. giving the baseline
incremental capture too).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "ClusterModel",
    "MethodConfig",
    "PipelineCosts",
    "diskful_costs",
    "diskless_costs",
    "DISKFUL_PAPER",
    "DISKLESS_PAPER",
    "PAPER_CLUSTER",
]

GIB = float(1 << 30)


@dataclass(frozen=True)
class ClusterModel:
    """Static cluster parameters for the analytical model.

    Defaults reproduce the Fig. 5 configuration: 4 physical machines,
    12 VMs (Fig. 4 layout), GbE NICs, a single mid-range NAS, and a
    40 ms capture pause per VM.  ``vm_dirty_rate`` is the per-VM memory
    dirtying rate feeding incremental checkpoint sizes; the paper leaves
    it unspecified — see DESIGN.md §5 for the calibration.
    """

    n_nodes: int = 4
    vms_per_node: int = 3
    vm_memory_bytes: float = 1.0 * GIB
    vm_dirty_rate: float = 2e5  # bytes/s
    node_bandwidth: float = 125e6
    nas_bandwidth: float = 100e6
    nas_disk_bandwidth: float = 120e6
    memory_xor_bandwidth: float = 4e9
    capture_pause: float = 40e-3
    repair_time: float = 30.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.vms_per_node < 1:
            raise ValueError("n_nodes and vms_per_node must be >= 1")
        for name in (
            "vm_memory_bytes",
            "node_bandwidth",
            "nas_bandwidth",
            "nas_disk_bandwidth",
            "memory_xor_bandwidth",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.vm_dirty_rate < 0 or self.capture_pause < 0 or self.repair_time < 0:
            raise ValueError("rates/pauses must be >= 0")

    @property
    def n_vms(self) -> int:
        return self.n_nodes * self.vms_per_node

    def with_(self, **changes) -> "ClusterModel":
        """Functional update (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class MethodConfig:
    """How a checkpoint method captures and moves data.

    ``incremental`` — per-VM data is ``min(dirty_rate·N, memory)``
    instead of the full image; ``compression_ratio`` scales wire/disk
    bytes (1.0 = none).  ``pipelined`` overlaps the stages (charging the
    max instead of the sum) for ablation of the store-and-forward
    assumption.
    """

    incremental: bool
    compression_ratio: float = 1.0
    pipelined: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.compression_ratio <= 1.0):
            raise ValueError(
                f"compression_ratio must be in (0, 1], got {self.compression_ratio}"
            )


#: The paper's implicit configurations (Section IV-C / V-B).
DISKFUL_PAPER = MethodConfig(incremental=False, compression_ratio=1.0)
DISKLESS_PAPER = MethodConfig(incremental=True, compression_ratio=0.5)
#: The Fig. 5 cluster.
PAPER_CLUSTER = ClusterModel()


@dataclass(frozen=True)
class PipelineCosts:
    """One checkpoint cycle's stage costs (seconds)."""

    pause: float
    network: float
    sink: float  # disk write (baseline) or XOR (diskless)
    pipelined: bool = False
    stage_bytes: float = 0.0

    @property
    def overhead(self) -> float:
        """T_ov for the expected-time model."""
        if self.pipelined:
            return self.pause + max(self.network, self.sink)
        return self.pause + self.network + self.sink


def _per_vm_bytes(cluster: ClusterModel, cfg: MethodConfig, interval: float) -> float:
    if cfg.incremental:
        raw = min(cluster.vm_dirty_rate * max(interval, 0.0), cluster.vm_memory_bytes)
    else:
        raw = cluster.vm_memory_bytes
    return raw


def _barrier_pause(cluster: ClusterModel) -> float:
    # captures on one node serialize; nodes proceed in parallel
    return cluster.capture_pause * cluster.vms_per_node


def diskful_costs(
    cluster: ClusterModel, interval: float, cfg: MethodConfig = DISKFUL_PAPER
) -> PipelineCosts:
    """Baseline: all VMs' data funnels through the NAS, then its disks."""
    raw = _per_vm_bytes(cluster, cfg, interval)
    wire = raw * cfg.compression_ratio
    total_wire = wire * cluster.n_vms
    # fan-in: NAS ingress is the bottleneck unless a single node's NIC is
    # slower than its fair share
    per_node_wire = wire * cluster.vms_per_node
    network = max(
        total_wire / cluster.nas_bandwidth,
        per_node_wire / cluster.node_bandwidth,
    )
    sink = total_wire / cluster.nas_disk_bandwidth
    return PipelineCosts(
        pause=_barrier_pause(cluster),
        network=network,
        sink=sink,
        pipelined=cfg.pipelined,
        stage_bytes=total_wire,
    )


def diskless_costs(
    cluster: ClusterModel, interval: float, cfg: MethodConfig = DISKLESS_PAPER
) -> PipelineCosts:
    """DVDC: balanced peer exchange, then distributed in-memory XOR.

    With the Fig. 4 rotation every node both sends its ``vms_per_node``
    images and receives the members of the groups it holds parity for —
    a balanced all-to-all whose completion is governed by the per-node
    NIC (full duplex: send and receive overlap).  XOR work is likewise
    split evenly: each node folds ``n_vms/n_nodes`` member images.
    """
    raw = _per_vm_bytes(cluster, cfg, interval)
    wire = raw * cfg.compression_ratio
    per_node_wire = wire * cluster.vms_per_node
    network = per_node_wire / cluster.node_bandwidth
    per_node_xor = raw * cluster.vms_per_node  # XOR runs on uncompressed data
    sink = per_node_xor / cluster.memory_xor_bandwidth
    return PipelineCosts(
        pause=_barrier_pause(cluster),
        network=network,
        sink=sink,
        pipelined=cfg.pipelined,
        stage_bytes=per_node_wire * cluster.n_nodes,
    )


def overhead_function(
    cluster: ClusterModel, method: str, cfg: MethodConfig | None = None
):
    """Return ``T_ov(N)`` for the named method ("diskful"/"diskless").

    The returned callable feeds :mod:`repro.model.optimal`'s interval
    search — overhead depends on the interval under incremental capture.
    """
    if method == "diskful":
        c = cfg or DISKFUL_PAPER
        return lambda interval: diskful_costs(cluster, interval, c).overhead
    if method == "diskless":
        c = cfg or DISKLESS_PAPER
        return lambda interval: diskless_costs(cluster, interval, c).overhead
    raise ValueError(f"unknown method {method!r}")
