"""repro — Distributed Virtual Diskless Checkpointing (DVDC).

A from-scratch reproduction of *"Distributed Virtual Diskless
Checkpointing: A Highly Fault Tolerant Scheme for Virtualized
Clusters"* (Eckart, He, Wu, Aderholdt, Han, Scott — IPPS 2012):
a simulated virtualized cluster substrate, the DVDC orthogonal-RAID
checkpoint protocol with XOR / row-diagonal parity, the disk-full and
Remus baselines, and the Section V analytical model with Monte-Carlo
corroboration.

Quick start::

    from repro import paper_scenario, dvdc, fig5

    # analytical Fig. 5 (the paper's headline result)
    result = fig5()
    print(result.reduction)          # ≈ 0.18–0.19

    # a functional cluster with bit-exact parity recovery
    sc = paper_scenario(seed=1)
    ck = dvdc(sc.cluster)
    r = sc.sim.run_process(ck.run_cycle())  # re-raises a failed cycle
    print(r.committed)               # True

Subpackages: ``repro.sim`` (discrete-event engine), ``repro.cluster``
(VMs/nodes/hypervisors), ``repro.network`` / ``repro.storage``
(fluid-flow links, NAS), ``repro.failures``, ``repro.migration``,
``repro.checkpoint`` (capture strategies + baselines), ``repro.core``
(the DVDC contribution), ``repro.model`` (Section V), ``repro.workloads``
and ``repro.analysis``.
"""

from .checkpoint import (
    DiskfulCheckpointer,
    ForkedCapture,
    FullCapture,
    IncrementalCapture,
    RemusModel,
    RemusPair,
)
from .cluster import ClusterSpec, VirtualCluster
from .core import (
    DisklessCheckpointer,
    GroupLayout,
    RaidGroup,
    RDPCode,
    XorCode,
    checkpoint_node,
    dvdc,
    first_shot,
    layout_dvdc,
    validate_layout,
)
from .failures import Exponential, FailureInjector, FailureSchedule, Weibull
from .model import (
    ClusterModel,
    Fig5Result,
    expected_time_no_checkpoint,
    expected_time_with_overhead,
    fig5,
    find_optimal_interval,
    young_interval,
)
from .sim import RngRegistry, Simulator, Tracer
from .workloads import CheckpointedJob, JobResult, paper_scenario, scaled_scenario

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # sim
    "Simulator",
    "RngRegistry",
    "Tracer",
    # cluster
    "VirtualCluster",
    "ClusterSpec",
    # failures
    "Exponential",
    "Weibull",
    "FailureInjector",
    "FailureSchedule",
    # checkpointing
    "DiskfulCheckpointer",
    "ForkedCapture",
    "FullCapture",
    "IncrementalCapture",
    "RemusModel",
    "RemusPair",
    # core (DVDC)
    "DisklessCheckpointer",
    "GroupLayout",
    "RaidGroup",
    "XorCode",
    "RDPCode",
    "dvdc",
    "first_shot",
    "checkpoint_node",
    "layout_dvdc",
    "validate_layout",
    # model
    "ClusterModel",
    "fig5",
    "Fig5Result",
    "expected_time_no_checkpoint",
    "expected_time_with_overhead",
    "find_optimal_interval",
    "young_interval",
    # workloads
    "CheckpointedJob",
    "JobResult",
    "paper_scenario",
    "scaled_scenario",
]
