"""repro.controlplane — an always-on, self-managing cluster coordinator.

The control plane turns the per-experiment wiring patterns
(failure-injector subscriptions, manual ``recover()`` calls, hand-rolled
placement loops) into one long-running coordinator over the simulator:

* :mod:`~repro.controlplane.heartbeat` — keepalive daemons + fencing
  registry: one detection path for crashes and link flaps;
* :mod:`~repro.controlplane.scheduler` — the placement engine for
  new VMs;
* :mod:`~repro.controlplane.maintenance` — zero-gap rolling node drains
  over real live migrations with checksum verification, each VM moved
  by recovery's member rule;
* :mod:`~repro.controlplane.ops` — the PENDING→RUNNING→DONE/FAILED
  operation state machine behind :meth:`ControlPlane.submit`;
* :mod:`~repro.controlplane.coordinator` — :class:`ControlPlane` itself;
* :mod:`~repro.controlplane.drivers` — the one managed-cluster builder
  and the soak, rolling-drain and status runs over it.

See ``docs/controlplane.md`` for the narrative walkthrough.
"""

from .coordinator import AuditFailure, ControlPlane, ControlPlaneConfig
from .drivers import build_managed, rolling_drain, soak, timed_status
from .heartbeat import HeartbeatRegistry, KeepalivePolicy, keepalive_loop
from .maintenance import drain_node, migrate_with_verify
from .ops import OP_KINDS, Operation, OpRejected, OpState
from .scheduler import PlacementEngine, PlacementError

__all__ = [
    "AuditFailure",
    "ControlPlane",
    "ControlPlaneConfig",
    "build_managed", "rolling_drain", "soak", "timed_status",
    "HeartbeatRegistry",
    "KeepalivePolicy",
    "keepalive_loop",
    "drain_node",
    "migrate_with_verify",
    "OP_KINDS",
    "Operation",
    "OpRejected",
    "OpState",
    "PlacementEngine",
    "PlacementError",
]
