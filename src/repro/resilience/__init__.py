"""Resilience layer: transient faults, retries, scrubbing, self-healing.

The paper's protocol assumes fail-stop nodes and perfect links.  This
package supplies everything between "perfect" and "crashed":

* :mod:`~repro.resilience.faults` — seeded, replayable transient-fault
  schedules (link flaps, straggler NICs, transfer drops, silent
  corruption) injected in the style of :mod:`repro.failures`;
* :mod:`~repro.resilience.retry` — exponential-backoff retry policies
  for transfers that fail with
  :class:`~repro.network.link.TransientNetworkError`;
* :mod:`~repro.resilience.scrubber` — background checksum verification
  of parity blocks and committed images, with targeted bit-exact repair;
* :mod:`~repro.resilience.healing` — spare-node pool and the
  PROTECTED → DEGRADED → RE-PROTECTING → PROTECTED state machine that
  restores full single-failure tolerance after a crash, tracking the
  window of vulnerability as telemetry.

See ``docs/resilience.md`` for the fault taxonomy and knobs.
"""

from ..cluster.checksum import block_checksum
from .faults import (
    FAULT_KINDS,
    TransientFault,
    TransientFaultInjector,
    TransientFaultSchedule,
    corrupt_node_state,
)
from .healing import ClusterHealth, SelfHealer, SparePool
from .retry import DEFAULT_RETRY, RetryExhausted, RetryPolicy, retrying_transfer
from .scrubber import ScrubReport, Scrubber

__all__ = [
    "FAULT_KINDS",
    "TransientFault",
    "TransientFaultInjector",
    "TransientFaultSchedule",
    "corrupt_node_state",
    "ClusterHealth",
    "SelfHealer",
    "SparePool",
    "DEFAULT_RETRY",
    "RetryExhausted",
    "RetryPolicy",
    "retrying_transfer",
    "ScrubReport",
    "Scrubber",
    "block_checksum",
]
