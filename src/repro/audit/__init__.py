"""Recoverability auditing: invariant checkers + fault-schedule fuzzer.

The verification layer for the paper's central claim — that after any
single node failure DVDC rebuilds lost VMs bit-exactly from survivors +
parity.  :mod:`repro.audit.invariants` states the claim as checkable
cluster-state invariants, :mod:`repro.audit.auditor` wires them into the
live protocol (``DisklessCheckpointer(..., auditor=...)``), and
:mod:`repro.audit.fuzzer` hammers the protocol with adversarially-timed
failure schedules and shrinks anything that breaks.

CLI: ``repro audit`` (one-shot sweep), ``repro audit --fuzz`` and
``repro audit --heal`` (:func:`run_heal_trial`).
Catalog and usage: ``docs/invariants.md``.
"""

from .auditor import AuditError, Auditor
from .fuzzer import (
    LAYOUTS,
    PHASES,
    FaultSpec,
    FuzzConfig,
    FuzzResult,
    TrialResult,
    build_heal_trial,
    canonical_schedule,
    draw_schedule,
    fuzz,
    run_heal_trial,
    run_trial,
    shrink,
)
from .invariants import (
    AuditReport,
    Violation,
    audit_cluster,
    check_epoch_coherence,
    check_layout_validity,
    check_parity_coherence,
    check_single_failure_recoverable,
    check_two_phase_atomicity,
)

__all__ = [
    "Violation",
    "AuditReport",
    "audit_cluster",
    "check_parity_coherence",
    "check_layout_validity",
    "check_epoch_coherence",
    "check_two_phase_atomicity",
    "check_single_failure_recoverable",
    "Auditor",
    "AuditError",
    "PHASES",
    "LAYOUTS",
    "FaultSpec",
    "FuzzConfig",
    "TrialResult",
    "FuzzResult",
    "draw_schedule",
    "canonical_schedule",
    "run_trial",
    "build_heal_trial", "run_heal_trial",
    "shrink",
    "fuzz",
]
