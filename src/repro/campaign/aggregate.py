"""Adapters from campaign task values back into analysis artifacts.

Campaign workers return plain dicts (they cross process boundaries and
live in the JSONL store); these functions reassemble them into the same
objects the serial code paths produce — :class:`MonteCarloEstimate`,
:class:`StudyOutcome` — so every existing table renderer works
unchanged, and equality with the serial path can be asserted
bit-for-bit.
"""

from __future__ import annotations

from ..model import MonteCarloEstimate, estimate_from_moments

__all__ = [
    "mc_estimate_from_values",
    "study_outcome_from_values",
]


def mc_estimate_from_values(values: list[dict]) -> MonteCarloEstimate:
    """Merge ``mc_chunk`` values (sorted by chunk index) into an estimate.

    Sorting by ``chunk_index`` pins the floating-point accumulation
    order, so serial and parallel campaigns agree exactly.
    """
    return estimate_from_moments(
        sorted(values, key=lambda v: v["chunk_index"])
    )


def study_outcome_from_values(values: list[dict], work: float):
    """Rebuild a :class:`repro.experiments.StudyOutcome` from cell values."""
    from ..experiments import JobOutcome, StudyOutcome
    from ..workloads.app import JobResult

    outcome = StudyOutcome(work=work)
    for v in values:
        outcome.cells.append(JobOutcome(
            method=v["method"],
            seed=int(v["trace_seed"]),
            result=JobResult(**v["result"]),
        ))
    return outcome
