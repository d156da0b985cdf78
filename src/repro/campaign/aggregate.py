"""Adapters from campaign task values back into analysis artifacts.

Campaign workers return plain dicts (they cross process boundaries and
live in the JSONL store); these functions reassemble them into the same
objects the serial code paths produce — :class:`Fig5Result`,
:class:`MonteCarloEstimate`, :class:`StudyOutcome` — so every existing
table/figure renderer works unchanged, and equality with the serial
path can be asserted bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..model import (
    DISKFUL_PAPER,
    DISKLESS_PAPER,
    ClusterModel,
    Fig5Result,
    Fig5Series,
    MethodConfig,
    MonteCarloEstimate,
    estimate_from_moments,
    find_optimal_interval,
    overhead_function,
)

__all__ = [
    "fig5_series_from_values",
    "fig5_result_from_values",
    "mc_estimate_from_values",
    "study_outcome_from_values",
]


def fig5_series_from_values(
    method: str,
    values: list[dict],
    lam: float,
    T: float,
    cluster: ClusterModel,
    cfg: MethodConfig | None = None,
    T_r: float | None = None,
) -> Fig5Series:
    """Rebuild one Fig. 5 curve from ``fig5_point`` task values.

    Points are taken in task order (the sweep's grid order), so the
    resulting arrays — and the optimum recomputed over the same bounds —
    are bit-identical to :func:`repro.model.ratio.sweep_intervals`.
    """
    points = [v for v in values if v["method"] == method]
    if not points:
        raise ValueError(f"no fig5_point values for method {method!r}")
    intervals = np.array([v["interval"] for v in points])
    ratios = np.array([v["ratio"] for v in points])
    ov = overhead_function(cluster, method, cfg)
    repair = cluster.repair_time if T_r is None else T_r
    optimum = find_optimal_interval(
        lam, T, ov, T_r=repair,
        bounds=(float(intervals[0]), float(intervals[-1])),
    )
    return Fig5Series(
        method=method, intervals=intervals, ratios=ratios, optimum=optimum
    )


def fig5_result_from_values(
    values: list[dict],
    lam: float,
    T: float,
    cluster: ClusterModel,
    diskful_cfg: MethodConfig = DISKFUL_PAPER,
    diskless_cfg: MethodConfig = DISKLESS_PAPER,
) -> Fig5Result:
    """Both curves plus headline comparisons, as :func:`repro.model.fig5`."""
    return Fig5Result(
        diskless=fig5_series_from_values(
            "diskless", values, lam, T, cluster, diskless_cfg
        ),
        diskful=fig5_series_from_values(
            "diskful", values, lam, T, cluster, diskful_cfg
        ),
        cluster=cluster,
        lam=lam,
        T=T,
    )


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
