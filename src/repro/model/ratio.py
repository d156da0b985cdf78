"""Fig. 5 — the expected-time-ratio sweep.

Varies the checkpoint interval for both methods, computes the expected
time ratio (E[T]/T, 1.0 = fault-free ideal), and extracts each curve's
minimum — the "X marks" of the figure.  The headline numbers of Section
V-B derive from the two minima:

* *overhead ratio* of a method = its minimum ratio − 1;
* *reduction* of diskless over diskful =
  ``1 − E[T]_diskless / E[T]_diskful`` at the respective optima
  (the paper reports ≈18% with ≈1% diskless overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..failures.mtbf import PAPER_LAMBDA
from .optimal import OptimalInterval, find_optimal_interval
from .overhead import (
    DISKFUL_PAPER,
    DISKLESS_PAPER,
    ClusterModel,
    MethodConfig,
    PAPER_CLUSTER,
    overhead_function,
)
from .poisson import expected_time_with_overhead

__all__ = ["Fig5Series", "Fig5Result", "sweep_intervals", "fig5"]

#: 2 days — "typical of long-running HPC application" (Section V-B).
PAPER_JOB_SECONDS = 2.0 * 24 * 3600.0


@dataclass
class Fig5Series:
    """One curve of Fig. 5."""

    method: str
    intervals: np.ndarray
    ratios: np.ndarray
    optimum: OptimalInterval

    @property
    def min_ratio(self) -> float:
        return self.optimum.expected_ratio

    @property
    def overhead_ratio(self) -> float:
        """Fractional overhead versus the fault-free ideal at optimum."""
        return self.optimum.expected_ratio - 1.0


@dataclass
class Fig5Result:
    """Both curves plus the headline comparisons."""

    diskless: Fig5Series
    diskful: Fig5Series
    cluster: ClusterModel = field(default_factory=ClusterModel)
    lam: float = PAPER_LAMBDA
    T: float = PAPER_JOB_SECONDS

    @property
    def reduction(self) -> float:
        """Fractional reduction in expected completion time of diskless
        over diskful, both at their optimal intervals."""
        return 1.0 - (
            self.diskless.optimum.expected_time / self.diskful.optimum.expected_time
        )


def sweep_intervals(
    lam: float,
    T: float,
    cluster: ClusterModel,
    method: str,
    cfg: MethodConfig | None = None,
    T_r: float | None = None,
    intervals: np.ndarray | None = None,
) -> Fig5Series:
    """Expected-time-ratio curve for one method over an interval grid."""
    ov = overhead_function(cluster, method, cfg)
    repair = cluster.repair_time if T_r is None else T_r
    if intervals is None:
        intervals = np.logspace(0, np.log10(T / 2.0), 240)
    ratios = np.array(
        [
            expected_time_with_overhead(lam, T, float(N), ov(float(N)), repair) / T
            for N in intervals
        ]
    )
    optimum = find_optimal_interval(
        lam, T, ov, T_r=repair, bounds=(float(intervals[0]), float(intervals[-1]))
    )
    return Fig5Series(
        method=method, intervals=np.asarray(intervals), ratios=ratios, optimum=optimum
    )


def fig5(
    lam: float = PAPER_LAMBDA,
    T: float = PAPER_JOB_SECONDS,
    cluster: ClusterModel = PAPER_CLUSTER,
    diskful_cfg: MethodConfig = DISKFUL_PAPER,
    diskless_cfg: MethodConfig = DISKLESS_PAPER,
    intervals: np.ndarray | None = None,
) -> Fig5Result:
    """Reproduce Fig. 5 under the paper's operating point.

    Defaults: cluster MTBF 3 h (λ = 9.26e-5 /s), job length 2 days,
    4 physical machines, 12 VMs, 40 ms base capture pause.
    """
    diskful = sweep_intervals(lam, T, cluster, "diskful", diskful_cfg, intervals=intervals)
    diskless = sweep_intervals(
        lam, T, cluster, "diskless", diskless_cfg, intervals=intervals
    )
    return Fig5Result(diskless=diskless, diskful=diskful, cluster=cluster, lam=lam, T=T)
