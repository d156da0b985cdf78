"""Reliability analysis: how "highly fault tolerant" is the scheme?

The paper's title claims high fault tolerance; single XOR parity
tolerates one failure per group *at a time*.  The exposure is the
*vulnerability window* W after a crash — recovery plus the degraded
interval until parity is re-homed — during which a second node failure
inside the same group is fatal.  Classic RAID reliability arithmetic
(Patterson/Gibson/Katz, which the paper builds on) transfers directly:

* **MTTDL** (mean time to data loss) for an ``n``-node cluster of
  per-node rate ``λ`` and window ``W``:

  - XOR (tolerates 1):  ``MTTDL₁ ≈ 1 / (n·λ · p₂)`` with
    ``p₂ = 1 − e^{−(n−1)·λ·W}`` the chance a second node dies inside
    the window;
  - RDP (tolerates 2):  ``MTTDL₂ ≈ 1 / (n·λ · p₂ · p₃)`` with
    ``p₃ = 1 − e^{−(n−2)·λ·W}`` a third death inside the doubly
    degraded window.

* **Job survival**: failures arrive at rate ``n·λ``; over a wall-clock
  span ``T_wall`` the expected number is ``n·λ·T_wall`` and each is
  fatal with probability ``p₂`` (resp. ``p₂·p₃``), so
  ``P(survive) ≈ exp(−n·λ·T_wall·p_fatal)``.

These are first-order (windows don't overlap, λW ≪ 1) — exactly the
regime of the paper's operating point — and the test suite checks them
against the end-to-end cluster simulation's realized completion rates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..coding import parse_scheme
from .montecarlo import window_loss_probability

__all__ = [
    "fatal_probability_per_failure",
    "mttdl",
    "job_survival_probability",
    "ReliabilityComparison",
    "compare_codes",
    "scheme_window_losses",
]


def _p_within(rate: float, window: float) -> float:
    """P(at least one arrival of ``rate`` within ``window``)."""
    return -math.expm1(-rate * window)


def fatal_probability_per_failure(
    lam_node: float, n_nodes: int, window: float, tolerance: int = 1
) -> float:
    """Probability that one node crash escalates to data loss.

    ``tolerance`` failures can be absorbed; loss requires ``tolerance``
    *further* crashes inside successive vulnerability windows.
    """
    if lam_node <= 0 or window < 0:
        raise ValueError("lam_node must be > 0 and window >= 0")
    if n_nodes < 2:
        raise ValueError("need >= 2 nodes")
    if tolerance < 1:
        raise ValueError("tolerance must be >= 1")
    p = 1.0
    for extra in range(1, tolerance + 1):
        survivors = n_nodes - extra
        if survivors <= 0:
            return 0.0
        p *= _p_within(survivors * lam_node, window)
    return p


def mttdl(
    lam_node: float, n_nodes: int, window: float, tolerance: int = 1
) -> float:
    """Mean time to data loss for the protected cluster."""
    p_fatal = fatal_probability_per_failure(lam_node, n_nodes, window, tolerance)
    if p_fatal == 0.0:
        return math.inf
    return 1.0 / (n_nodes * lam_node * p_fatal)


def job_survival_probability(
    lam_node: float,
    n_nodes: int,
    wall_time: float,
    window: float,
    tolerance: int = 1,
) -> float:
    """P(a job of realized length ``wall_time`` never hits data loss)."""
    if wall_time < 0:
        raise ValueError("wall_time must be >= 0")
    p_fatal = fatal_probability_per_failure(lam_node, n_nodes, window, tolerance)
    return math.exp(-n_nodes * lam_node * wall_time * p_fatal)


@dataclass(frozen=True)
class ReliabilityComparison:
    """XOR vs RDP at one operating point."""

    lam_node: float
    n_nodes: int
    window: float
    mttdl_xor: float
    mttdl_rdp: float
    survival_xor: float
    survival_rdp: float

    @property
    def mttdl_gain(self) -> float:
        if math.isinf(self.mttdl_rdp):
            return math.inf
        return self.mttdl_rdp / self.mttdl_xor


def compare_codes(
    lam_node: float, n_nodes: int, wall_time: float, window: float
) -> ReliabilityComparison:
    """Side-by-side XOR vs RDP reliability at one operating point."""
    return ReliabilityComparison(
        lam_node=lam_node,
        n_nodes=n_nodes,
        window=window,
        mttdl_xor=mttdl(lam_node, n_nodes, window, tolerance=1),
        mttdl_rdp=mttdl(lam_node, n_nodes, window, tolerance=2),
        survival_xor=job_survival_probability(
            lam_node, n_nodes, wall_time, window, tolerance=1
        ),
        survival_rdp=job_survival_probability(
            lam_node, n_nodes, wall_time, window, tolerance=2
        ),
    )


def scheme_window_losses(specs: Sequence[str] | None, *, lam: float,
                         n_nodes: int, window: float) -> list[dict]:
    """Tolerance, shards, storage and traffic overheads (at group size
    ``k = n_nodes - shards``, at least 1) and
    :func:`~repro.model.montecarlo.window_loss_probability` of each
    coding scheme spec (``None``: xor, rdp, rs-8-2, rep-3) on an
    ``n_nodes`` cluster of failure rate ``lam``."""
    rows = []
    for spec in specs or ("xor", "rdp", "rs-8-2", "rep-3"):
        sch = parse_scheme(spec)
        k = max(1, n_nodes - sch.n_shards)
        rows.append({
            "scheme": sch.name,
            "tolerance": sch.tolerance,
            "shards": sch.n_shards,
            "storage": sch.storage_overhead(k),
            "traffic": sch.traffic_factor(k),
            "p_loss": window_loss_probability(
                lam / n_nodes, n_nodes, window, tolerance=sch.tolerance),
        })
    return rows
