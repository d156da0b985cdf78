"""Section V's analytical model of checkpointed execution time.

All formulas assume a Poisson failure process with rate ``λ`` (1/MTBF)
and the "restarting progress bar" semantics the paper describes: a
failure during a segment discards that segment's progress; completed
segments (checkpointed work) are never lost.

The building blocks:

* geometric retry count — a segment of effective length ``s`` succeeds
  with probability ``e^{-λs}``, so the expected number of failed
  attempts is ``E[F] = e^{λs} − 1``;
* truncated mean — each failed attempt wastes
  ``E[T_fail | T_fail < s] = (1 − (λs + 1)e^{-λs}) / (λ (1 − e^{-λs}))``.

The paper's printed equations contain three typographical slips (see
DESIGN.md §4); the ``expected_*`` functions below implement the
dimensionally consistent forms, the ``paper_literal_*`` functions
reproduce the printed ones verbatim for comparison, and the test suite
pins the corrected forms to Monte-Carlo simulation.
"""

from __future__ import annotations

import math

__all__ = [
    "expected_failures",
    "truncated_mean_failure_time",
    "expected_time_no_checkpoint",
    "expected_time_checkpointed",
    "expected_time_with_overhead",
    "paper_literal_eq1",
    "paper_literal_eq3",
    "paper_literal_overhead",
]


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")


def _check_nonnegative(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def expected_failures(lam: float, span: float) -> float:
    """E[F]: expected failed attempts before a span completes fault-free.

    Attempts are i.i.d.; success probability ``e^{-λ·span}`` makes the
    failure count geometric with mean ``e^{λ·span} − 1``.
    """
    _check_positive(lam=lam)
    _check_nonnegative(span=span)
    try:
        return math.expm1(lam * span)
    except OverflowError:
        # λ·span beyond float range: the job effectively never finishes
        return math.inf


def truncated_mean_failure_time(lam: float, span: float) -> float:
    """E[T_fail | T_fail < span] for an exponential(λ) failure time."""
    _check_positive(lam=lam, span=span)
    x = lam * span
    denom = -math.expm1(-x)  # 1 - e^{-x}
    numer = 1.0 - (x + 1.0) * math.exp(-x)
    return numer / (lam * denom)


def expected_time_no_checkpoint(lam: float, T: float) -> float:
    """Eq. (1): expected completion time with no checkpointing.

    ``E[T_nochk] = E[F] · E[T_fail | T_fail < T] + T``.
    """
    _check_positive(lam=lam, T=T)
    return expected_failures(lam, T) * truncated_mean_failure_time(lam, T) + T


def expected_time_checkpointed(lam: float, T: float, N: float) -> float:
    """Eq. (2) (with the corrected per-segment rate): zero-cost
    checkpoints every ``N`` seconds split the job into ``T/N`` segments,
    each behaving like an uncheckpointed job of length ``N``.
    """
    _check_positive(lam=lam, T=T, N=N)
    per_segment = (
        expected_failures(lam, N) * truncated_mean_failure_time(lam, N) + N
    )
    return per_segment * (T / N)


def expected_time_with_overhead(
    lam: float, T: float, N: float, T_ov: float, T_r: float = 0.0
) -> float:
    """The overhead-aware model (corrected form).

    Each segment exposes the job to failure for ``s = N + T_ov`` seconds
    (work plus checkpoint); every failure additionally costs the repair
    time ``T_r``.  There are ``T/N`` segments::

        E = (E[F_s] · (E[T_fail | T_fail < s] + T_r) + s) · T / N

    The printed equation multiplies by ``T_ov/N`` and uses a negative
    ``E[F]`` — see :func:`paper_literal_overhead`.
    """
    _check_positive(lam=lam, T=T, N=N)
    _check_nonnegative(T_ov=T_ov, T_r=T_r)
    s = N + T_ov
    per_segment = (
        expected_failures(lam, s)
        * (truncated_mean_failure_time(lam, s) + T_r)
        + s
    )
    return per_segment * (T / N)


# ----------------------------------------------------------------------
# verbatim renderings of the printed equations (for errata comparison)
# ----------------------------------------------------------------------
def paper_literal_eq1(lam: float, T: float) -> float:
    """Eq. (1) exactly as printed.

    Algebraically identical to :func:`expected_time_no_checkpoint` —
    the printed grouping ``(e^{λT}−1)/(1−e^{−λT}) · (1−(λT+1)e^{−λT})/λ``
    equals ``E[F] · E[T_fail|T_fail<T]``.
    """
    _check_positive(lam=lam, T=T)
    x = lam * T
    term = (math.expm1(x) / (-math.expm1(-x))) * (
        (1.0 - (x + 1.0) * math.exp(-x)) / lam
    )
    return term + T


def paper_literal_eq3(lam: float, T: float, N: float) -> float:
    """Eq. (3) exactly as printed — the typo keeps ``λT`` inside the
    failure terms where Eq. (2)'s text requires ``λN``.  Kept for
    errata demonstrations; do not use for analysis."""
    _check_positive(lam=lam, T=T, N=N)
    x = lam * T
    per_segment = (math.expm1(x) / (-math.expm1(-x))) * (
        (1.0 - (x + 1.0) * math.exp(-x)) / lam
    ) + N
    return per_segment * (T / N)


def paper_literal_overhead(
    lam: float, T: float, N: float, T_ov: float, T_r: float = 0.0
) -> float:
    """The overhead equation exactly as printed: ``E[F]`` appears as
    ``e^{−λ(N+T_ov)} − 1`` (negative) and the multiplier as ``T_ov/N``.
    Kept for errata demonstrations; do not use for analysis."""
    _check_positive(lam=lam, T=T, N=N)
    _check_nonnegative(T_ov=T_ov, T_r=T_r)
    s = N + T_ov
    ef = math.exp(-lam * s) - 1.0
    etf = (1.0 - math.exp(-lam * s) * (lam * s + 1.0)) / (
        lam - lam * math.exp(-lam * s)
    )
    return (ef * (etf + T_r) + s) * (T_ov / N)
