"""Monte-Carlo corroboration of the Section V equations.

The conclusion claims "models to corroborate our equations"; this module
provides them.  :func:`simulate_completion_times` plays the segment
game directly — draw exponential failure times, retry segments, pay
overhead and repair — with no reference to the closed forms, so the
agreement measured in the tests and the VAL-MC bench is evidence the
corrected equations are right (and the printed typos wrong).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..sim.rng import derive_seed

__all__ = [
    "simulate_completion_times",
    "MonteCarloEstimate",
    "estimate_expected_time",
    "chunk_sizes",
    "chunk_seed",
    "simulate_completion_times_chunk",
    "simulate_completion_times_chunked",
    "chunk_moments",
    "estimate_from_moments",
    "window_loss_probability",
    "estimate_window_loss",
]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with a normal-approximation confidence interval."""

    mean: float
    std_error: float
    n_runs: int

    def ci(self, z: float = 1.96) -> tuple[float, float]:
        return (self.mean - z * self.std_error, self.mean + z * self.std_error)

    def within(self, value: float, z: float = 3.0) -> bool:
        lo, hi = self.ci(z)
        return lo <= value <= hi


def simulate_completion_times(
    rng: np.random.Generator,
    lam: float,
    T: float,
    N: float | None,
    T_ov: float = 0.0,
    T_r: float = 0.0,
    n_runs: int = 1000,
    final_checkpoint: bool = True,
) -> np.ndarray:
    """Simulate ``n_runs`` job executions; returns completion times.

    ``N=None`` means no checkpointing (a failure restarts the whole
    job).  Otherwise the job is ``ceil(T/N)`` segments; the final
    segment may be shorter.  A segment must survive its work *plus* the
    checkpoint overhead; a failure during either wastes the elapsed
    exposure and adds the repair time.

    ``final_checkpoint=True`` charges ``T_ov`` on the last segment too,
    matching the closed form's ``T/N`` checkpoints exactly (use it when
    validating the equations); ``False`` models a real job, which does
    not checkpoint after its final segment.

    The loop is vectorized per segment across runs: all runs' attempts
    for a segment are drawn in batch until every run completes it.
    """
    if lam <= 0 or T <= 0:
        raise ValueError("lam and T must be > 0")
    if N is not None and N <= 0:
        raise ValueError("N must be > 0 (or None)")
    if T_ov < 0 or T_r < 0:
        raise ValueError("T_ov and T_r must be >= 0")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")

    if N is None:
        segments = [T]
        overheads = [0.0]
    else:
        n_full = int(math.floor(T / N))
        rem = T - n_full * N
        segments = [N] * n_full + ([rem] if rem > 1e-12 else [])
        overheads = [T_ov] * len(segments)
        if overheads and not final_checkpoint:
            overheads[-1] = 0.0

    totals = np.zeros(n_runs)
    for seg, ov in zip(segments, overheads):
        exposure = seg + ov
        pending = np.arange(n_runs)
        # accumulate failures until all runs pass this segment
        while pending.size:
            draws = rng.exponential(1.0 / lam, size=pending.size)
            failed = draws < exposure
            totals[pending[failed]] += draws[failed] + T_r
            totals[pending[~failed]] += exposure
            pending = pending[failed]
    return totals


def estimate_expected_time(
    rng: np.random.Generator,
    lam: float,
    T: float,
    N: float | None,
    T_ov: float = 0.0,
    T_r: float = 0.0,
    n_runs: int = 2000,
    final_checkpoint: bool = True,
) -> MonteCarloEstimate:
    """Mean completion time with standard error."""
    samples = simulate_completion_times(
        rng, lam, T, N, T_ov, T_r, n_runs, final_checkpoint
    )
    return MonteCarloEstimate(
        mean=float(samples.mean()),
        std_error=float(samples.std(ddof=1) / math.sqrt(n_runs)),
        n_runs=n_runs,
    )


# ---------------------------------------------------------------------------
# Chunked evaluation — the unit the campaign runner parallelizes.
#
# A large n_runs is split into fixed-size chunks; every chunk draws from
# its own Generator seeded by ``derive_seed(master_seed, "mc-chunk/i")``.
# Chunk results therefore depend only on (master_seed, chunk_index,
# chunk_runs, model params) — never on which process computed them or in
# what order — so a parallel fan-out is bit-identical to the serial loop.

#: Default runs per chunk; small enough to load-balance a pool, large
#: enough that the per-segment vectorization still pays off.
DEFAULT_CHUNK_RUNS = 512


def chunk_sizes(n_runs: int, chunk_runs: int = DEFAULT_CHUNK_RUNS) -> list[int]:
    """Split ``n_runs`` into chunk lengths (last chunk may be short)."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if chunk_runs < 1:
        raise ValueError("chunk_runs must be >= 1")
    full, rem = divmod(n_runs, chunk_runs)
    return [chunk_runs] * full + ([rem] if rem else [])


def chunk_seed(master_seed: int, chunk_index: int) -> int:
    """The derived seed of one Monte-Carlo chunk."""
    return derive_seed(master_seed, f"mc-chunk/{chunk_index}")


def simulate_completion_times_chunk(
    master_seed: int,
    chunk_index: int,
    chunk_runs: int,
    lam: float,
    T: float,
    N: float | None,
    T_ov: float = 0.0,
    T_r: float = 0.0,
    final_checkpoint: bool = True,
) -> np.ndarray:
    """One independently seeded chunk of :func:`simulate_completion_times`.

    Calling this for each chunk of :func:`chunk_sizes` — in any order,
    from any process — and concatenating reproduces
    :func:`simulate_completion_times_chunked` exactly.
    """
    rng = np.random.default_rng(chunk_seed(master_seed, chunk_index))
    return simulate_completion_times(
        rng, lam, T, N, T_ov, T_r, chunk_runs, final_checkpoint
    )


def simulate_completion_times_chunked(
    master_seed: int,
    lam: float,
    T: float,
    N: float | None,
    T_ov: float = 0.0,
    T_r: float = 0.0,
    n_runs: int = 2000,
    chunk_runs: int = DEFAULT_CHUNK_RUNS,
    final_checkpoint: bool = True,
    probe=None,
) -> np.ndarray:
    """All chunks evaluated serially and concatenated in index order.

    ``probe`` (a :class:`repro.telemetry.Probe`) records per-chunk
    timings and run counts; the guard below is the standard disabled-path
    discipline, so passing a disabled probe — or none — costs one
    attribute check per chunk (the telemetry overhead bench measures
    exactly this call).
    """
    import time as _time

    parts = []
    for i, size in enumerate(chunk_sizes(n_runs, chunk_runs)):
        t0 = _time.perf_counter()
        parts.append(simulate_completion_times_chunk(
            master_seed, i, size, lam, T, N, T_ov, T_r, final_checkpoint
        ))
        if probe is not None and probe.enabled:
            probe.observe(
                "repro_mc_chunk_seconds", _time.perf_counter() - t0,
                help="Wall time of one Monte-Carlo chunk",
            )
            probe.count(
                "repro_mc_runs_total", size,
                help="Monte-Carlo job executions simulated",
            )
    return np.concatenate(parts)


def chunk_moments(samples: np.ndarray) -> dict:
    """Sufficient statistics of one chunk — JSON-able, mergeable."""
    return {
        "n": int(samples.size),
        "sum": float(samples.sum()),
        "sumsq": float(np.square(samples).sum()),
    }


def estimate_from_moments(moments: Iterable[dict]) -> MonteCarloEstimate:
    """Merge per-chunk moments into one estimate.

    Accumulation is in iteration order, so feed chunks in index order to
    keep the result bit-identical across serial and parallel campaigns.
    """
    n, total, totalsq = 0, 0.0, 0.0
    for m in moments:
        n += m["n"]
        total += m["sum"]
        totalsq += m["sumsq"]
    if n < 1:
        raise ValueError("no chunks to merge")
    mean = total / n
    if n > 1:
        var = max(0.0, (totalsq - n * mean * mean) / (n - 1))
        std_error = math.sqrt(var / n)
    else:
        std_error = float("inf")
    return MonteCarloEstimate(mean=mean, std_error=std_error, n_runs=n)


# ---------------------------------------------------------------------------
# Window of vulnerability — what self-healing buys.
#
# After a node failure, one erasure of the coding scheme's tolerance is
# spent until the cluster is re-protected (recovery + re-encode, or a
# spare pulled from the pool).  During that window, failures exceeding
# the scheme's remaining tolerance are unrecoverable — for single-parity
# XOR, any second failure on any *other* node.  The self-healer measures the realized window
# (the ``repro_degraded_window_seconds`` histogram); these helpers turn
# a window length into a loss probability, so shrinking the window via
# spares translates directly into availability.


def window_loss_probability(
    lam: float, n_nodes: int, window: float, tolerance: int = 1
) -> float:
    """P(unrecoverable failures strike during the vulnerability window).

    A coding scheme of erasure ``tolerance`` ``m`` has one erasure spent
    by the failure that opened the window, so data survives as long as
    fewer than ``m`` of the ``n_nodes - 1`` survivors fail before
    re-protection.  Each survivor independently fails inside the window
    with probability ``q = 1 - e^{-\\lambda W}``, so

    .. math:: P_{loss} = P(\\mathrm{Binom}(n-1, q) \\ge m)

    which for ``m = 1`` (XOR single parity) collapses to the pooled
    Poisson form ``1 - e^{-\\lambda (n-1) W}``.
    """
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if tolerance < 1:
        raise ValueError(f"tolerance must be >= 1, got {tolerance}")
    n = n_nodes - 1
    if tolerance == 1:
        return -math.expm1(-lam * n * window)
    if tolerance > n:
        return 0.0  # fewer survivors than the code can lose
    q = -math.expm1(-lam * window)
    return float(sum(
        math.comb(n, i) * q**i * (1.0 - q) ** (n - i)
        for i in range(tolerance, n + 1)
    ))


def estimate_window_loss(
    rng: np.random.Generator,
    lam: float,
    n_nodes: int,
    window: float,
    n_runs: int = 2000,
    tolerance: int = 1,
) -> MonteCarloEstimate:
    """Monte-Carlo corroboration of :func:`window_loss_probability`.

    Each run draws the ``n_nodes - 1`` survivors' next failure times and
    scores a loss when the ``tolerance``-th earliest lands inside the
    window — no use of the closed form, so agreement is evidence, not
    tautology.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    # validate the full parameter set before drawing
    window_loss_probability(lam, n_nodes, window, tolerance=tolerance)
    if tolerance > n_nodes - 1:
        return MonteCarloEstimate(mean=0.0, std_error=0.0, n_runs=n_runs)
    draws = rng.exponential(1.0 / lam, size=(n_runs, n_nodes - 1))
    if tolerance == 1:
        kth = draws.min(axis=1)
    else:
        kth = np.sort(draws, axis=1)[:, tolerance - 1]
    p = float((kth < window).mean())
    std_error = math.sqrt(max(p * (1.0 - p), 1e-12) / n_runs)
    return MonteCarloEstimate(mean=p, std_error=std_error, n_runs=n_runs)
