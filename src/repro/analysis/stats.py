"""Summary statistics for experiment results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Summary", "summarize"]


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float


def summarize(samples) -> Summary:
    """Summary statistics of a 1-D sample."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
    )
