"""Seeded open-loop arrival streams, generated in vectorized chunks.

An *open-loop* stream fixes arrival times in advance: load does not
back off when the cluster slows down, which is exactly what makes
checkpoint pause windows and brownouts visible as queueing tail
latency.  Generation is numpy-vectorized — one :class:`ArrivalChunk` of
tens of thousands of requests per draw, never one Python event per
request — so millions of requests per run cost a handful of array ops.

Chunk-size invariance (bit-exact) is a hard contract: ``chunks()``
under any ``chunk_requests`` yields byte-identical times/service values
to one monolithic draw.  Two properties make that true:

* the RNG streams are private to the generator and strictly
  sequential — numpy ``Generator`` distributions consume the bit
  stream one value at a time, so draws of n1 then n2 values equal one
  draw of n1+n2 values;
* absolute times come from ``cumsum(concat(([carry], gaps)))[1:]``
  where ``carry`` is the last emitted absolute time (0.0 initially):
  IEEE-754 addition then reproduces exactly the same left-to-right
  partial sums as a single long cumsum.

``tests/test_serving_determinism.py`` pins both properties.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..sim.rng import RngRegistry

__all__ = ["ArrivalConfig", "ArrivalChunk", "OpenLoopArrivals", "stream_digest"]

_SERVICE_DISTS = ("exponential", "lognormal")


@dataclass(frozen=True)
class ArrivalConfig:
    """Shape of one open-loop request stream.

    ``rate`` is the Poisson arrival rate (requests/s); ``service_mean``
    the mean processor-sharing service demand in seconds of dedicated
    server time.  ``service_dist`` picks exponential (M/M/·) or
    lognormal (heavier tail; ``service_sigma`` is the log-space shape)
    demands.  ``chunk_requests`` only controls generation batch size —
    results are bit-identical for any value.
    """

    rate: float = 200.0
    n_requests: int = 100_000
    service_mean: float = 0.02
    service_dist: str = "exponential"
    service_sigma: float = 1.0
    chunk_requests: int = 65_536

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.service_mean <= 0:
            raise ValueError(
                f"service_mean must be > 0, got {self.service_mean}"
            )
        if self.service_dist not in _SERVICE_DISTS:
            raise ValueError(
                f"service_dist must be one of {_SERVICE_DISTS}, "
                f"got {self.service_dist!r}"
            )
        if self.chunk_requests < 1:
            raise ValueError(
                f"chunk_requests must be >= 1, got {self.chunk_requests}"
            )


@dataclass(frozen=True)
class ArrivalChunk:
    """One contiguous batch of requests.

    ``times`` are absolute arrival seconds (strictly increasing within
    and across chunks); ``service`` the matching PS demands; request
    ids are ``start_id .. start_id + n - 1`` in array order.
    """

    start_id: int
    times: np.ndarray
    service: np.ndarray

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def end(self) -> float:
        return float(self.times[-1])


class OpenLoopArrivals:
    """Chunked generator over private, named RNG streams.

    One instance is single-use: :meth:`chunks` consumes the underlying
    bit streams.  Build a fresh instance (same registry seed, same
    prefix) to replay the identical trace — that is how paired-study
    policies share one arrival trace.
    """

    def __init__(
        self,
        config: ArrivalConfig,
        rngs: RngRegistry,
        prefix: str = "serving",
    ):
        self.config = config
        self._rngs = rngs
        self._prefix = prefix
        self._gaps = rngs.stream(f"{prefix}/gaps")
        self._service = rngs.stream(f"{prefix}/service")

    def _draw_service(self, n: int, rng=None) -> np.ndarray:
        cfg = self.config
        rng = self._service if rng is None else rng
        if cfg.service_dist == "exponential":
            return rng.exponential(cfg.service_mean, n)
        # lognormal parameterized to the requested mean:
        # E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
        mu = math.log(cfg.service_mean) - cfg.service_sigma**2 / 2.0
        return rng.lognormal(mu, cfg.service_sigma, n)

    def clone_sampler(self):
        """Scalar demand sampler for clone siblings (own RNG stream).

        Demand variability is modeled as *server-side* (slow replica,
        cold cache): each clone sibling draws an i.i.d. demand from the
        same service distribution.  First-completion-wins then keeps
        the winner's (smaller) demand, so clone-to-d trims the tail
        instead of multiplying offered work — the classic redundancy
        model.  The stream is separate from the primary service stream,
        so non-cloning policies replay bit-identical traces.
        """
        rng = self._rngs.stream(f"{self._prefix}/clone-service")

        def draw() -> float:
            return float(self._draw_service(1, rng)[0])

        return draw

    def chunks(self) -> Iterator[ArrivalChunk]:
        """Yield the stream as :class:`ArrivalChunk` batches."""
        cfg = self.config
        carry = 0.0
        emitted = 0
        while emitted < cfg.n_requests:
            n = min(cfg.chunk_requests, cfg.n_requests - emitted)
            gaps = self._gaps.exponential(1.0 / cfg.rate, n)
            times = np.cumsum(np.concatenate(([carry], gaps)))[1:]
            carry = float(times[-1])
            yield ArrivalChunk(emitted, times, self._draw_service(n))
            emitted += n


def stream_digest(arrivals: OpenLoopArrivals) -> str:
    """SHA-256 over the full stream's raw bytes (consumes the stream).

    The chunk-invariance gate: digests under different
    ``chunk_requests`` must be identical.  Times and service values are
    interleaved per request so the byte stream does not depend on where
    the chunk boundaries fall.
    """
    h = hashlib.sha256()
    for chunk in arrivals.chunks():
        rec = np.empty(2 * chunk.n, dtype=np.float64)
        rec[0::2] = chunk.times
        rec[1::2] = chunk.service
        h.update(rec.tobytes())
    return h.hexdigest()
