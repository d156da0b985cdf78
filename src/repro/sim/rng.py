"""Seeded random-number streams.

Every stochastic component in the package draws from its own named
stream derived from a single master seed, so that (a) runs are exactly
reproducible, and (b) changing how many draws one component makes does
not perturb any other component — the property needed for paired
variance-reduced comparisons (same failure trace under diskful and
diskless policies).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    Uses BLAKE2 over the pair, so streams are statistically independent
    and insensitive to registration order.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(master_seed).to_bytes(8, "little", signed=False))
    h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


class RngRegistry:
    """Factory of named, independently seeded numpy Generators.

    >>> rngs = RngRegistry(42)
    >>> failures = rngs.stream("failures")
    >>> workload = rngs.stream("workload/vm0")

    Asking twice for the same name returns the *same* Generator object
    (so components can share a stream deliberately); use ``fresh=True``
    to get a re-seeded copy positioned at the start of the stream.
    """

    def __init__(self, master_seed: int = 0):
        if master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {master_seed}")
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def seed_for(self, name: str) -> int:
        return derive_seed(self.master_seed, name)

    def stream(self, name: str, fresh: bool = False) -> np.random.Generator:
        if fresh or name not in self._streams:
            gen = np.random.default_rng(self.seed_for(name))
            if fresh:
                return gen
            self._streams[name] = gen
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    # Registries cross process boundaries in campaign workers.  State is
    # just the master seed plus each stream's bit-generator state, all of
    # which numpy pickles natively — the explicit methods pin that
    # contract so a future cache attribute cannot silently break it.
    def __getstate__(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "streams": {
                name: gen.bit_generator.state
                for name, gen in self._streams.items()
            },
        }

    def __setstate__(self, state: dict) -> None:
        self.master_seed = state["master_seed"]
        self._streams = {}
        for name, bg_state in state["streams"].items():
            gen = np.random.default_rng(self.seed_for(name))
            gen.bit_generator.state = bg_state
            self._streams[name] = gen
