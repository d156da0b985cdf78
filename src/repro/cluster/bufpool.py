"""Size-keyed free lists for checkpoint/parity ndarray buffers.

A DVDC epoch at scale wants thousands of same-sized uint8 buffers —
full-image snapshots, merged commits, parity accumulators, XOR scratch —
and allocating each one fresh makes the allocator the hot path.  The
pool recycles them instead.

Lifetime rules (documented in ``docs/performance.md``):

* :meth:`acquire` returns a buffer with **unspecified contents** — the
  caller must fully overwrite it (every producer here does: ``copyto``,
  gather, or zero-fill).
* :meth:`recycle` takes ownership back.  The caller must hold the *only*
  remaining reference; when unsure, pass through the refcount gate
  (``recycle`` checks ``sys.getrefcount`` itself and silently refuses
  buffers that are still referenced elsewhere, or are views/slices).
  A refused buffer is simply garbage-collected as before — recycling is
  an optimization, never a correctness requirement.
* The pool never hands the same buffer out twice without an intervening
  recycle, and never mutates buffers it holds.

The pool is deliberately content-agnostic: bit-exactness of checkpoints
and parity is proven by the golden/differential tests with pooling on.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["BufferPool", "GLOBAL_POOL"]

#: ``sys.getrefcount(buf)`` inside ``recycle(buf)`` sees: the caller's
#: reference, the argument binding, and getrefcount's own argument — a
#: buffer referenced *nowhere else* therefore measures exactly 3.
_SOLE_OWNER_REFCOUNT = 3


class BufferPool:
    """Free lists of flat uint8 ndarrays, keyed by byte length.

    Parameters
    ----------
    max_buffers_per_size:
        Cap on retained buffers per distinct size (excess recycles are
        dropped to the garbage collector).
    max_total_bytes:
        Cap on total retained bytes across all sizes.
    """

    def __init__(self, max_buffers_per_size: int = 64,
                 max_total_bytes: int = 1 << 31):
        self.max_buffers_per_size = int(max_buffers_per_size)
        self.max_total_bytes = int(max_total_bytes)
        self.enabled = True
        self._free: dict[int, list[np.ndarray]] = {}
        self._held_bytes = 0
        # stats (monotonic; read by tests)
        self.hits = 0
        self.misses = 0
        self.recycled = 0
        self.rejected = 0

    def acquire(self, nbytes: int) -> np.ndarray:
        """A flat uint8 array of exactly ``nbytes``; contents unspecified."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if self.enabled:
            free = self._free.get(nbytes)
            if free:
                self.hits += 1
                self._held_bytes -= nbytes
                return free.pop()
        self.misses += 1
        return np.empty(nbytes, dtype=np.uint8)

    def recycle(self, buf: np.ndarray | None,
                extra_refs: int = 0) -> bool:
        """Return ``buf`` to the pool if it is safe to reuse.

        Safe means: flat contiguous uint8 array that owns its memory, and
        the caller holds the sole remaining reference (refcount gate;
        ``extra_refs`` raises the allowance when the caller's frame
        necessarily holds extra bindings).  Returns True iff retained.
        """
        if buf is None or not self.enabled:
            return False
        if (
            not isinstance(buf, np.ndarray)
            or buf.dtype != np.uint8
            or buf.ndim != 1
            or buf.base is not None
            or not buf.flags["C_CONTIGUOUS"]
            or sys.getrefcount(buf) > _SOLE_OWNER_REFCOUNT + extra_refs
        ):
            self.rejected += 1
            return False
        nbytes = buf.shape[0]
        free = self._free.setdefault(nbytes, [])
        if (
            len(free) >= self.max_buffers_per_size
            or self._held_bytes + nbytes > self.max_total_bytes
        ):
            self.rejected += 1
            return False
        free.append(buf)
        self._held_bytes += nbytes
        self.recycled += 1
        return True

    def clear(self) -> None:
        """Drop every held buffer (stats are preserved)."""
        self._free.clear()
        self._held_bytes = 0

    @property
    def held_bytes(self) -> int:
        return self._held_bytes

    @property
    def held_buffers(self) -> int:
        return sum(len(v) for v in self._free.values())

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "recycled": self.recycled,
            "rejected": self.rejected,
            "held_buffers": self.held_buffers,
            "held_bytes": self._held_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BufferPool {self.held_buffers} bufs/{self._held_bytes}B held, "
            f"{self.hits} hits/{self.misses} misses>"
        )


#: Process-wide pool used by the checkpoint/parity hot paths.  Campaign
#: workers each get their own copy (module state is per-process).
GLOBAL_POOL = BufferPool()
