"""Page-granular VM memory images with dirty tracking.

A :class:`MemoryImage` is the functional stand-in for a Xen/KVM guest
memory image: a flat byte buffer divided into fixed-size pages, with a
dirty bitmap maintained exactly the way a hypervisor's log-dirty mode
would — every write marks its pages, and checkpoint/migration code
reads-and-clears the bitmap.

Incremental checkpoints are :class:`PageDelta` objects — the "only the
changed pages are needed" representation from Section II-B (Plank's
incremental variant), applied here at hypervisor level.

Buffers are plain numpy arrays: a full snapshot is one ``copy()`` of
the image and a delta is one allocating gather of its dirty pages.  The
steady-state checkpoint cost stays proportional to the dirty set
because the hypervisor merges each delta into the committed image in
place (see :func:`repro.cluster.hypervisor.commit_checkpoints`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MemoryImage",
    "PageDelta",
    "recycle_delta",
    "DEFAULT_PAGE_SIZE",
]

#: x86 small page.
DEFAULT_PAGE_SIZE = 4096


@dataclass(frozen=True)
class PageDelta:
    """A set of whole pages captured from an image.

    ``indices`` are page numbers (sorted, unique); ``pages`` is the
    matching ``(len(indices), page_size)`` uint8 array.  A delta applied
    to the image state it was diffed against reproduces the newer state.
    """

    page_size: int
    n_pages_total: int
    indices: np.ndarray  # int64, sorted unique
    pages: np.ndarray  # uint8, shape (len(indices), page_size)

    def __post_init__(self) -> None:
        if self.pages.shape != (len(self.indices), self.page_size):
            raise ValueError(
                f"pages shape {self.pages.shape} != ({len(self.indices)}, {self.page_size})"
            )

    @property
    def nbytes(self) -> int:
        """Payload size (page data only; index overhead is negligible)."""
        return int(self.pages.nbytes)

    @property
    def n_pages(self) -> int:
        return len(self.indices)

    def apply_to(self, flat: np.ndarray) -> None:
        """Patch ``flat`` (the full image buffer) in place."""
        view = flat.reshape(self.n_pages_total, self.page_size)
        view[self.indices] = self.pages


def recycle_delta(delta: PageDelta) -> bool:
    """Empty a fully-consumed delta, dropping its page buffer now.

    Caller contract: the delta has been applied/folded everywhere it will
    ever be needed and the caller holds the *only* reference to it.  The
    delta is emptied in place (zero pages) so accidental reuse fails
    loudly rather than reading stale bytes.  Refuses (returns False)
    when any other reference to the delta still exists.
    """
    # caller's binding + our parameter + getrefcount's argument == 3
    if not isinstance(delta, PageDelta) or sys.getrefcount(delta) > 3:
        return False
    object.__setattr__(delta, "pages", np.empty((0, delta.page_size), dtype=np.uint8))
    object.__setattr__(delta, "indices", np.empty(0, dtype=np.int64))
    return True


class MemoryImage:
    """Byte-addressable paged memory with hypervisor-style dirty logging.

    Parameters
    ----------
    n_pages:
        Number of pages in the image.
    page_size:
        Bytes per page.
    fill:
        Initial byte value, or ``None`` to leave zeroed.

    Notes
    -----
    The image is deliberately small-scale-friendly: functional tests run
    images of a few hundred pages, while timing models carry a separate
    *logical* size.  Nothing in the parity/recovery code path depends on
    the image being small — the same kernels run at any size.

    The ``pages`` / ``flat`` views are writable but writes through them
    bypass dirty logging; all mutation inside this package goes through
    the methods below.
    """

    def __init__(self, n_pages: int, page_size: int = DEFAULT_PAGE_SIZE,
                 fill: int | None = None):
        if n_pages < 1:
            raise ValueError(f"need >= 1 page, got {n_pages}")
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.n_pages = int(n_pages)
        self.page_size = int(page_size)
        self._flat = np.zeros(n_pages * page_size, dtype=np.uint8)
        # cached (n_pages, page_size) view; valid because _flat is never
        # rebound after construction (writes go through the buffer)
        self._pages2d = self._flat.reshape(self.n_pages, self.page_size)
        if fill:
            self._flat[:] = fill
        self._dirty = np.zeros(n_pages, dtype=bool)
        self._dirty_count = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._flat.nbytes

    @property
    def pages(self) -> np.ndarray:
        """(n_pages, page_size) view — no copy."""
        return self._pages2d

    @property
    def flat(self) -> np.ndarray:
        """Flat uint8 view — no copy."""
        return self._flat

    # ------------------------------------------------------------------
    # guest writes
    # ------------------------------------------------------------------
    def write(self, addr: int, data: bytes | np.ndarray) -> None:
        """Write bytes at ``addr``, marking every touched page dirty."""
        buf = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
            data, (bytes, bytearray)
        ) else np.asarray(data, dtype=np.uint8).reshape(-1)
        end = addr + len(buf)
        if addr < 0 or end > self.nbytes:
            raise IndexError(f"write [{addr}, {end}) outside image of {self.nbytes} bytes")
        self._flat[addr:end] = buf
        first = addr // self.page_size
        last = (end - 1) // self.page_size
        seg = self._dirty[first : last + 1]
        self._dirty_count += int(seg.size - np.count_nonzero(seg))
        seg[:] = True

    def touch_pages(self, indices: np.ndarray, rng: np.random.Generator | None = None) -> None:
        """Dirty the given pages; with an rng, also scribble random bytes
        into the first 8 bytes of each (cheap content change so deltas
        are non-trivial in functional tests; pages shorter than 8 bytes
        take the leading ``page_size`` bytes of each 8-byte draw).

        ``indices`` may contain duplicates; accounting is by *unique*
        page, so ``dirty_page_count`` never double-counts a page re-touched
        within one interval.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) == 0:
            return
        uniq = np.unique(idx)
        # unique is sorted, so bounds come from its ends — no extra
        # min/max reduction passes
        if uniq[0] < 0 or uniq[-1] >= self.n_pages:
            raise IndexError(f"page index outside [0, {self.n_pages})")
        self._dirty_count += int(uniq.size - np.count_nonzero(self._dirty[uniq]))
        self._dirty[uniq] = True
        if rng is not None:
            # rng consumption deliberately keyed to len(indices), dupes
            # included — RNG traces must not depend on the accounting fix
            stamp = rng.integers(0, 256, size=(len(idx), 8), dtype=np.uint8)
            width = min(8, self.page_size)
            self.pages[idx, :width] = stamp[:, :width]

    # ------------------------------------------------------------------
    # dirty logging (hypervisor side)
    # ------------------------------------------------------------------
    @property
    def dirty_page_indices(self) -> np.ndarray:
        # nonzero's result is a view of an (n, 1) array: the copy is a
        # lone, compact index array, which a delta holds for an epoch
        return self._dirty.nonzero()[0].astype(np.int64)

    @property
    def dirty_page_count(self) -> int:
        return self._dirty_count

    def clear_dirty(self) -> None:
        self._dirty.fill(False)
        self._dirty_count = 0

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def snapshot(self) -> np.ndarray:
        """Full copy of the image contents (a *full* checkpoint payload).

        The caller owns the returned buffer; the image never writes to
        it again.
        """
        return self._flat.copy()

    def capture_delta(self, clear: bool = True) -> PageDelta:
        """Capture currently-dirty pages as a :class:`PageDelta`.

        With ``clear`` (the normal checkpoint path) the dirty log resets,
        beginning the next epoch — the read-and-clear that log-dirty
        hypervisor modes perform atomically at checkpoint time.
        """
        idx = self.dirty_page_indices
        pages = self._pages2d.take(idx, 0)
        if clear:
            self.clear_dirty()
        return PageDelta(self.page_size, self.n_pages, idx, pages)

    def restore(self, payload: np.ndarray) -> None:
        """Overwrite the whole image from a full snapshot; clears dirty."""
        buf = np.asarray(payload, dtype=np.uint8).reshape(-1)
        if buf.nbytes != self.nbytes:
            raise ValueError(f"payload {buf.nbytes}B != image {self.nbytes}B")
        self._flat[:] = buf
        self.clear_dirty()
