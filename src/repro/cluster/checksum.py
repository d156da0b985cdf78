"""End-to-end block checksums for checkpoint artifacts.

The recovery correctness argument (Sections IV & VI) silently assumes
memory and links never flip a bit.  Real clusters see silent corruption
— DRAM bit-rot, DMA errors, buggy NIC offload — and a diskless scheme
is *more* exposed than a diskful one because every artifact lives in
volatile RAM with no filesystem-level scrubbing underneath it.

Every checkpoint artifact carries a content fingerprint,
:func:`block_checksum`: a CRC-32 (via :mod:`zlib`, vectorized C) folded
with the block length so truncation and content damage are both caught.
Checksums are taken at *commit/stage* time (the moment bytes are known
good), verified on reconstruct, and re-verified periodically by the
:class:`~repro.resilience.scrubber.Scrubber`.

**Page images move in O(dirty).**  CRC-32 is affine over GF(2): the
bytes of page ``p`` of an ``n``-page image reach the block's CRC through
one 32×32 GF(2) matrix — "append ``(n−1−p)·page_size`` zero bytes",
zlib's ``crc32_combine`` operator.  So the hypervisor keeps each
committed page image's per-page CRCs (:func:`page_crcs`) beside its
checksum, and moves an incremental commit's checksum by the dirty pages
alone (:func:`update_checksum`): it hashes only the new pages, and the
old page CRCs come from the record, not from the base bytes — rot in
the base is never re-fingerprinted as good.  The operators are built
from ``zlib.crc32`` on zero bytes, lazily, once per
``(n_pages, page_size)``.  Every value is bit-identical to
:func:`block_checksum` of the bytes.

:func:`block_checksum` stays the oracle and the path for every whole
hash: a full commit (which also records the image's page CRCs), a
committed image whose base carries no page CRCs, parity shards a scheme
cannot derive (RS, RDP, replication, and every full encode), remote
copies, and every *verify* — the scrubber, the pre-fold check and the
rebuild check always hash the bytes they hold.

The functions accept any ndarray and hash its raw bytes; timing-only
artifacts (``payload is None``) simply have no checksum.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

__all__ = [
    "block_checksum",
    "page_crcs",
    "update_checksum",
]

_BITS = np.arange(32, dtype=np.uint32)


def _flat_bytes(data: np.ndarray) -> np.ndarray:
    if data.dtype == np.uint8 and data.ndim == 1 and data.flags.c_contiguous:
        return data  # already the byte view — skip three no-op copies
    return np.ascontiguousarray(data).reshape(-1).view(np.uint8)


def block_checksum(data: np.ndarray) -> int:
    """Content fingerprint of a block: CRC-32 of the bytes, mixed with
    the byte length in the high word (catches truncation/extension that
    a bare CRC of a prefix could miss)."""
    b = _flat_bytes(data)
    # a contiguous uint8 array exposes the buffer protocol, so crc32
    # streams it in place — no tobytes copy
    crc = zlib.crc32(b)
    return (b.size & 0xFFFFFFFF) << 32 | crc


def _gf2_apply(columns: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``M · v`` over GF(2) for each 32-bit ``v`` in ``vectors``, where
    ``columns[i]`` is ``M``'s image of bit ``i``.  One pass per bit
    keeps the working set at the size of ``vectors``."""
    out = np.zeros_like(vectors)
    for i in range(32):
        out ^= columns[i] * ((vectors >> np.uint32(i)) & np.uint32(1))
    return out


@lru_cache(maxsize=32)
def _planes(n_pages: int, page_size: int) -> np.ndarray:
    """``planes[i, p]``: the image of bit ``i`` under the operator that
    carries page ``p``'s CRC to the end of an ``n_pages × page_size``
    image (``(n_pages−1−p)·page_size`` zero bytes appended).  Stored bit
    by bit, so one bit of every moved page is one gather."""
    zeros = bytes(page_size)
    zero_page_crc = zlib.crc32(zeros)
    # one page of appended zeros, column by column
    step = np.array(
        [zlib.crc32(zeros, 1 << i) ^ zero_page_crc for i in range(32)],
        dtype=np.uint32,
    )
    # powers[j] = step^j, by doubling: step^(m+j) = step^m · step^j
    powers = np.empty((n_pages, 32), dtype=np.uint32)
    powers[0] = np.uint32(1) << _BITS
    have, jump = 1, step
    while have < n_pages:
        take = min(have, n_pages - have)
        powers[have : have + take] = _gf2_apply(jump, powers[:take])
        jump = _gf2_apply(jump, jump)
        have += take
    planes = np.ascontiguousarray(powers[::-1].T)
    planes.flags.writeable = False  # shared by every caller of the cache
    return planes


def page_crcs(pages: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """CRC-32 of each row of a ``(n_pages, page_size)`` uint8 array, or
    of every row of several such arrays, concatenated in order: one
    pass over all the pages, straight into the result, with no copy of
    their bytes."""
    if isinstance(pages, np.ndarray):
        pages = (pages,)
    crc32 = zlib.crc32
    return np.fromiter(
        chain.from_iterable(
            map(crc32, np.ascontiguousarray(block)) for block in pages
        ),
        dtype=np.uint32,
        count=sum(len(block) for block in pages),
    )


def update_checksum(
    checksums: Sequence[int],
    counts: Sequence[int],
    indices: np.ndarray,
    old_crcs: np.ndarray,
    new_crcs: np.ndarray,
    n_pages: int,
    page_size: int,
) -> list[int]:
    """:func:`block_checksum` of each of several ``n_pages × page_size``
    images after some of their pages changed, given its checksum before.

    Image ``b`` owns the next ``counts[b]`` entries of ``indices`` (its
    changed pages, unique), ``old_crcs`` and ``new_crcs`` (their CRCs
    before and after).  Costs O(total changed pages) in 32 whole-array
    passes, one per bit of a CRC, whatever the number of images; no
    byte of any image is read."""
    moved = np.bitwise_xor(old_crcs, new_crcs, dtype=np.uint32)
    if not moved.size:
        return list(checksums)
    planes = _planes(n_pages, page_size)
    acc = np.zeros_like(moved)
    bit = np.empty_like(moved)
    for i in range(32):
        np.right_shift(moved, np.uint32(i), out=bit)
        bit &= np.uint32(1)
        bit *= planes[i].take(indices)
        acc ^= bit
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    some = counts > 0
    shifts = np.zeros(len(counts), dtype=np.uint32)
    # empty images take no entries, so the non-empty starts alone bound
    # every segment
    shifts[some] = np.bitwise_xor.reduceat(acc, starts[some])
    return [c ^ s for c, s in zip(checksums, shifts.tolist())]
