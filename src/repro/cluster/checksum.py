"""End-to-end block checksums for checkpoint artifacts.

The recovery correctness argument (Sections IV & VI) silently assumes
memory and links never flip a bit.  Real clusters see silent corruption
— DRAM bit-rot, DMA errors, buggy NIC offload — and a diskless scheme
is *more* exposed than a diskful one because every artifact lives in
volatile RAM with no filesystem-level scrubbing underneath it.

This module gives every checkpoint artifact a cheap content fingerprint:
a CRC-32 (via :mod:`zlib`, vectorized C) folded with the block length so
truncation and content damage are both caught.  Checksums are computed
at *commit/stage* time (the moment bytes are known good), verified on
reconstruct, and re-verified periodically by the
:class:`~repro.resilience.scrubber.Scrubber`.

The functions accept any ndarray and hash its raw bytes; timing-only
artifacts (``payload is None``) simply have no checksum.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["block_checksum"]


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
