"""Vectorized XOR kernels for parity computation.

Parity in DVDC is plain RAID-style XOR over VM checkpoint images.  The
kernels below are the only place the package touches raw bytes for
parity, so they are written for throughput: operations are whole-array
``np.bitwise_xor`` calls over ``uint8`` buffers (memory-bandwidth bound,
no Python-level loops), accumulating in place to avoid temporaries —
following the in-place/no-copies guidance for numerical Python.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "as_u8",
    "xor_reduce",
    "xor_reduce_padded",
    "xor_reduce_groups",
    "xor_fold_groups",
    "reconstruct_missing_padded",
    "measure_xor_bandwidth",
]


def as_u8(buf: np.ndarray | bytes | bytearray) -> np.ndarray:
    """View any buffer as a flat uint8 array (no copy where possible).

    ``bytes``/``bytearray`` map zero-copy through ``np.frombuffer`` (the
    bytearray view is writable, so in-place kernels mutate the original).
    Contiguous arrays map to a flat view; *non-contiguous* arrays cannot
    be viewed flat, so the result is a contiguous **copy**.
    """
    if isinstance(buf, (bytes, bytearray)):
        return np.frombuffer(buf, dtype=np.uint8)
    arr = np.asarray(buf)
    return arr.reshape(-1).view(np.uint8)


def xor_reduce(buffers: Iterable[np.ndarray | bytes]) -> np.ndarray:
    """XOR of all buffers: ``b0 ^ b1 ^ ... ^ bk``.

    Returns a fresh uint8 array.  With one buffer, returns a copy.
    """
    bufs = [as_u8(b) for b in buffers]
    if not bufs:
        raise ValueError("xor_reduce needs at least one buffer")
    out = bufs[0].copy()
    for b in bufs[1:]:
        if b.shape[0] != out.shape[0]:
            raise ValueError(
                f"parity members must have equal length, got {out.shape[0]} "
                f"vs {b.shape[0]}"
            )
        np.bitwise_xor(out, b, out=out)
    return out


def xor_reduce_padded(buffers: Iterable[np.ndarray | bytes]) -> np.ndarray:
    """XOR of buffers of *unequal* length, zero-padded to the longest.

    RAID over heterogeneous VM images: a short member behaves as if
    zero-extended, so parity is as long as the largest image and any
    single member remains recoverable (reconstruct, then truncate to
    the member's own length).
    """
    bufs = [as_u8(b) for b in buffers]
    if not bufs:
        raise ValueError("xor_reduce_padded needs at least one buffer")
    acc = np.zeros(max(b.shape[0] for b in bufs), dtype=np.uint8)
    for b in bufs:
        np.bitwise_xor(acc[: b.shape[0]], b, out=acc[: b.shape[0]])
    return acc


def xor_reduce_groups(group_flats: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Stacked XOR reduce over many same-shaped parity groups at once.

    ``group_flats`` holds, per group, the flat uint8 member images; every
    member across every group must have the same length and every group
    the same member count (the caller partitions by shape signature).
    Returns a ``(G, L)`` uint8 array whose row ``i`` equals
    ``xor_reduce(group_flats[i])`` bit for bit — XOR is associative and
    commutative, so one ``np.bitwise_xor.reduce`` over the member axis
    reproduces the sequential per-group fold exactly.  One kernel call
    replaces ``G * (M - 1)`` small ones, which is what makes the
    per-cycle parity encode scale to thousands of groups.
    """
    n_groups = len(group_flats)
    if n_groups == 0:
        raise ValueError("xor_reduce_groups needs at least one group")
    n_members = len(group_flats[0])
    length = group_flats[0][0].shape[0]
    stack = np.empty((n_groups, n_members, length), dtype=np.uint8)
    for i, flats in enumerate(group_flats):
        if len(flats) != n_members:
            raise ValueError("all groups must have the same member count")
        row = stack[i]
        for j, f in enumerate(flats):
            if f.shape[0] != length:
                raise ValueError("all members must have the same length")
            row[j] = f
    return np.bitwise_xor.reduce(stack, axis=1)


def xor_fold_groups(
    prev_rows: Sequence[np.ndarray],
    group_folds: Sequence[Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]],
    n_pages_total: int,
    page_size: int,
) -> np.ndarray:
    """Batched RAID small-write update across many parity groups.

    ``prev_rows[i]`` is group *i*'s previous flat parity block
    (``n_pages_total * page_size`` bytes); ``group_folds[i]`` holds that
    group's members as ``(page_indices, base, pages)`` triples: ``base``
    is the member's flat image the parity was taken over and ``pages``
    the ``(len(page_indices), page_size)`` new bytes of its dirty pages.
    Returns a fresh ``(G, n_pages_total * page_size)`` array of folded
    parity, ``prev ⊕ base[page] ⊕ new[page]`` on every dirty page —
    inputs are not mutated.

    The fold runs member-slot-major: slot *j* of every group gathers its
    parity pages in one fancy index (indices from different groups land
    in disjoint row ranges, so the update is well-defined), XORs each
    member's old and new pages straight into its segment of the gather,
    and scatters back once.  Two members of the *same* group may dirty
    the same page; they sit in different slots, and slot *j+1* gathers
    after slot *j* scattered, so overlapping updates chain exactly like
    the sequential fold — and XOR commutativity makes the slot-major
    order bit-identical to the group-major one.
    """
    n_groups = len(prev_rows)
    if n_groups != len(group_folds):
        raise ValueError("prev_rows and group_folds must be the same length")
    nbytes = n_pages_total * page_size
    out = np.empty((n_groups, nbytes), dtype=np.uint8)
    for i, prev in enumerate(prev_rows):
        if prev.shape[0] != nbytes:
            raise ValueError(
                f"group {i}: parity block is {prev.shape[0]}B, expected {nbytes}B"
            )
        out[i] = prev
    pages_view = out.reshape(n_groups * n_pages_total, page_size)
    max_slots = max((len(folds) for folds in group_folds), default=0)
    for slot in range(max_slots):
        members = []
        idx_parts = []
        for i, folds in enumerate(group_folds):
            if slot < len(folds):
                members.append(folds[slot])
                idx_parts.append(folds[slot][0] + i * n_pages_total)
        idx = np.concatenate(idx_parts)
        gathered = pages_view[idx]
        start = 0
        for indices, base, pages in members:
            seg = gathered[start : start + len(indices)]
            start += len(indices)
            old = base.reshape(n_pages_total, page_size)[indices]
            np.bitwise_xor(seg, old, out=seg)
            np.bitwise_xor(seg, pages, out=seg)
        pages_view[idx] = gathered
    return out


def reconstruct_missing_padded(
    survivors: Iterable[np.ndarray | bytes],
    parity: np.ndarray | bytes,
    nbytes: int,
) -> np.ndarray:
    """Recover a missing member of a padded heterogeneous group.

    ``nbytes`` is the missing member's own length (metadata the
    recovery layer carries); the zero-padded remainder is discarded.
    """
    p = as_u8(parity).copy()
    for b in survivors:
        bb = as_u8(b)
        if bb.shape[0] > p.shape[0]:
            raise ValueError("survivor longer than parity buffer")
        np.bitwise_xor(p[: bb.shape[0]], bb, out=p[: bb.shape[0]])
    if nbytes > p.shape[0]:
        raise ValueError(f"requested {nbytes}B exceeds parity length {p.shape[0]}")
    return p[:nbytes].copy()


def measure_xor_bandwidth(nbytes: int = 1 << 24, repeats: int = 3) -> float:
    """Measure achievable in-memory XOR throughput on this host.

    Returns bytes/second of ``dst ^= src`` streaming (reads 2·n, writes
    n; reported as n/t matching how the model's ``memory_xor_bandwidth``
    parameter is defined).  Used to calibrate the analytical model to
    the machine running the benchmarks.
    """
    a = np.random.default_rng(0).integers(0, 256, size=nbytes, dtype=np.uint8)
    b = a.copy()
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.bitwise_xor(b, a, out=b)
        dt = time.perf_counter() - t0
        if dt > 0:
            best = max(best, nbytes / dt)
    return best
