"""Erasure codecs over VM checkpoint images.

:class:`RDPCode` is Row-Diagonal Parity (Corbett et al., FAST'04), the
double-erasure code Wang et al. applied to diskless checkpointing: it
survives any two simultaneous losses.  The checkpointer runs it through
:class:`repro.coding.schemes.RDPScheme`; the paper's single-parity XOR
code is :class:`repro.coding.schemes.XorScheme`.

It operates on equal-length byte buffers (flat ``uint8`` arrays — the
committed checkpoint payloads).  Buffers are treated as *columns* of a
stripe; the code never interprets content.

The API is erasure-oriented: ``encode`` produces the parity buffers for
a group; ``reconstruct`` takes the surviving subset (``None`` marks a
lost shard, data and parity alike) and returns the complete data list.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.xorsum import as_u8

__all__ = ["ParityCodeError", "RDPCode", "smallest_prime_at_least"]


class ParityCodeError(RuntimeError):
    """Unrecoverable erasure pattern or malformed shards."""


def _normalize(buffers: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
    out = [as_u8(b) for b in buffers]
    if not out:
        raise ParityCodeError("empty member list")
    n = out[0].shape[0]
    for b in out[1:]:
        if b.shape[0] != n:
            raise ParityCodeError(f"members must be equal length: {n} vs {b.shape[0]}")
    return out


def smallest_prime_at_least(n: int) -> int:
    """Smallest prime ≥ n (RDP needs a prime stripe parameter)."""
    candidate = max(n, 2)
    while True:
        if candidate == 2:
            return 2
        if candidate % 2 == 0:
            candidate += 1
            continue
        d, prime = 3, True
        while d * d <= candidate:
            if candidate % d == 0:
                prime = False
                break
            d += 2
        if prime:
            return candidate
        candidate += 2


class RDPCode:
    """Row-Diagonal Parity: two parity shards, survives any two erasures.

    Construction (Corbett et al.): pick prime ``p`` with ``k ≤ p - 1``
    data columns (absent data columns are virtual zeros).  Each column is
    split into ``p - 1`` equal rows.  Column ``p - 1`` holds row parity;
    the diagonal-parity shard stores, for each diagonal ``d ∈ [0, p-2]``,
    the XOR of all blocks ``(row i, column j)`` with ``(i + j) mod p == d``
    over columns ``0..p-1`` (data *and* row parity).  Diagonal ``p - 1``
    is never stored — the redundancy that lets double-erasure recovery
    bootstrap.

    Recovery is implemented as constraint propagation over the row and
    diagonal equations: repeatedly find an equation with exactly one
    unknown block and solve it.  For any ≤ 2 erasures this converges (the
    RDP chain argument); the solver also transparently handles mixed
    data/parity losses.

    Buffers whose length is not divisible by ``p - 1`` are zero-padded
    internally; reconstruction returns original lengths.
    """

    n_parity = 2
    tolerates = 2

    def __init__(self, k: int, p: int | None = None):
        if k < 1:
            raise ParityCodeError(f"need >= 1 data member, got {k}")
        self.k = k
        self.p = p if p is not None else smallest_prime_at_least(k + 1)
        if self.p < k + 1:
            raise ParityCodeError(f"p={self.p} too small for k={k} (need p >= k+1)")

    # ------------------------------------------------------------------
    def _rowbytes(self, nbytes: int) -> int:
        rows = self.p - 1
        return (nbytes + rows - 1) // rows

    def _stripe(self, buf: np.ndarray, rowbytes: int) -> np.ndarray:
        rows = self.p - 1
        padded = np.zeros(rows * rowbytes, dtype=np.uint8)
        padded[: buf.shape[0]] = buf
        return padded.reshape(rows, rowbytes)

    def encode(self, members: Sequence[np.ndarray | bytes]) -> list[np.ndarray]:
        """Returns ``[row_parity, diagonal_parity]``, each of the padded
        stripe size ``(p-1) · rowbytes``."""
        bufs = _normalize(members)
        if len(bufs) != self.k:
            raise ParityCodeError(f"expected {self.k} members, got {len(bufs)}")
        rowbytes = self._rowbytes(bufs[0].shape[0])
        p, rows = self.p, self.p - 1
        cols = np.zeros((p, rows, rowbytes), dtype=np.uint8)
        for j, m in enumerate(bufs):
            cols[j] = self._stripe(m, rowbytes)
        cols[p - 1] = np.bitwise_xor.reduce(cols[: p - 1], axis=0)
        diag = np.zeros((rows, rowbytes), dtype=np.uint8)
        for j in range(p):
            for i in range(rows):
                d = (i + j) % p
                if d < rows:
                    np.bitwise_xor(diag[d], cols[j, i], out=diag[d])
        return [cols[p - 1].reshape(-1).copy(), diag.reshape(-1).copy()]

    # ------------------------------------------------------------------
    def reconstruct(
        self,
        members: Sequence[np.ndarray | None],
        parity: Sequence[np.ndarray | None],
        nbytes: int | None = None,
    ) -> list[np.ndarray]:
        """Rebuild up to two erased shards (members and/or parity).

        ``nbytes`` gives the original member length when no member
        survives to infer it from (parity shards are padded).
        """
        if len(members) != self.k:
            raise ParityCodeError(f"expected {self.k} members, got {len(members)}")
        if len(parity) != 2:
            raise ParityCodeError(f"RDP expects 2 parity shards, got {len(parity)}")
        missing_data = [i for i, m in enumerate(members) if m is None]
        n_missing = len(missing_data) + sum(1 for q in parity if q is None)
        if n_missing > 2:
            raise ParityCodeError(
                f"RDP tolerates 2 erasures, {n_missing} shards missing"
            )
        if not missing_data:
            return [as_u8(m).copy() for m in members]  # type: ignore[arg-type]

        survivors = [as_u8(m) for m in members if m is not None]
        if survivors:
            nbytes = survivors[0].shape[0]
        elif nbytes is None:
            raise ParityCodeError(
                "no surviving member to infer length from; pass nbytes"
            )
        rowbytes = self._rowbytes(nbytes)
        p, rows = self.p, self.p - 1

        # Column state: data columns 0..p-2 (virtual zeros beyond k),
        # row parity at p-1.  known[j] marks trusted columns.
        cols = np.zeros((p, rows, rowbytes), dtype=np.uint8)
        known = np.zeros(p, dtype=bool)
        for j, m in enumerate(members):
            if m is not None:
                cols[j] = self._stripe(as_u8(m), rowbytes)
                known[j] = True
        for j in range(self.k, p - 1):
            known[j] = True  # virtual zero columns
        if parity[0] is not None:
            cols[p - 1] = self._stripe(as_u8(parity[0]), rowbytes)
            known[p - 1] = True
        diag = (
            self._stripe(as_u8(parity[1]), rowbytes)
            if parity[1] is not None
            else None
        )

        self._solve(cols, known, diag)

        return [
            as_u8(m).copy()
            if m is not None
            else cols[i].reshape(-1)[:nbytes].copy()
            for i, m in enumerate(members)
        ]

    def _solve(self, cols: np.ndarray, known: np.ndarray, diag: np.ndarray | None) -> None:
        """Constraint propagation over row + diagonal parity equations.

        Unknown blocks are ``(j, i)`` for unknown columns j.  Equations:

        * row i:   XOR over all p columns of block (j, i) == 0
          (valid because column p-1 is the row parity);
        * diag d:  XOR over blocks on diagonal d == diag[d] (stored d).

        Each iteration solves every equation that is down to one unknown.
        """
        p, rows = self.p, self.p - 1
        unknown_cols = [j for j in range(p) if not known[j]]
        if not unknown_cols:
            return
        unsolved: set[tuple[int, int]] = {
            (j, i) for j in unknown_cols for i in range(rows)
        }

        # Precompute equation membership.
        row_eqs = [[(j, i) for j in unknown_cols] for i in range(rows)]
        diag_eqs: list[list[tuple[int, int]]] = []
        if diag is not None:
            for d in range(rows):
                blocks = []
                for j in unknown_cols:
                    i = (d - j) % p
                    if i < rows:
                        blocks.append((j, i))
                diag_eqs.append(blocks)

        def row_rhs(i: int) -> np.ndarray:
            acc = np.zeros(cols.shape[2], dtype=np.uint8)
            for j in range(p):
                if known[j] or (j, i) not in unsolved:
                    np.bitwise_xor(acc, cols[j, i], out=acc)
            return acc

        def diag_rhs(d: int) -> np.ndarray:
            assert diag is not None
            acc = diag[d].copy()
            for j in range(p):
                i = (d - j) % p
                if i >= rows:
                    continue
                if known[j] or (j, i) not in unsolved:
                    np.bitwise_xor(acc, cols[j, i], out=acc)
            return acc

        for _ in range(2 * p * p):  # generous bound; chain length ≤ 2(p-1)
            if not unsolved:
                break
            progressed = False
            for i in range(rows):
                pending = [b for b in row_eqs[i] if b in unsolved]
                if len(pending) == 1:
                    j, _ = pending[0]
                    cols[j, i] = row_rhs(i)
                    unsolved.discard((j, i))
                    progressed = True
            if diag is not None:
                for d in range(rows):
                    pending = [b for b in diag_eqs[d] if b in unsolved]
                    if len(pending) == 1:
                        j, i = pending[0]
                        cols[j, i] = diag_rhs(d)
                        unsolved.discard((j, i))
                        progressed = True
            if not progressed:
                break
        if unsolved:
            raise ParityCodeError(
                f"RDP propagation stalled with {len(unsolved)} blocks unsolved "
                "(erasure pattern beyond code capability?)"
            )
