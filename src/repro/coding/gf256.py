"""GF(256) arithmetic kernels for Reed–Solomon erasure coding.

The field is :math:`GF(2^8)` with the AES-adjacent primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11d), the conventional choice for
storage erasure codes.  Scalars are plain ints in ``range(256)``;
vectors are ``uint8`` numpy arrays.

Two lookup structures drive everything:

* ``GF_EXP`` / ``GF_LOG`` — the discrete log/antilog tables used for
  scalar multiply, divide, and inverse.
* ``MUL_TABLE`` — the full 256×256 product table; row ``c`` maps every
  byte to its product with ``c``.

Every product over data buffers goes through one kernel,
:func:`gf_matvec`: the rows of ``mat @ vecs`` over GF(256), computed
block by block.  Each member's block is widened to ``intp`` once and
shared by all output rows; each coefficient is one ``np.take`` gather
into a reused buffer XORed into the output slice.  Given :func:`gf_pair_tables` (a
65 536-entry ``uint16`` table per coefficient), the gather reads the
members two bytes at a time — what RS encode does with its fixed
generator; decode matrices change with every erasure pattern, so
decode gathers byte-wise from ``MUL_TABLE`` rows and builds no tables.

The matrix inverse (:func:`gf_matinv`) operates on
small ``k × k`` systematic-code matrices — Gauss–Jordan over GF(256) —
and are only ever applied to matrices whose invertibility the MDS
property guarantees.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Primitive polynomial for the field (x^8 + x^4 + x^3 + x^2 + 1).
GF_POLY = 0x11D

_exp = np.zeros(512, dtype=np.uint8)
_log = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    _exp[_i] = _x
    _log[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= GF_POLY
# Duplicate the cycle so gf_mul can skip the mod-255 reduction.
_exp[255:510] = _exp[:255]

#: Antilog table, doubled so ``GF_EXP[a + b]`` needs no ``% 255``.
GF_EXP = _exp
#: Discrete log table; ``GF_LOG[0]`` is unused (log of zero is undefined).
GF_LOG = _log


def gf_mul(a: int, b: int) -> int:
    """Scalar product ``a * b`` in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return int(GF_EXP[int(GF_LOG[a]) + int(GF_LOG[b])])


def gf_inv(a: int) -> int:
    """Multiplicative inverse of ``a``; raises on ``a == 0``."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(GF_EXP[255 - int(GF_LOG[a])])


def gf_div(a: int, b: int) -> int:
    """Scalar quotient ``a / b`` in GF(256); raises on ``b == 0``."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(GF_EXP[int(GF_LOG[a]) - int(GF_LOG[b]) + 255])


def _build_mul_table() -> np.ndarray:
    """The full 256×256 product table via one outer log-sum gather."""
    logs = GF_LOG.astype(np.int64)
    table = GF_EXP[logs[:, None] + logs[None, :]].astype(np.uint8)
    table[0, :] = 0
    table[:, 0] = 0
    return table


#: ``MUL_TABLE[a][b] == a * b`` in GF(256); row gathers vectorize
#: coefficient-times-buffer products.
MUL_TABLE = _build_mul_table()
MUL_TABLE.setflags(write=False)


#: Columns per block in :func:`gf_matvec` (elements: bytes, or byte
#: pairs with pair tables) — the widened indices, the gather buffer and
#: the output slices of one block stay cache-resident.
BLOCK = 1 << 15

_PAIR_BYTES = np.arange(1 << 16, dtype=np.uint16).view(np.uint8)


def gf_pair_tables(mat: np.ndarray) -> dict[int, np.ndarray]:
    """Byte-pair product tables for every coefficient ``>= 2`` of ``mat``.

    ``table[c][p]`` is the ``uint16`` whose two bytes are ``c`` times
    the two bytes of ``p`` (in memory order, so the tables are
    endian-neutral).  128 KiB each; :func:`gf_matvec` uses them to
    gather two products per index.
    """
    return {
        c: MUL_TABLE[c][_PAIR_BYTES].view(np.uint16)
        for c in map(int, np.unique(mat))
        if c > 1
    }


def gf_matvec(
    mat: np.ndarray,
    vecs: Sequence[np.ndarray],
    length: int,
    pair_tables: dict[int, np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Rows of ``mat @ vecs`` over GF(256): ``out[i] = sum_j mat[i, j] * vecs[j]``.

    ``mat`` is ``r × k``; ``vecs`` holds ``k`` contiguous ``uint8``
    buffers of exactly ``length`` bytes (any alignment).  Returns ``r``
    fresh ``uint8`` arrays of ``length`` bytes.  With ``pair_tables``
    (from :func:`gf_pair_tables` over ``mat``, or a superset) the
    members are read as byte pairs and an odd last byte is multiplied
    through ``MUL_TABLE``; the bytes are the same either way.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    rows, k = mat.shape
    if len(vecs) != k:
        raise ValueError(f"{k} matrix columns but {len(vecs)} vectors")
    for v in vecs:
        if v.shape != (length,):
            raise ValueError(f"vector of shape {v.shape}, expected ({length},)")
    out = [np.zeros(length, dtype=np.uint8) for _ in range(rows)]
    coeffs = [[int(c) for c in row] for row in mat]
    paired = 0
    if pair_tables is not None:
        paired = length & ~1
        _matvec_blocks(
            coeffs,
            [v[:paired].view(np.uint16) for v in vecs],
            [o[:paired].view(np.uint16) for o in out],
            pair_tables,
        )
    # The bytes no pair gather covered: all of them, or an odd last one.
    _matvec_blocks(
        coeffs, [v[paired:] for v in vecs], [o[paired:] for o in out], MUL_TABLE
    )
    return out


def _matvec_blocks(coeffs, vecs, out, tables) -> None:
    """Accumulate ``coeffs @ vecs`` into ``out`` (all of one element
    dtype), one column block at a time; ``tables[c]`` maps an element
    to its product with ``c``."""
    n = vecs[0].shape[0] if vecs else 0
    if n == 0:
        return
    step = min(BLOCK, n)
    idx = np.empty(step, dtype=np.intp)
    tmp = np.empty(step, dtype=vecs[0].dtype)
    for start in range(0, n, step):
        stop = min(start + step, n)
        w = stop - start
        bidx, btmp = idx[:w], tmp[:w]
        for j, vec in enumerate(vecs):
            block = vec[start:stop]
            widened = False
            for i, row in enumerate(coeffs):
                c = row[j]
                if c == 0:
                    continue
                dst = out[i][start:stop]
                if c == 1:
                    np.bitwise_xor(dst, block, out=dst)
                    continue
                if not widened:
                    np.copyto(bidx, block)
                    widened = True
                # mode="clip" gathers straight into ``btmp``: in-range
                # indices make the clip a no-op, while "raise" would
                # gather into a temporary and copy it over.
                np.take(tables[c], bidx, out=btmp, mode="clip")
                np.bitwise_xor(dst, btmp, out=dst)


def gf_matinv(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss–Jordan elimination.

    Raises :class:`np.linalg.LinAlgError` if the matrix is singular —
    which for an MDS code's survivor submatrix would indicate a bug,
    not an unlucky erasure pattern.
    """
    m = np.asarray(m, dtype=np.uint8)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"matrix must be square, got {m.shape}")
    aug = np.concatenate([m.copy(), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r, col]), None)
        if pivot is None:
            raise np.linalg.LinAlgError("singular matrix over GF(256)")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_p = gf_inv(int(aug[col, col]))
        aug[col] = MUL_TABLE[inv_p][aug[col]]
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] ^= MUL_TABLE[int(aug[r, col])][aug[col]]
    return aug[:, n:].copy()


def cauchy_matrix(k: int, m: int) -> np.ndarray:
    """The ``m × k`` Cauchy block of a systematic RS generator.

    ``C[i][j] = 1 / (x_i + y_j)`` with ``x_i = k + i`` and ``y_j = j``
    — disjoint evaluation points, so every entry is defined and every
    square submatrix of ``[I_k ; C]`` is invertible (the MDS property).
    Requires ``k + m <= 256``.
    """
    if k < 1 or m < 1:
        raise ValueError(f"need k >= 1 and m >= 1, got k={k} m={m}")
    if k + m > 256:
        raise ValueError(f"RS over GF(256) needs k + m <= 256, got {k + m}")
    c = np.zeros((m, k), dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            c[i, j] = gf_inv((k + i) ^ j)
    return c
