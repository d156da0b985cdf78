"""GF(256) algebra underneath the Reed–Solomon scheme: exhaustive
round-trips, table consistency, and matrix-inverse identities.

The field (polynomial 0x11D) is tiny enough to verify *completely* —
these tests sweep every element rather than sampling, so a wrong table
entry or a lost carry in the log/exp construction cannot hide.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.coding import (
    GF_EXP,
    GF_LOG,
    MUL_TABLE,
    ReedSolomonScheme,
    cauchy_matrix,
    gf_div,
    gf_inv,
    gf_matinv,
    gf_matvec,
    gf_mul,
    gf_pair_tables,
)
from repro.coding.gf256 import BLOCK

def gf_matmul(a, b):
    """``a @ b`` over GF(256), rows through the production kernel."""
    return np.array(gf_matvec(a, list(b), b.shape[1]), dtype=np.uint8)


#: Lengths, in kernel elements, around the block boundaries.
ELEMENT_LENGTHS = [0, 1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def _byte_length(elements: int, pairs: bool) -> int:
    """Bytes holding ``elements`` kernel elements; in pair mode an odd
    element count also adds the odd tail byte."""
    return 2 * elements + (elements & 1) if pairs else elements


def _scalar_matvec(mat, vecs, length):
    """``mat @ vecs`` from scalar :func:`gf_mul` alone (one 256-entry
    product row per coefficient), independent of ``MUL_TABLE``."""
    out = []
    for row in mat:
        acc = np.zeros(length, dtype=np.uint8)
        for c, vec in zip(row, vecs):
            lut = np.array([gf_mul(int(c), x) for x in range(256)], np.uint8)
            acc ^= lut[vec]
        out.append(acc)
    return out


class TestFieldAlgebra:
    def test_mul_table_matches_scalar_mul_exhaustively(self):
        a = np.arange(256, dtype=np.intp)
        for x in range(256):
            row = MUL_TABLE[x, a]
            expect = np.array([gf_mul(x, y) for y in range(256)], dtype=np.uint8)
            assert np.array_equal(row, expect), f"MUL_TABLE row {x} wrong"

    def test_mul_table_is_read_only(self):
        with pytest.raises((ValueError, RuntimeError)):
            MUL_TABLE[0, 0] = 1

    def test_zero_and_one_laws(self):
        for x in range(256):
            assert gf_mul(x, 0) == 0
            assert gf_mul(0, x) == 0
            assert gf_mul(x, 1) == x
            assert gf_mul(1, x) == x

    def test_commutativity_exhaustive(self):
        assert np.array_equal(MUL_TABLE, MUL_TABLE.T)

    def test_associativity_and_distributivity_sampled(self):
        rng = np.random.default_rng(0x11D)
        trip = rng.integers(0, 256, size=(500, 3))
        for a, b, c in trip:
            a, b, c = int(a), int(b), int(c)
            assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    def test_inverse_round_trip_every_nonzero_element(self):
        for x in range(1, 256):
            inv = gf_inv(x)
            assert 1 <= inv <= 255
            assert gf_mul(x, inv) == 1
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_div_is_mul_by_inverse_exhaustive(self):
        for a in range(256):
            for b in (1, 2, 3, 29, 76, 142, 255):
                assert gf_div(gf_mul(a, b), b) == a
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    def test_log_exp_tables_are_mutually_consistent(self):
        # exp is doubled so exp[log a + log b] never needs a mod
        for x in range(1, 256):
            assert GF_EXP[GF_LOG[x]] == x
        # the generator's order is 255: the first cycle has no repeats
        assert len({int(GF_EXP[i]) for i in range(255)}) == 255

    @pytest.mark.parametrize("pairs", [False, True], ids=["bytes", "pairs"])
    def test_gf_matvec_matches_scalar(self, pairs):
        vec = np.arange(256, dtype=np.uint8)
        for coeff in (0, 1, 2, 0x53, 0xFF):
            mat = np.array([[coeff]], dtype=np.uint8)
            tables = gf_pair_tables(mat) if pairs else None
            (out,) = gf_matvec(mat, [vec], 256, tables)
            expect = np.array([gf_mul(coeff, v) for v in range(256)], np.uint8)
            assert np.array_equal(out, expect)


class TestMatvecKernel:
    """:func:`gf_matvec` against a scalar reference across block
    boundaries, both gather modes and misaligned member views."""

    @pytest.mark.parametrize("pairs", [False, True], ids=["bytes", "pairs"])
    @pytest.mark.parametrize("elements", ELEMENT_LENGTHS)
    def test_matches_scalar_reference(self, elements, pairs):
        rng = np.random.default_rng(elements * 2 + pairs)
        length = _byte_length(elements, pairs)
        rows, k = 3, 4
        # 0, 1 and general coefficients in every row and column
        mat = rng.integers(2, 256, size=(rows, k), dtype=np.uint8)
        mat[0, 0] = mat[1, 1] = 0
        mat[2, 2] = mat[0, 3] = 1
        # members 1 and 3 are odd-offset views into larger buffers
        vecs = []
        for j in range(k):
            buf = rng.integers(0, 256, length + 1, dtype=np.uint8)
            vecs.append(buf[1:] if j % 2 else buf[:length])
        tables = gf_pair_tables(mat) if pairs else None
        got = gf_matvec(mat, vecs, length, tables)
        expect = _scalar_matvec(mat, vecs, length)
        assert len(got) == rows
        for g, e in zip(got, expect):
            assert g.dtype == np.uint8 and g.shape == (length,)
            assert np.array_equal(g, e)

    def test_pair_tables_cover_only_general_coefficients(self):
        mat = np.array([[0, 1, 7], [7, 0x53, 1]], dtype=np.uint8)
        tables = gf_pair_tables(mat)
        assert sorted(tables) == [7, 0x53]
        pair = np.array([0x12, 0xFE], dtype=np.uint8)
        got = tables[0x53][pair.view(np.uint16)[0]]
        assert np.array_equal(
            np.array([got], dtype=np.uint16).view(np.uint8),
            [gf_mul(0x53, 0x12), gf_mul(0x53, 0xFE)],
        )

    def test_rejects_mismatched_shapes(self):
        mat = np.ones((1, 2), dtype=np.uint8)
        vec = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ValueError, match="columns"):
            gf_matvec(mat, [vec], 8)
        with pytest.raises(ValueError, match="expected"):
            gf_matvec(mat, [vec, vec[:7]], 8)

    @pytest.mark.parametrize("elements", ELEMENT_LENGTHS)
    def test_rs_4_3_round_trip_every_erasure_pattern(self, elements):
        k, m = 4, 3
        length = _byte_length(elements, True)
        rng = np.random.default_rng(elements)
        scheme = ReedSolomonScheme(m=m, k_hint=k)
        bufs = [rng.integers(0, 256, length + 1, dtype=np.uint8) for _ in range(k)]
        members = [b[1:] if j % 2 else b[:length] for j, b in enumerate(bufs)]
        shards = scheme.encode(members)
        assert [s.shape for s in shards] == [(length,)] * m
        for r in range(m + 1):
            for pattern in combinations(range(k + m), r):
                mem = [None if j in pattern else members[j] for j in range(k)]
                shd = [None if k + j in pattern else shards[j] for j in range(m)]
                rebuilt = scheme.reconstruct(mem, shd, nbytes=length)
                for j in range(k):
                    assert np.array_equal(rebuilt[j], members[j]), (
                        f"member {j} wrong after erasing {pattern}"
                    )


class TestMatrices:
    def _random_invertible(self, rng, n):
        # square Cauchy blocks are always invertible; perturb via row scaling
        m = cauchy_matrix(n, n)
        scale = rng.integers(1, 256, size=n)
        return np.array(
            [MUL_TABLE[int(s), row.astype(np.intp)] for s, row in zip(scale, m)],
            dtype=np.uint8,
        )

    def test_matinv_round_trip(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8):
            m = self._random_invertible(rng, n)
            inv = gf_matinv(m)
            ident = np.eye(n, dtype=np.uint8)
            assert np.array_equal(gf_matmul(m, inv), ident)
            assert np.array_equal(gf_matmul(inv, m), ident)

    def test_matinv_rejects_singular(self):
        sing = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(Exception):
            gf_matinv(sing)

    def test_cauchy_block_shape_and_density(self):
        for k, m in ((2, 1), (4, 2), (8, 3)):
            c = cauchy_matrix(k, m)
            assert c.shape == (m, k)
            # Cauchy entries 1/(x_i + y_j) are never zero
            assert np.all(c != 0)
        with pytest.raises(ValueError):
            cauchy_matrix(0, 1)
        with pytest.raises(ValueError):
            cauchy_matrix(250, 10)

    def test_cauchy_generator_is_mds(self):
        """Every k×k submatrix of ``[I_k ; C]``'s rows is invertible —
        the property the decoder relies on for *arbitrary* ≤m-erasure
        patterns."""
        from itertools import combinations

        k, m = 4, 3
        g = np.concatenate(
            [np.eye(k, dtype=np.uint8), cauchy_matrix(k, m)], axis=0
        )
        for rows in combinations(range(k + m), k):
            sub = g[list(rows)]
            inv = gf_matinv(sub)
            assert np.array_equal(
                gf_matmul(sub, inv), np.eye(k, dtype=np.uint8)
            ), f"rows {rows} not invertible"
