"""Tests for the XOR kernels."""

import numpy as np
import pytest

from repro.cluster import as_u8, reconstruct_missing_padded, xor_reduce


class TestAsU8:
    def test_bytes_roundtrip(self):
        arr = as_u8(b"\x01\x02\x03")
        assert arr.dtype == np.uint8
        assert list(arr) == [1, 2, 3]

    def test_ndarray_view_no_copy(self):
        src = np.arange(16, dtype=np.uint8)
        v = as_u8(src)
        v[0] = 99
        assert src[0] == 99

    def test_multidim_flattened(self):
        src = np.zeros((4, 4), dtype=np.uint8)
        assert as_u8(src).shape == (16,)


class TestXor:
    def test_reduce_identity(self, rng):
        a = rng.integers(0, 256, 64, dtype=np.uint8)
        assert np.array_equal(xor_reduce([a]), a)
        assert xor_reduce([a]) is not a  # copy

    def test_reduce_self_inverse(self, rng):
        a = rng.integers(0, 256, 64, dtype=np.uint8)
        assert not xor_reduce([a, a]).any()

    def test_reduce_associative_commutative(self, rng):
        bufs = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(4)]
        p1 = xor_reduce(bufs)
        p2 = xor_reduce(bufs[::-1])
        assert np.array_equal(p1, p2)

    def test_reduce_empty_rejected(self):
        with pytest.raises(ValueError):
            xor_reduce([])

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            xor_reduce([np.zeros(4, np.uint8), np.zeros(5, np.uint8)])

    def test_reconstruct_missing(self, rng):
        members = [rng.integers(0, 256, 128, dtype=np.uint8) for _ in range(5)]
        parity = xor_reduce(members)
        for lost in range(5):
            survivors = [m for i, m in enumerate(members) if i != lost]
            rebuilt = reconstruct_missing_padded(survivors, parity, 128)
            assert np.array_equal(rebuilt, members[lost])
