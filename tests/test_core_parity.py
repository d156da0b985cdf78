"""Tests for the XOR scheme and RDP erasure codec — exhaustive erasure patterns."""

from itertools import combinations

import numpy as np
import pytest

from repro.coding import get_scheme
from repro.core import ParityCodeError, RDPCode, smallest_prime_at_least


def _members(rng, k, nbytes):
    return [rng.integers(0, 256, nbytes, dtype=np.uint8) for _ in range(k)]


class TestXorScheme:
    def test_encode_is_xor(self, rng):
        members = _members(rng, 3, 100)
        [parity] = get_scheme("xor").encode(members)
        expected = members[0] ^ members[1] ^ members[2]
        assert np.array_equal(parity, expected)

    def test_any_single_member_recoverable(self, rng):
        members = _members(rng, 4, 257)
        code = get_scheme("xor")
        [parity] = code.encode(members)
        for lost in range(4):
            shards = [m if i != lost else None for i, m in enumerate(members)]
            out = code.reconstruct(shards, [parity])
            for got, want in zip(out, members):
                assert np.array_equal(got, want)

    def test_no_loss_passthrough_copies(self, rng):
        members = _members(rng, 2, 64)
        code = get_scheme("xor")
        [parity] = code.encode(members)
        out = code.reconstruct(members, [parity])
        assert np.array_equal(out[0], members[0])
        out[0][0] ^= 0xFF
        assert out[0][0] != members[0][0]  # copy, not view

    def test_two_missing_rejected(self, rng):
        members = _members(rng, 3, 64)
        code = get_scheme("xor")
        [parity] = code.encode(members)
        with pytest.raises(ParityCodeError):
            code.reconstruct([None, None, members[2]], [parity])

    def test_member_and_parity_missing_rejected(self, rng):
        members = _members(rng, 3, 64)
        code = get_scheme("xor")
        with pytest.raises(ParityCodeError):
            code.reconstruct([None, members[1], members[2]], [None])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            get_scheme("xor").encode([])


class TestPrimes:
    @pytest.mark.parametrize(
        "n,expected", [(1, 2), (2, 2), (3, 3), (4, 5), (6, 7), (8, 11), (14, 17)]
    )
    def test_smallest_prime(self, n, expected):
        assert smallest_prime_at_least(n) == expected


class TestRDPCode:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("nbytes", [17, 96, 500])
    def test_all_single_and_double_erasures(self, rng, k, nbytes):
        code = RDPCode(k)
        members = _members(rng, k, nbytes)
        rp, dp = code.encode(members)
        shard_ids = list(range(k)) + ["rp", "dp"]
        patterns = [()] + [
            c for r in (1, 2) for c in combinations(shard_ids, r)
        ]
        for lost in patterns:
            ms = [None if i in lost else members[i] for i in range(k)]
            ps = [
                None if "rp" in lost else rp,
                None if "dp" in lost else dp,
            ]
            out = code.reconstruct(ms, ps, nbytes=nbytes)
            for got, want in zip(out, members):
                assert np.array_equal(got, want), f"k={k} lost={lost}"

    def test_triple_erasure_rejected(self, rng):
        code = RDPCode(4)
        members = _members(rng, 4, 64)
        rp, dp = code.encode(members)
        with pytest.raises(ParityCodeError):
            code.reconstruct([None, None, None, members[3]], [rp, dp])
        with pytest.raises(ParityCodeError):
            code.reconstruct([None, None] + members[2:], [rp, None])

    def test_explicit_prime(self, rng):
        code = RDPCode(3, p=7)
        members = _members(rng, 3, 100)
        rp, dp = code.encode(members)
        out = code.reconstruct([None, members[1], members[2]], [rp, dp])
        assert np.array_equal(out[0], members[0])

    def test_prime_too_small_rejected(self):
        with pytest.raises(ParityCodeError):
            RDPCode(4, p=3)

    def test_k_validation(self):
        with pytest.raises(ParityCodeError):
            RDPCode(0)

    def test_wrong_member_count_rejected(self, rng):
        code = RDPCode(3)
        with pytest.raises(ParityCodeError):
            code.encode(_members(rng, 2, 64))

    def test_parity_sizes_padded_stripe(self, rng):
        code = RDPCode(3)  # p=5, rows=4
        members = _members(rng, 3, 10)  # rowbytes=3 -> 12 padded
        rp, dp = code.encode(members)
        assert rp.shape[0] == 12
        assert dp.shape[0] == 12

    def test_nbytes_needed_when_no_survivor(self, rng):
        code = RDPCode(1)
        members = _members(rng, 1, 50)
        rp, dp = code.encode(members)
        with pytest.raises(ParityCodeError):
            code.reconstruct([None], [rp, dp])
        out = code.reconstruct([None], [rp, dp], nbytes=50)
        assert np.array_equal(out[0], members[0])

    def test_space_overhead_is_two_shards(self, rng):
        """RDP stores k data + 2 parity — the m=2 diskless configuration."""
        code = RDPCode(4)
        members = _members(rng, 4, 1000)
        parities = code.encode(members)
        assert len(parities) == 2

    def test_rdp_vs_xor_row_parity_identical(self, rng):
        """RDP's row parity equals plain XOR parity (same data layout)."""
        k, nbytes = 3, 96  # divisible by rows (p=5 -> rows=4): no padding
        members = _members(rng, k, nbytes)
        rp, _ = RDPCode(k).encode(members)
        [xp] = get_scheme("xor").encode(members)
        assert np.array_equal(rp[:nbytes], xp)
