"""Property-based tests (hypothesis) for the core data structures and
invariants: XOR algebra, erasure codes, memory deltas, layouts, and the
analytical model's shape properties."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, MemoryImage, VirtualCluster, xor_reduce
from repro.coding import get_scheme
from repro.core import RDPCode, build_orthogonal_layout, validate_layout
from repro.model import (
    expected_time_checkpointed,
    expected_time_no_checkpoint,
    expected_time_with_overhead,
    truncated_mean_failure_time,
)
from repro.sim import Simulator

from conftest import spread_vms


def buffers(k, min_len=1, max_len=200):
    return st.integers(min_value=min_len, max_value=max_len).flatmap(
        lambda n: st.lists(
            st.binary(min_size=n, max_size=n), min_size=k, max_size=k
        )
    )


class TestXorAlgebra:
    @given(buffers(3))
    def test_parity_xor_members_is_zero(self, bufs):
        members = [np.frombuffer(b, dtype=np.uint8) for b in bufs]
        [parity] = get_scheme("xor").encode(members)
        assert not xor_reduce(members + [parity]).any()

    @given(buffers(4), st.integers(min_value=0, max_value=3))
    def test_any_member_recoverable(self, bufs, lost):
        members = [np.frombuffer(b, dtype=np.uint8) for b in bufs]
        code = get_scheme("xor")
        [parity] = code.encode(members)
        shards = [m if i != lost else None for i, m in enumerate(members)]
        out = code.reconstruct(shards, [parity])
        assert np.array_equal(out[lost], members[lost])


class TestRDPProperties:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=120),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_double_erasure_always_recoverable(self, k, nbytes, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        members = [rng.integers(0, 256, nbytes, dtype=np.uint8) for _ in range(k)]
        code = RDPCode(k)
        rp, dp = code.encode(members)
        ids = list(range(k)) + ["rp", "dp"]
        lost = data.draw(
            st.lists(st.sampled_from(ids), min_size=0, max_size=2, unique=True)
        )
        ms = [None if i in lost else members[i] for i in range(k)]
        ps = [None if "rp" in lost else rp, None if "dp" in lost else dp]
        out = code.reconstruct(ms, ps, nbytes=nbytes)
        for got, want in zip(out, members):
            assert np.array_equal(got, want)

    @given(st.integers(min_value=1, max_value=8))
    def test_row_parity_equals_xor(self, k):
        rng = np.random.default_rng(k)
        code = RDPCode(k)
        nbytes = (code.p - 1) * 8  # no padding
        members = [rng.integers(0, 256, nbytes, dtype=np.uint8) for _ in range(k)]
        rp, _ = code.encode(members)
        [xp] = get_scheme("xor").encode(members)
        assert np.array_equal(rp, xp)


class TestMemoryDeltaProperties:
    @given(
        st.integers(min_value=1, max_value=32),
        st.lists(
            st.tuples(st.integers(0, 2**16), st.binary(min_size=1, max_size=64)),
            min_size=0,
            max_size=20,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_delta_applied_to_base_reproduces_state(self, n_pages, writes):
        img = MemoryImage(n_pages, page_size=32)
        base = img.snapshot()
        for addr, data in writes:
            addr = addr % max(1, img.nbytes - len(data)) if img.nbytes > len(data) else 0
            if addr + len(data) <= img.nbytes:
                img.write(addr, data)
        delta = img.capture_delta()
        patched = base.copy()
        delta.apply_to(patched)
        assert np.array_equal(patched, img.flat)

    @given(st.integers(min_value=1, max_value=64))
    def test_snapshot_restore_roundtrip(self, n_pages):
        rng = np.random.default_rng(n_pages)
        img = MemoryImage(n_pages, page_size=16)
        img.write(0, rng.integers(0, 256, img.nbytes, dtype=np.uint8))
        snap = img.snapshot()
        img.write(0, rng.integers(0, 256, img.nbytes, dtype=np.uint8))
        img.restore(snap)
        assert np.array_equal(img.flat, snap)


class TestLayoutProperties:
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_builder_layouts_always_valid(self, n_nodes, vms_per_node, group_size):
        if group_size >= n_nodes:
            group_size = n_nodes - 1
        if group_size < 1:
            return
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
        spread_vms(cluster, n_nodes * vms_per_node, 1e9)
        layout = build_orthogonal_layout(cluster, group_size)
        assert validate_layout(layout, cluster).ok
        assert sorted(layout.vm_ids) == list(range(n_nodes * vms_per_node))

    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_parity_load_balanced_within_one(self, n_nodes, vms_per_node):
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
        spread_vms(cluster, n_nodes * vms_per_node, 1e9)
        layout = build_orthogonal_layout(cluster, n_nodes - 1)
        load = layout.parity_load()
        values = [load.get(n, 0) for n in range(n_nodes)]
        assert max(values) - min(values) <= 1


class TestModelProperties:
    @given(
        st.floats(min_value=1e-6, max_value=1e-2),
        st.floats(min_value=10.0, max_value=1e5),
    )
    @settings(max_examples=60)
    def test_expected_time_at_least_T(self, lam, T):
        assert expected_time_no_checkpoint(lam, T) >= T * (1 - 1e-12)

    @given(
        st.floats(min_value=1e-6, max_value=1e-3),
        st.floats(min_value=1000.0, max_value=1e5),
        st.floats(min_value=1.0, max_value=999.0),
    )
    @settings(max_examples=60)
    def test_zero_cost_checkpointing_never_hurts(self, lam, T, N):
        assert (
            expected_time_checkpointed(lam, T, N)
            <= expected_time_no_checkpoint(lam, T) * (1 + 1e-9)
        )

    @given(
        st.floats(min_value=1e-6, max_value=1e-3),
        st.floats(min_value=100.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_overhead_monotone(self, lam, N, ov1, ov2):
        T = 1e5
        lo, hi = sorted((ov1, ov2))
        assert (
            expected_time_with_overhead(lam, T, N, lo)
            <= expected_time_with_overhead(lam, T, N, hi) * (1 + 1e-12)
        )

    @given(
        st.floats(min_value=1e-6, max_value=1e-2),
        st.floats(min_value=1.0, max_value=1e5),
    )
    @settings(max_examples=60)
    def test_truncated_mean_bounds(self, lam, span):
        m = truncated_mean_failure_time(lam, span)
        assert 0.0 < m < min(span, 1.0 / lam) + 1e-9
