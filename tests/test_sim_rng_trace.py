"""Tests for seeded RNG streams and the tracer."""

import numpy as np
import pytest

from repro.sim import NULL_TRACER, RngRegistry, Tracer, derive_seed


class TestRng:
    def test_same_name_same_stream_object(self, rngs):
        assert rngs.stream("a") is rngs.stream("a")

    def test_different_names_different_sequences(self, rngs):
        a = rngs.stream("a").random(8)
        b = rngs.stream("b").random(8)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        x = RngRegistry(7).stream("failures").random(8)
        y = RngRegistry(7).stream("failures").random(8)
        assert np.allclose(x, y)

    def test_fresh_restarts_stream(self, rngs):
        first = rngs.stream("s").random(4)
        again = rngs.stream("s", fresh=True).random(4)
        assert np.allclose(first, again)

    def test_stream_independent_of_registration_order(self):
        r1 = RngRegistry(1)
        r1.stream("a")
        b_after_a = r1.stream("b").random(4)
        r2 = RngRegistry(1)
        b_alone = r2.stream("b").random(4)
        assert np.allclose(b_after_a, b_alone)

    def test_pickle_roundtrip_preserves_stream_positions(self):
        import pickle

        reg = RngRegistry(7)
        reg.stream("a").random(16)  # advance the stream
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.master_seed == reg.master_seed
        # continuation after the round-trip matches the original exactly
        assert np.allclose(clone.stream("a").random(8),
                           reg.stream("a").random(8))
        # and unnamed streams derive identically
        assert np.allclose(clone.stream("b").random(4),
                           RngRegistry(7).stream("b").random(4))

    def test_pickled_registry_usable_in_subprocess_style_flow(self):
        # the multiprocessing contract: ship a child registry to a
        # worker, draw there, get the same numbers as drawing locally
        import pickle

        child = RngRegistry(derive_seed(3, "rep/2"))
        shipped = pickle.loads(pickle.dumps(child))
        assert np.allclose(shipped.stream("failures").random(8),
                           RngRegistry(derive_seed(3, "rep/2"))
                           .stream("failures").random(8))

    def test_derive_seed_stability(self):
        assert derive_seed(5, "x") == derive_seed(5, "x")
        assert derive_seed(5, "x") != derive_seed(5, "y")
        assert derive_seed(5, "x") != derive_seed(6, "x")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(-1)

    def test_contains(self, rngs):
        assert "never" not in rngs
        rngs.stream("yes")
        assert "yes" in rngs


class TestTracer:
    def test_emit_and_select(self):
        tr = Tracer()
        tr.emit(1.0, "a.x", v=1)
        tr.emit(2.0, "a.y", v=2)
        tr.emit(3.0, "b.x", v=3)
        assert len(tr) == 3
        assert [r.time for r in tr.select(kind="a.x")] == [1.0]
        assert [r["v"] for r in tr.select(prefix="a.")] == [1, 2]
        assert [r.time for r in tr.select(where=lambda r: r["v"] > 1)] == [2.0, 3.0]

    def test_record_getitem(self):
        tr = Tracer()
        tr.emit(0.0, "k", alpha=7)
        assert tr.records[0]["alpha"] == 7

    def test_disabled_tracer_drops(self):
        tr = Tracer(enabled=False)
        tr.emit(1.0, "x")
        assert len(tr) == 0

    def test_null_tracer_is_silent_singleton(self):
        NULL_TRACER.emit(1.0, "anything", junk=True)
        assert len(NULL_TRACER) == 0
