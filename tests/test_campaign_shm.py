"""Zero-copy shared-memory array transport for campaign workers.

Covers :mod:`repro.campaign.shm` (segment round trips, recursive
extract/restore, JSON-safe stripping), the runner integration (pooled
workers publish arrays to shared memory instead of pickling them back),
and a store bugfix that rides along: ``ResultStore._load`` compaction
rewrites one line per key (last wins) — the pre-fix implementation kept
every superseded duplicate line forever, so a store two campaigns raced
on never shrank.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign import (
    CampaignRunner,
    ResultStore,
    Task,
    execute_task,
)
from repro.campaign.shm import (
    REF_KEY,
    SHM_AVAILABLE,
    STUB_KEY,
    ShmArrayRef,
    extract_arrays,
    has_arrays,
    load_array,
    restore_arrays,
    share_array,
    strip_arrays,
)

needs_shm = pytest.mark.skipif(not SHM_AVAILABLE, reason="no shared memory")


# ---------------------------------------------------------------------------
# segment round trips
# ---------------------------------------------------------------------------
@needs_shm
class TestSegments:
    def test_round_trip_preserves_bytes_and_shape(self):
        arr = np.arange(997, dtype=np.uint8).reshape(-1)
        ref = share_array(arr)
        out = load_array(ref)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_round_trip_2d_nonuint8(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = load_array(share_array(arr))
        assert out.shape == (3, 4)
        assert np.array_equal(out, arr)

    def test_unlink_removes_segment(self):
        from multiprocessing import shared_memory

        ref = share_array(np.zeros(16, dtype=np.uint8))
        load_array(ref, unlink=True)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.name)

    def test_no_unlink_allows_second_reader(self):
        ref = share_array(np.full(8, 7, dtype=np.uint8))
        first = load_array(ref, unlink=False)
        second = load_array(ref, unlink=True)  # second read, then clean up
        assert np.array_equal(first, second)

    def test_ref_dict_round_trip(self):
        ref = ShmArrayRef(name="x", shape=(2, 3), dtype="|u1")
        assert ShmArrayRef.from_dict(ref.to_dict()) == ref


# ---------------------------------------------------------------------------
# recursive transforms
# ---------------------------------------------------------------------------
@needs_shm
class TestTransforms:
    def test_extract_restore_nested(self):
        value = {
            "meta": {"n": 3},
            "images": {"0": np.arange(64, dtype=np.uint8)},
            "list": [np.ones(4, dtype=np.uint8), "text", 7],
        }
        extracted = extract_arrays(value)
        # no ndarray survives extraction; markers stand in
        assert not has_arrays(extracted)
        assert REF_KEY in extracted["images"]["0"]
        restored = restore_arrays(extracted)
        assert np.array_equal(restored["images"]["0"], value["images"]["0"])
        assert np.array_equal(restored["list"][0], value["list"][0])
        assert restored["meta"] == {"n": 3}
        assert restored["list"][1:] == ["text", 7]

    def test_extract_identity_without_arrays(self):
        value = {"a": 1, "b": [2, {"c": "x"}]}
        assert extract_arrays(value) == value

    def test_strip_arrays_is_json_safe_and_fingerprints(self):
        import zlib

        arr = np.arange(32, dtype=np.uint8)
        stripped = strip_arrays({"pages": arr, "n": 1})
        json.dumps(stripped)  # must not raise
        stub = stripped["pages"][STUB_KEY]
        assert stub["shape"] == [32]
        assert stub["crc32"] == zlib.crc32(arr.tobytes())
        assert stripped["n"] == 1

    def test_has_arrays(self):
        assert has_arrays({"x": [np.zeros(1)]})
        assert not has_arrays({"x": [1, "y", {"z": None}]})


# ---------------------------------------------------------------------------
# runner integration: the image_snapshot kind under a worker pool
# ---------------------------------------------------------------------------
def _snapshot_tasks():
    return [
        Task(
            "image_snapshot",
            {"n_nodes": 8, "epochs": 2, "seed": s, "vm_ids": [0, 1]},
        )
        for s in (0, 1)
    ]


@needs_shm
class TestRunnerIntegration:
    def test_worker_extracts_arrays_into_markers(self):
        out = execute_task(_snapshot_tasks()[0].to_dict(), share_arrays=True)
        assert out["ok"], out["error"]
        assert not has_arrays(out["value"])
        restored = restore_arrays(out["value"])
        assert isinstance(restored["images"]["0"], np.ndarray)

    def test_pool_matches_inline_bit_exactly(self):
        from repro.cluster.checksum import block_checksum

        tasks = _snapshot_tasks()
        inline = CampaignRunner(jobs=1).run(tasks)
        pooled = CampaignRunner(jobs=2).run(tasks)
        assert inline.n_failed == pooled.n_failed == 0
        for a, b in zip(inline.values(), pooled.values()):
            assert a["checksums"] == b["checksums"]
            for vm in a["images"]:
                assert isinstance(b["images"][vm], np.ndarray)
                assert np.array_equal(a["images"][vm], b["images"][vm])
                # the checksum computed in the worker matches the bytes
                # that crossed shared memory — zero-copy was lossless
                assert block_checksum(b["images"][vm]) == b["checksums"][vm]

    def test_store_persists_stub_not_bytes(self, tmp_path):
        tasks = _snapshot_tasks()[:1]
        store = ResultStore(tmp_path / "s")
        result = CampaignRunner(store=store, jobs=1).run(tasks)
        assert result.n_failed == 0
        # executed value carries the real array ...
        assert isinstance(result.values()[0]["images"]["0"], np.ndarray)
        # ... but the JSONL record holds only the summary stub
        rec = store.peek(tasks[0].key)
        assert STUB_KEY in rec["value"]["images"]["0"]
        text = (tmp_path / "s" / ResultStore.FILENAME).read_text()
        json.loads(text.strip())  # single valid JSON line

    def test_cached_hit_serves_stub_form(self, tmp_path):
        tasks = _snapshot_tasks()[:1]
        store = ResultStore(tmp_path / "s")
        CampaignRunner(store=store, jobs=1).run(tasks)
        warm = CampaignRunner(store=store, jobs=1).run(tasks)
        assert warm.n_cached == 1
        assert STUB_KEY in warm.values()[0]["images"]["0"]


# ---------------------------------------------------------------------------
# satellite bugfix: compaction dedups superseded keys (last wins)
# ---------------------------------------------------------------------------
class TestCompactionDedup:
    @staticmethod
    def _line(key: str, r: int) -> str:
        return json.dumps(
            {"key": key, "task": {"kind": "k", "params": {}}, "value": {"r": r},
             "elapsed": 0.0},
            sort_keys=True,
        )

    def test_duplicate_keys_compact_to_last_wins(self, tmp_path):
        """Pre-fix, compaction preserved every duplicate line verbatim;
        this asserts the rewritten file holds one line per key with the
        last occurrence's value — it fails on the pre-fix code."""
        root = tmp_path / "s"
        root.mkdir()
        path = root / ResultStore.FILENAME
        path.write_text(
            self._line("a", 1) + "\n"
            + self._line("b", 10) + "\n"
            + self._line("a", 2) + "\n",
            encoding="utf-8",
        )
        store = ResultStore(root)
        assert store.peek("a")["value"] == {"r": 2}  # last wins in memory
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        assert len(lines) == 2  # compacted: one line per key
        by_key = {json.loads(ln)["key"]: json.loads(ln) for ln in lines}
        assert by_key["a"]["value"] == {"r": 2}
        assert by_key["b"]["value"] == {"r": 10}
        # a reopened store agrees with the compacted file
        reopened = ResultStore(root)
        assert reopened.peek("a")["value"] == {"r": 2}
        assert len(reopened) == 2

    def test_corrupt_line_still_skipped_and_compacted(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        path = root / ResultStore.FILENAME
        path.write_text(
            self._line("a", 1) + "\n" + '{"key": "bro' + "\n"
            + self._line("a", 3) + "\n",
            encoding="utf-8",
        )
        with pytest.warns(RuntimeWarning):
            store = ResultStore(root)
        assert store.skipped_lines == 1
        assert store.peek("a")["value"] == {"r": 3}
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["value"] == {"r": 3}

    def test_clean_unique_file_left_untouched(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        path = root / ResultStore.FILENAME
        original = self._line("a", 1) + "\n" + self._line("b", 2) + "\n"
        path.write_text(original, encoding="utf-8")
        ResultStore(root)
        assert path.read_text() == original  # no dirt → no rewrite
