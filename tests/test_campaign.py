"""Campaign subsystem: specs, store, runner, and aggregation semantics."""

import json

import numpy as np
import pytest

from repro.campaign import (
    execute_task_batch,
    CampaignRunner,
    ResultStore,
    Sweep,
    Task,
    execute_task,
    get_kind,
    register_task,
    run_study_campaign,
    run_validate_campaign,
    task_key,
)
from repro.campaign.tasks import _REGISTRY

#: kinds registered by the package itself, before the test-only ones below
BUILTIN_KINDS = sorted(_REGISTRY)


@register_task("test_tripwire")
def _run_tripwire(params, seed):
    """Raises ``KeyboardInterrupt`` while the ``trip`` file exists."""
    import os

    if params.get("trip") and os.path.exists(params["trip"]):
        raise KeyboardInterrupt
    return {"i": params["i"]}


@register_task("test_ndarray")
def _run_ndarray(params, seed):
    """Breaks the JSON-value contract on purpose."""
    return {"pages": np.arange(4, dtype=np.uint8)}


class TestTaskKeys:
    def test_key_is_stable(self):
        a = Task("mc_chunk", {"x": 1.5}, seed=7)
        b = Task("mc_chunk", {"x": 1.5}, seed=7)
        assert a.key == b.key

    def test_key_depends_on_params_seed_version(self):
        base = Task("mc_chunk", {"x": 1.5}, seed=7, version="1")
        assert base.key != Task("mc_chunk", {"x": 2.5}, seed=7).key
        assert base.key != Task("mc_chunk", {"x": 1.5}, seed=8).key
        assert base.key != Task("mc_chunk", {"x": 1.5}, seed=7,
                                version="2").key

    def test_key_insensitive_to_dict_order(self):
        assert (task_key("k", {"a": 1, "b": 2}, None, "1")
                == task_key("k", {"b": 2, "a": 1}, None, "1"))

    def test_roundtrip(self):
        t = Task("mc_chunk", {"n": 3}, seed=11, version="2")
        assert Task.from_dict(t.to_dict()) == t


class TestSweep:
    def test_expansion_counts_and_order(self):
        sw = Sweep(name="s", kind="mc_chunk",
                   grid={"b": [10, 20], "a": [1, 2, 3]})
        tasks = sw.expand(version="1")
        assert len(tasks) == 6
        # axes cross in sorted-axis order: a-major, then b
        assert [t.params["a"] for t in tasks] == [1, 1, 2, 2, 3, 3]
        assert [t.params["b"] for t in tasks] == [10, 20] * 3

    def test_replication_seeds_distinct_and_stable(self):
        sw = Sweep(name="s", kind="mc_chunk", grid={"a": [1]},
                   replications=3, master_seed=5)
        seeds = [t.seed for t in sw.expand(version="1")]
        assert len(set(seeds)) == 3
        again = [t.seed for t in sw.expand(version="1")]
        assert seeds == again

    def test_seed_depends_on_point_values_not_order(self):
        # permuting a grid axis permutes tasks but not any task's seed
        fwd = Sweep(name="s", kind="mc_chunk", grid={"a": [1, 2]},
                    master_seed=9)
        rev = Sweep(name="s", kind="mc_chunk", grid={"a": [2, 1]},
                    master_seed=9)
        by_a_fwd = {t.params["a"]: t.seed for t in fwd.expand(version="1")}
        by_a_rev = {t.params["a"]: t.seed for t in rev.expand(version="1")}
        assert by_a_fwd == by_a_rev

    def test_unseeded_sweep(self):
        sw = Sweep(name="s", kind="mc_chunk", grid={"a": [1]},
                   seeded=False)
        assert sw.expand(version="1")[0].seed is None

    def test_base_grid_shadow_rejected(self):
        with pytest.raises(ValueError):
            Sweep(name="s", kind="k", base={"a": 1}, grid={"a": [1]})

    def test_json_roundtrip(self):
        spec = {"name": "s", "kind": "mc_chunk", "base": {"T": 1.0},
                "grid": {"a": [1, 2]}, "replications": 2, "master_seed": 3}
        assert Sweep.from_dict(json.loads(json.dumps(spec))) == Sweep(
            name="s", kind="mc_chunk", base={"T": 1.0}, grid={"a": [1, 2]},
            replications=2, master_seed=3)


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        t = Task("mc_chunk", {"x": 1})
        store.put(t, {"ratio": 1.5}, elapsed=0.25)
        rec = store.get(t.key)
        assert rec["value"] == {"ratio": 1.5}
        assert rec["task"]["kind"] == "mc_chunk"

    def test_persistence_across_reopen(self, tmp_path):
        t = Task("mc_chunk", {"x": 1})
        ResultStore(tmp_path / "s").put(t, {"ratio": 1.5})
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == 1
        assert t.key in reopened

    def test_hit_and_miss_counters(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        t = Task("mc_chunk", {"x": 1})
        assert store.get(t.key) is None
        store.put(t, {"ratio": 1.0})
        store.get(t.key)
        store.get(t.key)
        assert store.hits == 2
        assert store.misses == 1



def _tiny_mc_tasks(n=8):
    """``n`` chunks of one 32-runs-per-chunk Monte-Carlo estimate."""
    params = {
        "lam": 1e-4, "T": 3600.0, "N": 600.0, "n_runs": 32 * n,
        "chunk_runs": 32, "final_checkpoint": True, "master_seed": 1,
    }
    return [Task("mc_chunk", {**params, "chunk_index": i}) for i in range(n)]


#: a task whose worker raises: ``mc_chunk`` without its run counts
BAD_TASK = Task("mc_chunk", {"chunk_index": 0})


class TestRunner:
    def test_registry_has_builtin_kinds(self):
        assert {"mc_chunk", "study_cell"} <= set(_REGISTRY)
        assert get_kind("mc_chunk").version

    def test_execute_task_never_raises(self):
        out = execute_task(BAD_TASK.to_dict())
        assert out["ok"] is False
        assert "KeyError" in out["error"]

    def test_inline_and_parallel_identical(self):
        tasks = _tiny_mc_tasks()
        r1 = CampaignRunner(jobs=1).run(tasks)
        r4 = CampaignRunner(jobs=4).run(tasks)
        assert r1.values() == r4.values()
        assert r1.n_failed == r4.n_failed == 0

    def test_resume_skips_completed_tasks(self, tmp_path):
        tasks = _tiny_mc_tasks()
        store = ResultStore(tmp_path / "s")
        cold = CampaignRunner(store=store, jobs=1).run(tasks)
        assert cold.n_executed == len(tasks)
        assert store.hits == 0

        hits_before = store.hits
        warm = CampaignRunner(store=store, jobs=1).run(tasks)
        assert warm.n_executed == 0
        assert warm.n_cached == len(tasks)
        # every task was served by a store hit, none recomputed
        assert store.hits == hits_before + len(tasks)
        assert warm.values() == cold.values()

    def test_partial_store_executes_only_missing(self, tmp_path):
        tasks = _tiny_mc_tasks()
        store = ResultStore(tmp_path / "s")
        CampaignRunner(store=store, jobs=1).run(tasks[:3])
        result = CampaignRunner(store=store, jobs=1).run(tasks)
        assert result.n_cached == 3
        assert result.n_executed == len(tasks) - 3

    def test_no_resume_recomputes(self, tmp_path):
        tasks = _tiny_mc_tasks()
        store = ResultStore(tmp_path / "s")
        CampaignRunner(store=store, jobs=1).run(tasks)
        result = CampaignRunner(store=store, jobs=1, resume=False).run(tasks)
        assert result.n_cached == 0
        assert result.n_executed == len(tasks)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_failed_task_isolated(self, jobs):
        # an out-of-range chunk raises inside its worker; siblings finish
        ok_params = {
            "lam": 1e-4, "T": 3600.0, "N": 600.0, "n_runs": 64,
            "chunk_runs": 32, "final_checkpoint": True, "master_seed": 1,
        }
        tasks = [
            Task("mc_chunk", {**ok_params, "chunk_index": 0}),
            Task("mc_chunk", {**ok_params, "chunk_index": 99}),
            Task("mc_chunk", {**ok_params, "chunk_index": 1}),
        ]
        result = CampaignRunner(jobs=jobs).run(tasks)
        assert result.n_failed == 1
        assert [r.ok for r in result.runs] == [True, False, True]
        assert "ValueError" in result.failures()[0].error

    def test_nan_vm_size_fails_its_task_by_field_name(self):
        """Python's json reads ``NaN``, so a spec file can carry one; the
        cell used to die in the network layer with "invalid delay nan"."""
        sweep = Sweep.from_dict(json.loads(
            '{"name": "nan", "kind": "serving_cell", "base": {"policy": '
            '{"name": "checkpoint", "checkpoint": true, "interval": 1.0}, '
            '"load": {"vm_memory": NaN, "n_requests": 1000}, "trace_seed": 0}}'
        ))
        result = CampaignRunner(jobs=1).run(sweep.expand())
        assert result.n_failed == 1
        error = result.failures()[0].error
        assert "VMError" in error and "memory_bytes" in error

    def test_failed_task_not_stored(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        CampaignRunner(store=store, jobs=1).run([BAD_TASK])
        assert len(store) == 0  # a rerun retries it

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            CampaignRunner(jobs=0)

    def test_summary_table(self):
        result = CampaignRunner(jobs=1).run(_tiny_mc_tasks())
        table = result.summary_table("t")
        assert "executed" in table and "cached" in table


class TestCampaignArtifacts:
    def test_validate_campaign_matches_serial_chunked(self):
        from repro.model import estimate_expected_time

        kwargs = dict(runs=512, chunk_runs=128, mtbf_hours=(1.0, 2.0))
        rows, run = run_validate_campaign(jobs=2, **kwargs)
        serial, _ = run_validate_campaign(jobs=1, **kwargs)
        assert run.n_failed == 0
        for row, ref in zip(rows, serial):
            assert row["estimate"].mean == ref["estimate"].mean
            assert row["estimate"].std_error == ref["estimate"].std_error
            # the monolithic estimator draws an independent sample
            mono = estimate_expected_time(
                np.random.default_rng(row["master_seed"]), row["lam"],
                8 * 3600.0, row["N"], 120.0, 60.0, n_runs=4096,
            )
            assert row["estimate"].within(mono.mean, z=4.0)

    def test_validate_rows_carry_the_closed_form_and_verdict(self):
        from repro.model import expected_time_with_overhead

        rows, _ = run_validate_campaign(runs=256, chunk_runs=128, T=3600.0,
                                        T_ov=30.0, T_r=20.0, mtbf_hours=(0.5, 4.0))
        for row in rows:
            analytic = expected_time_with_overhead(row["lam"], 3600.0, row["N"],
                                                   30.0, 20.0)
            assert row["closed_form"] == analytic
            mc = row["estimate"]
            assert row["rel_err"] == abs(mc.mean - analytic) / analytic
            assert row["within"] == mc.within(analytic)

    def test_study_jobs1_vs_jobs4_identical_tables(self):
        kwargs = dict(
            methods=[{"name": "dvdc"}, {"name": "diskful"}],
            work=0.2 * 3600.0,
            seeds=2,
            node_mtbf=12 * 3600.0,
        )
        out1, run1 = run_study_campaign(jobs=1, **kwargs)
        out4, run4 = run_study_campaign(jobs=4, **kwargs)
        assert run1.n_failed == run4.n_failed == 0
        assert out1.summary_table() == out4.summary_table()

    def test_study_campaign_resume(self, tmp_path):
        kwargs = dict(
            methods=[{"name": "dvdc"}],
            work=0.1 * 3600.0,
            seeds=1,
            store=ResultStore(tmp_path / "s"),
        )
        _, cold = run_study_campaign(jobs=1, **kwargs)
        _, warm = run_study_campaign(jobs=1, **kwargs)
        assert cold.n_executed == 1
        assert warm.n_executed == 0 and warm.n_cached == 1


class TestStoreCorruptTail:
    """A crash mid-append must not brick resume (satellite fix)."""

    def _warm_store(self, tmp_path, n=8):
        tasks = _tiny_mc_tasks(n)
        store = ResultStore(tmp_path / "s")
        result = CampaignRunner(store=store, jobs=1).run(tasks)
        assert result.n_executed == len(tasks)
        return store, tasks

    def test_truncated_trailing_record_skipped_with_warning(self, tmp_path):
        store, tasks = self._warm_store(tmp_path)
        # simulate a crash mid-append: cut the last record in half
        text = store.path.read_text(encoding="utf-8")
        cut = text.rstrip("\n")
        store.path.write_text(cut[: len(cut) - len(cut.splitlines()[-1]) // 2],
                              encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt record"):
            reopened = ResultStore(store.root)
        assert reopened.skipped_lines == 1
        assert len(reopened) == len(tasks) - 1

    def test_resume_after_truncation_reexecutes_only_lost_task(self, tmp_path):
        store, tasks = self._warm_store(tmp_path)
        text = store.path.read_text(encoding="utf-8")
        store.path.write_text(text[:-20], encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            reopened = ResultStore(store.root)
        result = CampaignRunner(store=reopened, jobs=1).run(tasks)
        assert result.n_failed == 0
        assert result.n_executed == 1  # only the damaged record's task
        assert result.n_cached == len(tasks) - 1

    def test_file_compacted_so_appends_are_safe(self, tmp_path):
        store, tasks = self._warm_store(tmp_path)
        text = store.path.read_text(encoding="utf-8")
        store.path.write_text(text[:-20], encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            reopened = ResultStore(store.root)
        # the partial line is gone and the file ends on a line boundary
        healed = store.path.read_text(encoding="utf-8")
        assert healed.endswith("\n")
        for line in healed.splitlines():
            json.loads(line)
        # a post-heal append produces a loadable store with all records
        CampaignRunner(store=reopened, jobs=1).run(tasks)
        final = ResultStore(store.root)
        assert final.skipped_lines == 0
        assert len(final) == len(tasks)

    def test_interior_garbage_line_skipped(self, tmp_path):
        store, tasks = self._warm_store(tmp_path)
        lines = store.path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "not json at all {{{")
        lines.insert(3, '{"no_key_field": 1}')
        store.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            reopened = ResultStore(store.root)
        assert reopened.skipped_lines == 2
        assert len(reopened) == len(tasks)

    def test_clean_store_untouched(self, tmp_path):
        store, _ = self._warm_store(tmp_path)
        before = store.path.read_text(encoding="utf-8")
        reopened = ResultStore(store.root)
        assert reopened.skipped_lines == 0
        assert store.path.read_text(encoding="utf-8") == before


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
        assert store.get("a")["value"] == {"r": 2}  # last wins in memory
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        assert len(lines) == 2  # compacted: one line per key
        by_key = {json.loads(ln)["key"]: json.loads(ln) for ln in lines}
        assert by_key["a"]["value"] == {"r": 2}
        assert by_key["b"]["value"] == {"r": 10}
        # a reopened store agrees with the compacted file
        reopened = ResultStore(root)
        assert reopened.get("a")["value"] == {"r": 2}
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
        assert store.get("a")["value"] == {"r": 3}
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


#: one tiny parameter set per built-in kind; a new kind must add its own
TINY_PARAMS = {
    "mc_chunk": {
        "lam": 1e-4, "T": 3600.0, "N": 600.0, "n_runs": 64, "chunk_runs": 32,
        "chunk_index": 1, "final_checkpoint": True, "master_seed": 1,
    },
    "study_cell": {
        "method": {"name": "dvdc"}, "trace_seed": 0, "work": 360.0,
        "interval": 600.0, "node_mtbf": 6 * 3600.0,
    },
    "serving_cell": {
        "policy": {"name": "checkpoint", "checkpoint": True, "interval": 1.0},
        "load": {"n_requests": 1000},
        "trace_seed": 0,
    },
    "geo_cell": {"n_nodes": 6, "n_sites": 3, "epochs": 1, "kill_site": -1},
}


class TestJsonValueContract:
    """A task value is a JSON value — the layer's one data contract."""

    @pytest.mark.parametrize("kind", BUILTIN_KINDS)
    def test_value_round_trips_and_warm_equals_cold(self, kind, tmp_path):
        assert kind in TINY_PARAMS, f"add a tiny parameter set for {kind!r}"
        task = Task(kind, TINY_PARAMS[kind])
        cold = CampaignRunner(store=ResultStore(tmp_path / "s")).run([task])
        assert cold.n_failed == 0, cold.failures()[0].error
        value = cold.runs[0].value
        assert json.loads(json.dumps(value, sort_keys=True)) == value
        # a fresh process would reopen the store from disk: do the same
        warm = CampaignRunner(store=ResultStore(tmp_path / "s")).run([task])
        assert warm.n_cached == 1
        assert warm.runs[0].value == value

    def test_non_json_value_fails_its_own_task(self, tmp_path):
        out = execute_task(Task("test_ndarray", {}).to_dict())
        assert out["ok"] is False and out["value"] is None
        assert "TypeError" in out["error"]
        # ... so store.put never sees it and the siblings are unharmed
        good = _tiny_mc_tasks(2)
        tasks = [good[0], Task("test_ndarray", {}), good[1]]
        store = ResultStore(tmp_path / "s")
        result = CampaignRunner(store=store, jobs=1).run(tasks)
        assert [r.ok for r in result.runs] == [True, False, True]
        lines = (tmp_path / "s" / ResultStore.FILENAME).read_text().splitlines()
        assert [json.loads(ln)["key"] for ln in lines] == [good[0].key, good[1].key]


class TestInterruptedRun:
    """Results are persisted as they arrive, not after the last one."""

    @staticmethod
    def _tasks(trip, n, at):
        return [
            Task("test_tripwire", {"i": i, **({"trip": trip} if i == at else {})})
            for i in range(n)
        ]

    @staticmethod
    def _keys_on_disk(root):
        lines = (root / ResultStore.FILENAME).read_text().splitlines()
        return [json.loads(ln)["key"] for ln in lines]

    def test_inline_interrupt_keeps_collected_results(self, tmp_path):
        trip = tmp_path / "trip"
        trip.touch()
        tasks = self._tasks(str(trip), n=5, at=3)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(store=ResultStore(tmp_path / "s"), jobs=1).run(tasks)
        assert self._keys_on_disk(tmp_path / "s") == [t.key for t in tasks[:3]]
        reopened = ResultStore(tmp_path / "s")
        assert [reopened.get(t.key)["value"] for t in tasks[:3]] == [
            {"i": 0}, {"i": 1}, {"i": 2}
        ]
        # the re-run picks up where the interrupt struck
        trip.unlink()
        rerun = CampaignRunner(store=reopened, jobs=1).run(tasks)
        assert [r.cached for r in rerun.runs] == [True] * 3 + [False] * 2
        assert rerun.values() == [{"i": i} for i in range(5)]

    def test_pool_interrupt_keeps_collected_results_in_order(self, tmp_path):
        trip = tmp_path / "trip"
        trip.touch()
        tasks = self._tasks(str(trip), n=8, at=5)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(store=ResultStore(tmp_path / "s"), jobs=2).run(tasks)
        # collection is in submission order, so exactly the tasks ahead of
        # the failure are on disk — and in task-list order
        assert self._keys_on_disk(tmp_path / "s") == [t.key for t in tasks[:5]]


class TestRunnerBatching:
    """Chunked pool submissions (satellite fix for the 9x slowdown)."""

    def test_chunk_contiguous_and_complete(self):
        pending = list(range(23))
        batches = CampaignRunner._chunk(pending, jobs=4)
        assert [i for b in batches for i in b] == pending  # order preserved
        assert len(batches) <= 4 * 4 + 1
        assert all(b == list(range(b[0], b[0] + len(b))) for b in batches)

    def test_chunk_small_workloads(self):
        assert CampaignRunner._chunk([0], jobs=8) == [[0]]
        assert CampaignRunner._chunk([0, 1, 2], jobs=2) == [[0], [1], [2]]

    def test_execute_task_batch_matches_singles(self):
        tasks = _tiny_mc_tasks(6)
        dicts = [t.to_dict() for t in tasks]
        batched = execute_task_batch(dicts)
        singles = [execute_task(d) for d in dicts]
        # identical outcomes and values; elapsed is wall time, so skip it
        for a, b in zip(batched, singles):
            assert (a["ok"], a["value"], a["error"]) == (
                b["ok"], b["value"], b["error"]
            )

    def test_jobs4_bit_identical_to_jobs1(self):
        tasks = _tiny_mc_tasks(16)
        r1 = CampaignRunner(jobs=1).run(tasks)
        r4 = CampaignRunner(jobs=4).run(tasks)
        assert r1.n_failed == r4.n_failed == 0
        # bit-for-bit: every value, in task order
        for a, b in zip(r1.runs, r4.runs):
            assert a.task.key == b.task.key
            assert a.value == b.value

    def test_batched_failures_stay_isolated_and_ordered(self):
        good = _tiny_mc_tasks(8)
        tasks = [good[0], BAD_TASK, good[1], good[2], BAD_TASK, good[3]]
        result = CampaignRunner(jobs=3).run(tasks)
        assert [r.ok for r in result.runs] == [
            True, False, True, True, False, True
        ]


class TestRunnerProbe:
    def test_probe_records_tasks_and_span(self):
        from repro.telemetry import Probe

        probe = Probe()
        tasks = _tiny_mc_tasks(8)
        CampaignRunner(jobs=1, probe=probe).run(tasks)
        snap = probe.metrics.snapshot()
        executed = [
            s for s in snap["repro_campaign_tasks_total"]["series"]
            if s["labels"]["state"] == "executed"
        ]
        assert sum(s["value"] for s in executed) == len(tasks)
        hist = snap["repro_campaign_task_seconds"]["series"][0]
        assert hist["count"] == len(tasks)
        assert snap["repro_campaign_workers"]["series"][0]["value"] == 1
        spans = [s for s in probe.spans.spans if s.name == "campaign.run"]
        assert len(spans) == 1 and spans[0].finished

    def test_probe_counts_cached_separately(self, tmp_path):
        from repro.telemetry import Probe

        store = ResultStore(tmp_path / "s")
        tasks = _tiny_mc_tasks(8)
        CampaignRunner(store=store, jobs=1).run(tasks)
        probe = Probe()
        CampaignRunner(store=store, jobs=1, probe=probe).run(tasks)
        snap = probe.metrics.snapshot()
        states = {
            s["labels"]["state"]: s["value"]
            for s in snap["repro_campaign_tasks_total"]["series"]
        }
        assert states == {"cached": float(len(tasks))}

    def test_no_probe_is_default_and_inert(self):
        runner = CampaignRunner(jobs=1)
        from repro.telemetry import NULL_PROBE

        assert runner.probe is NULL_PROBE
        runner.run(_tiny_mc_tasks(4))  # must not record or raise
        assert vars(NULL_PROBE) == {"sink": None}
