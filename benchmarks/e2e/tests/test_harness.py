"""Self-tests of the benchmark harness (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.
"""

from __future__ import annotations

import copy
import importlib.util
import io
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
sys.path.insert(0, E2E)

import compare  # noqa: E402
import run  # noqa: E402
from tracing import LayerSampler, Spans, layer_of  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_sampler_charges_a_fake_repro_frame(tmp_path):
    package = tmp_path / "repro" / "x"
    package.mkdir(parents=True)
    source = package / "busy.py"
    source.write_text(
        "import time\n"
        "def spin(seconds):\n"
        "    end = time.process_time() + seconds\n"
        "    while time.process_time() < end:\n"
        "        pass\n"
    )
    spec = importlib.util.spec_from_file_location("fake_busy", source)
    busy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(busy)
    assert layer_of(str(source)) == "x"

    sampler = LayerSampler()
    sampler.start()
    try:
        t0 = time.process_time()
        busy.spin(0.3)
        in_x = time.process_time() - t0
        _spin(0.2)  # this file's own frame: the harness
    finally:
        sampler.stop()
    assert abs(sampler.self_s["x"] - in_x) <= 0.10 * in_x
    assert sampler.self_s["harness"] > 0.1
    # inclusive: the harness called x, so it holds both
    assert sampler.incl_s["harness"] >= sampler.self_s["x"] + sampler.self_s["harness"] - 1e-9
    assert abs(sum(sampler.self_s.values()) - sampler.cpu_s) < 1e-9


def test_layer_of_maps_perf_and_outside_frames():
    assert layer_of("/a/src/repro/perf/scale.py") == "harness"
    assert layer_of("/a/src/repro/sim/engine.py") == "sim"
    assert layer_of("/a/src/repro/cli.py") == "repro"
    assert layer_of(os.path.join(E2E, "workloads.py")) == "harness"
    assert layer_of("/usr/lib/python3/site-packages/numpy/core/x.py") is None


def test_span_self_time_is_duration_minus_children():
    spans = Spans()
    spans.records = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 2.0, 5.0, 0, 0],
        ["c", 6.0, 7.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
        ["b", 20.0, 24.0, -1, 1],
    ]
    assert spans.self_times() == [6.0, 2.0, 1.0, 1.0, 4.0]
    assert spans.total("b", 0) == 3.0 and spans.total("b", 1) == 4.0


def _pass(spans, pass_id, t0, run_a, gap, run_b):
    """measure > phase.cycle > (sim.run, sim.run) with ``gap`` of own time."""
    base = len(spans.records)
    end = t0 + run_a + gap + run_b
    spans.records += [
        ["measure", t0, end, -1, pass_id],
        ["phase.cycle", t0, end, base, pass_id],
        ["sim.run", t0, t0 + run_a, base + 1, pass_id],
        ["sim.run", t0 + run_a + gap, end, base + 1, pass_id],
    ]


def test_typical_pass_takes_per_step_medians():
    spans = Spans()
    _pass(spans, 0, 0.0, 1.0, 0.5, 2.0)
    _pass(spans, 1, 10.0, 5.0, 0.5, 2.0)   # a burst hits the first step
    _pass(spans, 2, 20.0, 1.0, 0.5, 6.0)   # ... and here the second
    typical = spans.typical([0, 1, 2])
    assert typical["sim.run"] == 3.0        # 1.0 + 2.0: neither burst shows
    assert typical["phase.cycle"] == typical["measure"] == 3.5
    # a median over whole passes would have kept a burst
    assert sorted(spans.total("measure", p) for p in range(3))[1] == 7.5
    assert spans.typical([1])["measure"] == 7.5
    spans.records.append(["extra", 30.0, 31.0, -1, 2])
    with pytest.raises(ValueError):
        spans.typical([0, 2])


def test_span_context_manager_nests():
    spans = Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    (outer, inner) = spans.records
    assert inner[3] == 0 and outer[3] == -1
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def _row(values, unit="s", better="lower", bound=0.10, kind="end_to_end"):
    meta = {"unit": unit, "kind": kind, "better": better, "bound": bound}
    return run.make_row(meta, values)


def _fake_set():
    rows = {
        "wall_s": _row([5.00, 5.02, 5.04]),
        "events_per_s": _row([30000.0, 30100.0, 30200.0], "1/s", "higher"),
        "sim_pause_s": _row([0.66, 0.66, 0.66], "sim-s", bound=1e-9),
        "failed_op_share": _row([0.0, 0.0, 0.0], "ratio", bound=0.0),
        "sim.events": _row([147466.0] * 3, "count", kind="per_layer", bound=None),
    }
    return {"seed": 0, "workloads": {"epoch_scale": {
        "rows": rows, "digests": {"clock": "abc"}, "problems": []}}}


def _compare(base, new):
    out = io.StringIO()
    return compare.compare(base, new, out=out), out.getvalue()


def test_compare_passes_identical_sets():
    base = _fake_set()
    bad, text = _compare(base, copy.deepcopy(base))
    assert bad == 0, text


def test_compare_flags_a_twenty_percent_slowdown():
    base, slow = _fake_set(), _fake_set()
    slow["workloads"]["epoch_scale"]["rows"]["wall_s"] = _row([6.00, 6.02, 6.05])
    bad, text = _compare(base, slow)
    assert bad == 1 and "regression" in text
    # ... and in a higher-is-better rate
    slow = _fake_set()
    slow["workloads"]["epoch_scale"]["rows"]["events_per_s"] = _row(
        [24000.0, 24100.0, 24200.0], "1/s", "higher")
    assert _compare(base, slow)[0] == 1


def test_compare_marks_wide_spread_unresolved_and_exact_rows_strictly():
    base, noisy = _fake_set(), _fake_set()
    noisy["workloads"]["epoch_scale"]["rows"]["wall_s"] = _row([4.2, 5.0, 5.9])
    bad, text = _compare(base, noisy)
    assert bad == 1 and "unresolved" in text
    for name, row in (
        ("sim_pause_s", _row([0.67] * 3, "sim-s", bound=1e-9)),
        ("failed_op_share", _row([0.01] * 3, "ratio", bound=0.0)),
        ("sim.events", _row([147467.0] * 3, "count", kind="per_layer", bound=None)),
    ):
        moved = _fake_set()
        moved["workloads"]["epoch_scale"]["rows"][name] = row
        assert _compare(base, moved)[0] == 1, name
    moved = _fake_set()
    moved["workloads"]["epoch_scale"]["digests"] = {"clock": "abd"}
    assert _compare(base, moved)[0] == 1


def test_benchmark_json_meets_the_contract_limits():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert set(run.HARNESS_BOUNDS) <= {m["name"] for m in spec["per_layer"]}


def _run(*argv, timeout=120):
    return subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), *argv],
        capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_runs_all_five_workloads_with_the_gate_on(tmp_path):
    out = tmp_path / "set.json"
    t0 = time.perf_counter()
    proc = _run("--all", "--smoke", "--repeats", "1", "--seconds", "0.2",
                "--out", str(out))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 30.0
    result = json.loads(out.read_text())
    spec = run.load_spec()
    assert list(result["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, w in result["workloads"].items():
        assert not w["problems"], (name, w["problems"])
        assert w["rows"]["failed_op_share"]["median"] == 0.0
        assert {m["name"] for m in spec["end_to_end"]} <= set(w["rows"])
        assert w["runs"][0]["attempted"] >= 1 and w["runs"][0]["env"]["nproc"]


def test_one_traced_run_prints_exactly_the_per_layer_metrics():
    proc = _run("--workload", "site_outage", "--smoke", "--seconds", "0.2",
                "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    spec = run.load_spec()
    assert list(line["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert line["metrics"]["audit.audits"]["value"] == 1
    assert line["metrics"]["coding.self_s"]["value"] > 0


def test_a_wrong_output_fails_the_run(monkeypatch, capsys):
    """A pass whose digests differ from pass 0 must turn the run red."""
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads

    real = workloads.WORKLOADS["payload_xor"]
    calls = []

    def drifting_setup(seed, smoke):
        calls.append(seed)
        return real.setup(seed + len(calls) - 1, smoke)  # pass 1 gets other inputs

    monkeypatch.setitem(
        workloads.WORKLOADS, "payload_xor",
        workloads.Workload("payload_xor", drifting_setup, real.run),
    )
    detail = run.run_passes("payload_xor", 0, 0.0, True, True, 0.0)
    assert len(calls) == 2
    assert not detail["correct"] and detail["failed"] == 1
    assert "differ from pass 0" in detail["problems"][0]
