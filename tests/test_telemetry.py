"""Tests for repro.telemetry — metrics, spans, exporters, and the Probe.

Covers the ISSUE acceptance list: histogram quantile estimates within
tolerance on known distributions, Chrome traces that validate (sorted
timestamps, matched B/E pairs), Prometheus text that parses back, the
NULL_PROBE/NULL_TRACER inertness contracts, and an instrumented
end-to-end simulation run.
"""

import json
import math

import numpy as np
import pytest

from repro.sim import NULL_TRACER, Simulator, Tracer
from repro.telemetry import (
    NULL_PROBE,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    P2Quantile,
    Probe,
    SpanError,
    SpanRecorder,
    chrome_trace,
    jsonl_events,
    parse_prometheus_text,
    probe_of,
    prometheus_text,
    summary_table,
    write_chrome_trace,
    write_jsonl,
)


# ---------------------------------------------------------------------------
# streaming quantiles


class TestP2Quantile:
    def test_exact_below_marker_count(self):
        q = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            q.add(v)
        assert q.value == 3.0

    @pytest.mark.parametrize("target", [0.5, 0.9, 0.99])
    def test_uniform_within_tolerance(self, target):
        rng = np.random.default_rng(42)
        q = P2Quantile(target)
        for v in rng.uniform(0.0, 1.0, 5000):
            q.add(float(v))
        assert abs(q.value - target) < 0.03

    def test_exponential_median(self):
        rng = np.random.default_rng(7)
        q = P2Quantile(0.5)
        samples = rng.exponential(1.0, 4000)
        for v in samples:
            q.add(float(v))
        true_median = math.log(2.0)
        assert abs(q.value - true_median) < 0.08

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)


# ---------------------------------------------------------------------------
# metric primitives


class TestMetrics:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(MetricError):
            c.inc(-1.0)

    def test_gauge_tracks_peak(self):
        g = Gauge()
        g.set(5.0)
        g.set(2.0)
        g.set(3.0)
        assert g.value == 3.0
        assert g.max_value == 5.0

    def test_histogram_buckets_cumulative(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        cum = h.cumulative_buckets()
        assert cum == [(1.0, 2), (10.0, 3), (math.inf, 4)]
        assert h.count == 4
        assert h.sum == pytest.approx(56.2)
        assert h.min == 0.5 and h.max == 50.0

    def test_histogram_quantile_on_known_distribution(self):
        rng = np.random.default_rng(3)
        h = Histogram()
        for v in rng.uniform(0.0, 1.0, 5000):
            h.observe(float(v))
        assert abs(h.quantiles()[0.5] - 0.5) < 0.03
        assert abs(h.quantiles()[0.99] - 0.99) < 0.03

    def test_registry_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "x")
        with pytest.raises(MetricError):
            reg.gauge("repro_x_total", "x")

    def test_registry_idempotent_and_labeled(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_ops_total", "ops")
        b = reg.counter("repro_ops_total")
        assert a is b
        a.labels(op="read").inc()
        a.labels(op="write").inc(2)
        values = {labels["op"]: s.value for labels, s in a.series()}
        assert values == {"read": 1.0, "write": 2.0}

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("bad name!", "nope")

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total", "a").labels(k="v").inc()
        reg.histogram("repro_b_seconds", "b").labels().observe(0.1)
        json.dumps(reg.snapshot())  # must not raise


# ---------------------------------------------------------------------------
# Prometheus exposition round-trip


class TestPrometheus:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("repro_flows_total", "flows").labels(link="nas.rx").inc(7)
        reg.gauge("repro_depth", "queue depth").labels().set(3)
        h = reg.histogram("repro_io_seconds", "io", buckets=(0.1, 1.0))
        h.labels(op="read").observe(0.05)
        h.labels(op="read").observe(0.5)
        h.labels(op="read").observe(5.0)
        return reg

    def test_text_parses_back(self):
        reg = self._registry()
        text = prometheus_text(reg)
        parsed = parse_prometheus_text(text)
        assert parsed["repro_flows_total"]["type"] == "counter"
        assert parsed["repro_depth"]["type"] == "gauge"
        assert parsed["repro_io_seconds"]["type"] == "histogram"
        name, labels, value = parsed["repro_flows_total"]["samples"][0]
        assert labels == {"link": "nas.rx"} and value == 7.0

    def test_histogram_samples_complete(self):
        text = prometheus_text(self._registry())
        parsed = parse_prometheus_text(text)
        samples = parsed["repro_io_seconds"]["samples"]
        buckets = [(lb["le"], v) for n, lb, v in samples
                   if n == "repro_io_seconds_bucket"]
        # cumulative and ending at +Inf == count
        assert buckets == [("0.1", 1.0), ("1", 2.0), ("+Inf", 3.0)]
        count = [v for n, _, v in samples if n == "repro_io_seconds_count"]
        total = [v for n, _, v in samples if n == "repro_io_seconds_sum"]
        assert count == [3.0]
        assert total[0] == pytest.approx(5.55)

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("repro_esc_total", "esc").labels(
            path='a"b\\c', note="line1\nline2"
        ).inc()
        parsed = parse_prometheus_text(prometheus_text(reg))
        _, labels, _ = parsed["repro_esc_total"]["samples"][0]
        assert labels == {"path": 'a"b\\c', "note": "line1\nline2"}

    def test_summary_table_renders(self):
        text = summary_table(self._registry())
        assert "repro_flows_total" in text
        assert "repro_io_seconds" in text


# ---------------------------------------------------------------------------
# spans and Chrome traces


def _validate_chrome(events):
    """The Perfetto loadability invariants the ISSUE names."""
    dur = [e for e in events if e["ph"] in "BE"]
    ts = [e["ts"] for e in dur]
    assert ts == sorted(ts), "timestamps must be sorted"
    stacks: dict[int, list[str]] = {}
    for e in dur:
        stack = stacks.setdefault(e["tid"], [])
        if e["ph"] == "B":
            stack.append(e["name"])
        else:
            assert stack and stack[-1] == e["name"], "mismatched B/E pair"
            stack.pop()
    assert all(not s for s in stacks.values()), "unclosed span exported"


class TestSpans:
    def _clock(self):
        t = [0.0]

        def tick():
            t[0] += 0.25
            return t[0]

        return tick

    def test_nesting_and_durations(self):
        rec = SpanRecorder(wall_clock=self._clock())
        outer = rec.begin("cycle", 0.0, track="checkpoint", epoch=1)
        inner = rec.begin("ship", 1.0, track="checkpoint")
        rec.end(inner, 4.0)
        rec.end(outer, 5.0, committed=True)
        assert inner.parent_id == outer.span_id
        assert (outer.start_sim, outer.end_sim) == (0.0, 5.0)
        assert outer.args["committed"] is True

    def test_lifo_enforced(self):
        rec = SpanRecorder(wall_clock=self._clock())
        a = rec.begin("a", 0.0)
        rec.begin("b", 1.0)
        with pytest.raises(SpanError):
            rec.end(a, 2.0)

    def test_chrome_events_validate(self):
        rec = SpanRecorder(wall_clock=self._clock())
        a = rec.begin("cycle", 0.0, track="checkpoint")
        b = rec.begin("ship", 1.0, track="checkpoint")
        c = rec.begin("recover", 1.5, track="recovery")
        rec.end(b, 2.0)
        rec.end(c, 2.5)
        rec.end(a, 3.0)
        for clock in ("sim", "wall"):
            events = rec.chrome_events(clock=clock)
            _validate_chrome(events)
        # metadata names the process and each track
        meta = [e for e in rec.chrome_events() if e["ph"] == "M"]
        assert meta[0]["name"] == "process_name"
        tracks = {e["args"]["name"] for e in meta[1:]}
        assert tracks == {"checkpoint", "recovery"}

    def test_unfinished_spans_not_exported(self):
        rec = SpanRecorder(wall_clock=self._clock())
        rec.begin("never_ends", 0.0)
        assert [e for e in rec.chrome_events() if e["ph"] in "BE"] == []

    def test_chrome_trace_document(self, tmp_path):
        rec = SpanRecorder(wall_clock=self._clock())
        s = rec.begin("x", 0.0)
        rec.end(s, 1.0)
        doc = chrome_trace(rec)
        assert doc["displayTimeUnit"] == "ms"
        path = write_chrome_trace(tmp_path / "t.json", rec)
        _validate_chrome(json.loads(path.read_text())["traceEvents"])

    def test_bad_clock_rejected(self):
        with pytest.raises(ValueError):
            SpanRecorder().chrome_events(clock="tai")


# ---------------------------------------------------------------------------
# the Probe facade


class TestProbe:
    def test_is_a_tracer_and_counts_emits(self):
        p = Probe()
        p.emit(1.0, "checkpoint.commit", epoch=0)
        p.emit(2.0, "checkpoint.commit", epoch=1)
        assert len(p.records) == 2  # Tracer surface intact
        parsed = parse_prometheus_text(prometheus_text(p.metrics))
        samples = parsed["repro_trace_events_total"]["samples"]
        assert samples[0][1] == {"kind": "checkpoint.commit"}
        assert samples[0][2] == 2.0

    def test_sink_receives_copies(self):
        sink = Tracer()
        p = Probe(sink=sink)
        p.emit(1.0, "x")
        assert len(sink.records) == 1

    def test_disabled_probe_is_silent(self):
        p = Probe(enabled=False)
        p.emit(1.0, "x")
        p.count("repro_c_total")
        p.observe("repro_h_seconds", 1.0)
        span = p.span_begin("s", 0.0)
        p.span_end(span, 1.0)  # tolerates None
        assert span is None
        assert len(p.records) == 0
        snap = p.metrics.snapshot()
        # nothing beyond the pre-registered hot-loop families, all at zero
        assert "repro_c_total" not in snap
        assert "repro_h_seconds" not in snap
        assert snap["repro_sim_events_total"]["series"][0]["value"] == 0
        assert len(p.spans) == 0

    def test_probe_of_identity_and_fallback(self):
        p = Probe()
        assert probe_of(p) is p
        assert probe_of(Tracer()) is NULL_PROBE
        assert probe_of(NULL_TRACER) is NULL_PROBE
        assert probe_of(None) is NULL_PROBE
        assert probe_of(NULL_PROBE) is NULL_PROBE

    def test_null_probe_truly_inert(self):
        NULL_PROBE.emit(1.0, "junk")
        NULL_PROBE.count("repro_junk_total")
        NULL_PROBE.observe("repro_junk_seconds", 1.0)
        NULL_PROBE.sim_event(5)
        s = NULL_PROBE.span_begin("junk", 0.0)
        NULL_PROBE.span_end(s, 1.0)
        assert s is None
        assert not NULL_PROBE.enabled
        NULL_PROBE.enabled = True  # silently refused
        assert not NULL_PROBE.enabled
        assert NULL_PROBE.records == ()
        assert NULL_PROBE.select() == []
        # it owns no registry, recorder or record list to leak through
        assert vars(NULL_PROBE) == {"sink": None}


# ---------------------------------------------------------------------------
# NULL_TRACER hardening regression (satellite: sim.trace)


class TestNullTracerRegression:
    def test_emit_accumulates_nothing(self):
        NULL_TRACER.emit(1.0, "anything", junk=True)
        assert NULL_TRACER.records == ()
        assert len(NULL_TRACER) == 0

    def test_enabled_cannot_be_flipped(self):
        NULL_TRACER.enabled = True
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(1.0, "still.dropped")
        assert len(NULL_TRACER) == 0

    def test_clear_and_select_inert(self):
        assert vars(NULL_TRACER) == {}  # nothing to clear
        assert NULL_TRACER.select() == []
        assert NULL_TRACER.select(kind="x", prefix="y") == []

    def test_records_not_shared_with_real_tracers(self):
        # the original bug shape: a records list reachable through the
        # singleton aliasing a live tracer's storage
        t = Tracer()
        t.emit(1.0, "real.event")
        assert len(t.records) == 1
        assert NULL_TRACER.records == ()


# ---------------------------------------------------------------------------
# instrumented end-to-end run


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def probe(self):
        from repro.checkpoint import DiskfulCheckpointer
        from repro.workloads import scaled_scenario

        probe = Probe()
        sc = scaled_scenario(3, 2, seed=0, tracer=probe)
        sc.sim.attach_probe(probe)
        ck = DiskfulCheckpointer(sc.cluster, tracer=probe)
        sc.sim.run_process(ck.run_cycle())
        return probe

    def test_sim_layer_metrics(self, probe):
        snap = probe.metrics.snapshot()
        assert snap["repro_sim_events_total"]["series"][0]["value"] > 0
        assert snap["repro_checkpoint_captures_total"]["series"][0]["value"] == 6
        cycles = snap["repro_checkpoint_cycles_total"]["series"]
        assert cycles[0]["labels"] == {"arch": "diskful", "committed": "true"}

    def test_network_and_storage_metrics(self, probe):
        snap = probe.metrics.snapshot()
        flows = sum(s["value"]
                    for s in snap["repro_net_flows_total"]["series"])
        assert flows == 6  # one ship flow per VM
        disk = snap["repro_disk_io_seconds"]["series"]
        assert any(s["labels"]["op"] == "write" for s in disk)
        assert snap["repro_nas_objects"]["series"][0]["value"] == 6

    def test_spans_export_as_valid_chrome_trace(self, probe):
        names = {s.name for s in probe.spans.completed}
        assert {"diskful.cycle", "diskful.ship", "checkpoint.capture"} <= names
        _validate_chrome(probe.spans.chrome_events(clock="sim"))
        _validate_chrome(probe.spans.chrome_events(clock="wall"))

    def test_prometheus_export_parses(self, probe):
        parsed = parse_prometheus_text(prometheus_text(probe.metrics))
        assert "repro_checkpoint_pause_seconds" in parsed
        assert parsed["repro_checkpoint_pause_seconds"]["type"] == "histogram"

    def test_jsonl_stream_well_formed(self, probe, tmp_path):
        lines = list(jsonl_events(probe))
        docs = [json.loads(line) for line in lines]
        types = [d["type"] for d in docs]
        assert types[-1] == "metrics_snapshot"
        assert "trace" in types and "span" in types
        path = write_jsonl(tmp_path / "events.jsonl", probe)
        assert len(path.read_text().splitlines()) == len(lines)

    def test_simulator_probe_attachment(self):
        p = Probe()
        sim = Simulator(probe=p)
        assert sim._probe is p
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]
        snap = p.metrics.snapshot()
        assert snap["repro_sim_events_total"]["series"][0]["value"] >= 1


# ---------------------------------------------------------------------------
# vectorized observation + P² export (serving satellites)
class TestObserveBatch:
    def test_batch_equals_sequential_exactly(self):
        """observe_batch must leave *identical* state to a sequential
        observe loop: buckets, count, min/max, and every P² marker."""
        rng = np.random.default_rng(4)
        values = rng.exponential(0.1, 5000)
        a = Histogram(buckets=(0.05, 0.1, 0.5, 1.0))
        b = Histogram(buckets=(0.05, 0.1, 0.5, 1.0))
        for v in values:
            a.observe(float(v))
        b.observe_batch(values)
        assert a.counts == b.counts
        assert a.count == b.count
        assert a.min == b.min and a.max == b.max
        assert a.quantiles() == b.quantiles()  # P² state bit-equal

    def test_batch_empty_is_noop(self):
        h = Histogram()
        h.observe_batch(np.empty(0))
        assert h.count == 0

    def test_batch_rejects_nan(self):
        h = Histogram()
        with pytest.raises(MetricError, match="NaN"):
            h.observe_batch(np.array([0.1, math.nan]))
        assert h.count == 0  # rejected atomically, nothing recorded

    def test_probe_observe_batch_routes_labels_and_quantiles(self):
        p = Probe()
        p.observe_batch(
            "repro_req_seconds", np.array([0.01, 0.2, 0.9]),
            quantiles=(0.5, 0.99), policy="baseline",
        )
        snap = p.metrics.snapshot()
        series = snap["repro_req_seconds"]["series"][0]
        assert series["labels"] == {"policy": "baseline"}
        assert series["count"] == 3
        assert set(series["quantiles"]) == {"0.5", "0.99"}

    def test_null_probe_observe_batch_inert(self):
        NULL_PROBE.observe_batch("repro_x_seconds", np.array([1.0]))
        assert vars(NULL_PROBE) == {"sink": None}


class TestQuantileExport:
    def _registry(self):
        reg = MetricsRegistry()
        h = reg.histogram(
            "repro_lat_seconds", "latency", buckets=(0.1, 1.0),
            quantiles=(0.5, 0.99),
        )
        s = h.labels(policy="ck")
        s.observe_batch(np.linspace(0.01, 2.0, 500))
        return reg

    def test_prometheus_text_carries_quantile_samples(self):
        text = prometheus_text(self._registry())
        parsed = parse_prometheus_text(text)
        samples = parsed["repro_lat_seconds"]["samples"]
        q = {
            lb["quantile"]: v for n, lb, v in samples
            if n == "repro_lat_seconds" and "quantile" in lb
        }
        assert set(q) == {"0.5", "0.99"}
        # P² estimates of a uniform ramp on (0.01, 2.0)
        assert q["0.5"] == pytest.approx(1.0, rel=0.1)
        assert q["0.99"] == pytest.approx(1.98, rel=0.05)
        # the quantile samples keep the series labels too
        labels = [lb for n, lb, _ in samples
                  if n == "repro_lat_seconds" and "quantile" in lb]
        assert all(lb["policy"] == "ck" for lb in labels)

    def test_nan_quantiles_are_skipped(self):
        reg = MetricsRegistry()
        reg.histogram("repro_empty_seconds", "e").labels()  # no samples
        text = prometheus_text(reg)
        assert "quantile" not in text
        assert "NaN" not in text

    def test_summary_table_has_quantile_columns(self):
        table = summary_table(self._registry())
        header = table.splitlines()[0] if "metric" in table.splitlines()[0] \
            else table.splitlines()[1]
        for col in ("q50", "q95", "q99", "q999"):
            assert col in header
        # the estimated median shows up as a rendered number
        assert any("1.0" in line for line in table.splitlines())
