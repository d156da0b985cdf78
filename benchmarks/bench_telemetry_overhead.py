"""BENCH-TELEMETRY — the cost of instrumentation, measured not assumed.

The telemetry layer's contract is that *disabled* probes are free: every
hot-loop call site guards with ``probe is not None and probe.enabled``
(or holds ``NULL_PROBE``, whose ``enabled`` is constant ``False``).
Along two hot paths this bench gates on that contract structurally and
reports the wall-clock cost beside it:

* **Monte-Carlo** — ``simulate_completion_times_chunked``: a disabled
  probe is read exactly once per chunk and records nothing.
* **Simulator event storm** — a pure event-dispatch loop through
  ``Simulator.run``, the tightest loop the probe touches: a disabled
  probe is read once per event and its ``sim_event`` is never called.

The timings (disabled and enabled, against no probe at all) are printed
but not gated: on a small shared host the run-to-run spread of these
legs is wider than any bound worth asserting.
"""

import time

from repro.model import simulate_completion_times_chunked
from repro.model.montecarlo import DEFAULT_CHUNK_RUNS, chunk_sizes
from repro.sim import Simulator
from repro.telemetry import Probe

#: Monte-Carlo size of the timed leg — one run takes O(100ms).
MC_RUNS = 40_000
#: Events in the storm leg.
STORM_EVENTS = 50_000
#: Best-of repeats per variant; legs are interleaved so drift (thermal,
#: noisy neighbors) hits every variant equally.
REPEATS = 5

MC_PARAMS = dict(lam=1.0 / 3600.0, T=8 * 3600.0, N=900.0,
                 T_ov=120.0, T_r=60.0)


class CountingDisabledProbe(Probe):
    """A disabled probe that counts how often the hot paths consult it."""

    def __init__(self):
        self.enabled_reads = 0
        self.sim_event_calls = 0
        super().__init__(enabled=False)

    @property
    def enabled(self) -> bool:
        self.enabled_reads += 1
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        pass  # permanently disabled

    def sim_event(self, heap_depth: int) -> None:
        self.sim_event_calls += 1


def _best_of(variants: dict) -> dict[str, float]:
    """Interleaved best-of-``REPEATS`` wall time per variant."""
    best = {name: float("inf") for name in variants}
    for _ in range(REPEATS):
        for name, fn in variants.items():
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            if dt < best[name]:
                best[name] = dt
    return best


def _mc(probe):
    return simulate_completion_times_chunked(
        master_seed=7, n_runs=MC_RUNS, probe=probe, **MC_PARAMS
    )


def _event_storm(probe) -> Simulator:
    sim = Simulator(probe=probe)
    for i in range(STORM_EVENTS):
        sim.at(float(i), lambda: None)
    sim.run()
    return sim


def test_disabled_probe_overhead_gate(report):
    """The headline gate: a disabled probe is one guard per chunk and per
    event, and it records nothing."""
    mc_probe = CountingDisabledProbe()
    _mc(mc_probe)
    assert mc_probe.enabled_reads == len(chunk_sizes(MC_RUNS, DEFAULT_CHUNK_RUNS))
    assert mc_probe.metrics.snapshot() == Probe(enabled=False).metrics.snapshot()

    storm_probe = CountingDisabledProbe()
    sim = _event_storm(storm_probe)
    assert sim.event_count == STORM_EVENTS
    assert storm_probe.enabled_reads == STORM_EVENTS
    assert storm_probe.sim_event_calls == 0

    enabled = Probe()
    best = _best_of({
        "baseline": lambda: _mc(None),
        "disabled": lambda: _mc(Probe(enabled=False)),
        "enabled": lambda: _mc(enabled),
    })
    storm = _best_of({
        "baseline": lambda: _event_storm(None),
        "disabled": lambda: _event_storm(Probe(enabled=False)),
        "enabled": lambda: _event_storm(Probe()),
    })

    def share(legs, name):
        return f"{(legs[name] / legs['baseline'] - 1.0) * 100:+.2f}%"

    report(
        f"\nTELEMETRY overhead (best of {REPEATS}, not gated): MC {MC_RUNS} "
        f"runs — baseline {best['baseline']:.3f}s, disabled "
        f"{share(best, 'disabled')}, enabled {share(best, 'enabled')}; event "
        f"storm — baseline {storm['baseline']:.3f}s, disabled "
        f"{share(storm, 'disabled')}, enabled {share(storm, 'enabled')}"
    )
    # sanity: the enabled path actually recorded something
    assert "repro_mc_runs_total" in enabled.metrics.snapshot()


def test_enabled_probe_records_mc_metrics():
    """Cheap correctness companion: one small instrumented MC run."""
    probe = Probe()
    samples = simulate_completion_times_chunked(
        master_seed=3, n_runs=1024, probe=probe, **MC_PARAMS
    )
    assert samples.size == 1024
    snap = probe.metrics.snapshot()
    runs = snap["repro_mc_runs_total"]["series"][0]["value"]
    assert runs == 1024
    chunks = snap["repro_mc_chunk_seconds"]["series"][0]["count"]
    assert chunks == 2  # 1024 runs / 512 per chunk
