"""BENCH-TELEMETRY — the cost of instrumentation, measured not assumed.

The telemetry layer's contract is that *disabled* probes are free: every
hot-loop call site guards with ``probe is not None and probe.enabled``
(or holds ``NULL_PROBE``, whose ``enabled`` is constant ``False``).
This bench puts a number on that claim along two hot paths and gates on
the Monte-Carlo one:

* **Monte-Carlo** — ``simulate_completion_times_chunked`` at a run count
  large enough that the wall clock is dominated by real work.  The gate:
  running with a disabled probe costs <= 2% over no probe at all.
* **Simulator event storm** — a pure event-dispatch loop through
  ``Simulator.run``, the tightest loop the probe touches.  Recorded
  informationally (the per-event guard is visible here by design).

Enabled-probe numbers are reported too, so the cost of the *active*
path is visible in the run log even though only the disabled path is
gated.
"""

import time

from repro.model import simulate_completion_times_chunked
from repro.sim import Simulator
from repro.telemetry import Probe

#: Monte-Carlo size for the gated leg — big enough that one run takes
#: O(100ms), so timer noise is far below the 2% gate.
MC_RUNS = 40_000
#: Best-of repeats per variant; legs are interleaved so drift (thermal,
#: noisy neighbors) hits every variant equally.
REPEATS = 5
#: The acceptance bar for the disabled path (ISSUE: <= 2%).
MAX_DISABLED_OVERHEAD = 0.02

MC_PARAMS = dict(lam=1.0 / 3600.0, T=8 * 3600.0, N=900.0,
                 T_ov=120.0, T_r=60.0)


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


def _event_storm(probe, n_events: int = 50_000) -> float:
    sim = Simulator(probe=probe)
    for i in range(n_events):
        sim.at(float(i), lambda: None)
    sim.run()
    return sim.now


def test_disabled_probe_overhead_gate(report):
    """The headline gate: disabled telemetry <= 2% on the MC bench."""
    disabled = Probe(enabled=False)
    enabled = Probe()
    best = _best_of({
        "baseline": lambda: _mc(None),
        "disabled": lambda: _mc(disabled),
        "enabled": lambda: _mc(enabled),
    })
    overhead_disabled = best["disabled"] / best["baseline"] - 1.0
    overhead_enabled = best["enabled"] / best["baseline"] - 1.0

    storm = _best_of({
        "baseline": lambda: _event_storm(None),
        "disabled": lambda: _event_storm(Probe(enabled=False)),
        "enabled": lambda: _event_storm(Probe()),
    })
    storm_disabled = storm["disabled"] / storm["baseline"] - 1.0
    storm_enabled = storm["enabled"] / storm["baseline"] - 1.0

    report(
        f"\nTELEMETRY overhead (best of {REPEATS}): MC {MC_RUNS} runs — "
        f"baseline {best['baseline']:.3f}s, disabled "
        f"{overhead_disabled * 100:+.2f}%, enabled "
        f"{overhead_enabled * 100:+.2f}%; event storm — disabled "
        f"{storm_disabled * 100:+.2f}%, enabled {storm_enabled * 100:+.2f}%"
    )
    assert overhead_disabled <= MAX_DISABLED_OVERHEAD, (
        f"disabled telemetry costs {overhead_disabled * 100:.2f}% "
        f"(> {MAX_DISABLED_OVERHEAD * 100:.0f}% gate)"
    )
    # sanity: the enabled path actually recorded something
    snap = enabled.metrics.snapshot()
    assert "repro_mc_runs_total" in snap


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
