"""The canonical scale scenario: builder, epoch driver, digests.

``repro.perf`` is one thin scenario module, :mod:`~repro.perf.scale`:
the shared scenario body the flat and geo builders call, the epoch
driver, the bit-exact run digests the golden tests pin, and the
cancel-heavy event-heap probe.  It measures no wall-clock throughput —
the repo's one bench harness is ``benchmarks/e2e/`` (``BENCHMARK.json``).
"""

from .scale import (
    ScaleConfig,
    build_scale_scenario,
    build_scenario,
    heap_cancel_bench,
    run_epochs,
    scenario_digests,
)

__all__ = [
    "ScaleConfig",
    "build_scale_scenario",
    "build_scenario",
    "heap_cancel_bench",
    "run_epochs",
    "scenario_digests",
]
