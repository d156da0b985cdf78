"""FIG5 / TAB-MODEL — the headline: expected-time ratio vs checkpoint
interval, diskless vs disk-full, optima marked (Fig. 5, Section V-B).

Paper numbers at the operating point (MTBF 3 h, T = 2 days, 4 physical
machines, 12 VMs, 40 ms base overhead):

* diskless cuts expected completion time by ~18% over disk-based;
* diskless overhead ratio ~1% above the fault-free ideal;
* disk-full "adds nearly 20% to the total execution time".

The sweep runs through the ``repro.campaign`` layer: the bench asserts
that the parallel fan-out is bit-identical to both the serial campaign
and the direct :func:`repro.model.fig5` path, measures serial vs
parallel wall-clock (speedup is reported, not claimed — on a 1-core
container it can be < 1; see docs/campaigns.md, "Known limitation").
"""

import time

import numpy as np

from repro.analysis import ascii_plot, format_seconds, render_table
from repro.campaign import ResultStore, run_fig5_campaign
from repro.model import fig5

#: Worker processes for the parallel leg of campaign benches.
PARALLEL_JOBS = 4


def _report_text(result) -> str:
    rows = []
    for s in (result.diskful, result.diskless):
        rows.append([
            s.method,
            format_seconds(s.optimum.interval),
            format_seconds(s.optimum.overhead_at_optimum),
            f"{s.min_ratio:.4f}",
            f"{s.overhead_ratio * 100:.2f}%",
        ])
    table = render_table(
        ["method", "N* (optimal interval)", "T_ov(N*)", "min E[T]/T",
         "overhead ratio"],
        rows,
        title="FIG5 minima ('X' marks)",
    )
    mask = result.diskful.ratios < 2.0
    plot = ascii_plot(
        [
            ("diskless", result.diskless.intervals[mask],
             result.diskless.ratios[mask]),
            ("diskful", result.diskful.intervals[mask],
             result.diskful.ratios[mask]),
        ],
        logx=True,
        title="FIG5 — E[T]/T vs interval (log x)",
        marks=[
            (result.diskless.optimum.interval, result.diskless.min_ratio),
            (result.diskful.optimum.interval, result.diskful.min_ratio),
        ],
    )
    headline = (
        f"\nheadline: diskless reduces E[T] by {result.reduction * 100:.1f}% "
        f"(paper: 18%); diskless overhead {result.diskless.overhead_ratio * 100:.2f}%"
        f" (paper: ~1%); diskful adds {result.diskful.overhead_ratio * 100:.1f}%"
        f" (paper: 'nearly 20%')\n"
    )
    return "\n".join([table, "", plot, headline])


def _fig5_via_campaign():
    result, _ = run_fig5_campaign(jobs=1)
    return result


def test_fig5_sweep(benchmark, report):
    result = benchmark(_fig5_via_campaign)
    report(_report_text(result))
    # shape assertions: who wins, by roughly what factor, where optima fall
    assert 0.14 <= result.reduction <= 0.23
    assert 0.005 <= result.diskless.overhead_ratio <= 0.02
    assert 0.15 <= result.diskful.overhead_ratio <= 0.30
    assert result.diskless.optimum.interval < result.diskful.optimum.interval
    # diskless dominates over the operating range
    mask = (result.diskless.intervals > 10) & (result.diskless.intervals < 1e4)
    assert (result.diskless.ratios[mask] <= result.diskful.ratios[mask] + 1e-9).all()


def test_fig5_campaign_parallel(report, tmp_path):
    """Serial vs parallel campaign: bit-identical output, measured clock.

    Also proves resume semantics on the real sweep: a second run against
    the same store executes zero tasks.
    """
    t0 = time.perf_counter()
    serial, serial_run = run_fig5_campaign(jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel, parallel_run = run_fig5_campaign(jobs=PARALLEL_JOBS)
    parallel_s = time.perf_counter() - t0

    # the acceptance bar: parallel fan-out reproduces the serial series
    # (and the direct model path) bit for bit
    direct = fig5()
    for a, b in ((serial, parallel), (serial, direct)):
        assert np.array_equal(a.diskless.intervals, b.diskless.intervals)
        assert np.array_equal(a.diskless.ratios, b.diskless.ratios)
        assert np.array_equal(a.diskful.ratios, b.diskful.ratios)
        assert a.diskless.optimum.interval == b.diskless.optimum.interval
        assert a.diskful.optimum.interval == b.diskful.optimum.interval

    # resume: second run over a warm store executes nothing
    store = ResultStore(tmp_path / "fig5_store")
    _, cold = run_fig5_campaign(jobs=1, store=store)
    _, warm = run_fig5_campaign(jobs=1, store=store)
    assert cold.n_executed == cold.n_total
    assert warm.n_executed == 0 and warm.n_cached == warm.n_total

    report(
        f"\nFIG5 campaign: {serial_run.n_total} tasks, serial "
        f"{serial_s:.2f}s vs {PARALLEL_JOBS}-way {parallel_s:.2f}s "
        f"(speedup {serial_s / parallel_s:.3f}x, measured); series "
        f"bit-identical; resume re-executed 0 of {warm.n_total} tasks"
    )


def test_fig5_optimum_search_only(benchmark):
    """Micro-bench of the interval optimizer on the diskful curve."""
    from repro.failures import PAPER_LAMBDA
    from repro.model import (
        ClusterModel,
        PAPER_JOB_SECONDS,
        find_optimal_interval,
        overhead_function,
    )

    cluster = ClusterModel()
    ov = overhead_function(cluster, "diskful")
    opt = benchmark(find_optimal_interval, PAPER_LAMBDA, PAPER_JOB_SECONDS, ov)
    assert 500 < opt.interval < 10000
