"""FIG5 / TAB-MODEL — the headline: expected-time ratio vs checkpoint
interval, diskless vs disk-full, optima marked (Fig. 5, Section V-B).

Paper numbers at the operating point (MTBF 3 h, T = 2 days, 4 physical
machines, 12 VMs, 40 ms base overhead):

* diskless cuts expected completion time by ~18% over disk-based;
* diskless overhead ratio ~1% above the fault-free ideal;
* disk-full "adds nearly 20% to the total execution time".

The rows come from :func:`repro.model.fig5`: the Section V closed form
over the 240-point interval grid plus both optimum searches.
"""

from repro.analysis import ascii_plot, format_seconds, render_table
from repro.model import fig5


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


def test_fig5_interval_sweep(report):
    result = fig5()
    report(_report_text(result))
    # shape assertions: who wins, by roughly what factor, where optima fall
    assert 0.14 <= result.reduction <= 0.23
    assert 0.005 <= result.diskless.overhead_ratio <= 0.02
    assert 0.15 <= result.diskful.overhead_ratio <= 0.30
    assert result.diskless.optimum.interval < result.diskful.optimum.interval
    assert 500 < result.diskful.optimum.interval < 10000
    # diskless dominates over the operating range
    mask = (result.diskless.intervals > 10) & (result.diskless.intervals < 1e4)
    assert (result.diskless.ratios[mask] <= result.diskful.ratios[mask] + 1e-9).all()
