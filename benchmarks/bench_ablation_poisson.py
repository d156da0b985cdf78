"""ABL-POISSON — does the Poisson assumption matter? (Section V caveat)

"Though we can imagine cases where the Poisson assumption may not hold
even on single computers (cf. the 'bathtub curve' model...), it is
often used as a basis for fundamental design decisions due to its
mathematical tractability."

Regenerates: the exponential closed form vs a renewal-process
Monte-Carlo under Weibull (Schroeder–Gibson's HPC fit), lognormal, and
bathtub failures at the same MTBF — at the paper's operating point and
at a pathologically failure-dense one.
"""

import numpy as np

from repro.analysis import format_seconds, render_table
from repro.failures import Bathtub, Exponential, LogNormal, Weibull
from repro.model import poisson_sensitivity

T, N, TOV, TR = 8 * 3600.0, 1200.0, 120.0, 60.0


def _distributions(mtbf: float):
    return [
        ("exponential (model)", Exponential(1.0 / mtbf)),
        ("weibull k=0.7 (HPC logs)", Weibull.from_mtbf(mtbf, 0.7)),
        ("weibull k=1.5 (wear-out)", Weibull.from_mtbf(mtbf, 1.5)),
        ("lognormal cv=1.5", LogNormal.from_mean_cv(mtbf, 1.5)),
        ("bathtub", Bathtub.typical(mtbf)),
    ]


def test_poisson_sensitivity_paper_regime(report):
    mtbf = 3 * 3600.0  # the paper's operating point
    rng = np.random.default_rng(11)
    results = [
        poisson_sensitivity(rng, d, T, N, TOV, TR, n_runs=2500, label=lbl)
        for lbl, d in _distributions(mtbf)
    ]
    rows = [
        [
            r.label,
            format_seconds(r.mtbf),
            format_seconds(r.analytic_exponential),
            format_seconds(r.measured_mean),
            f"{r.relative_error * 100:+.1f}%",
        ]
        for r in results
    ]
    report(render_table(
        ["failure distribution", "MTBF", "Poisson closed form",
         "renewal Monte-Carlo", "model error"],
        rows,
        title="ABL-POISSON — MTBF 3 h, 8 h job, N=20 min "
              "(the paper's regime: N + T_ov << MTBF)",
    ))
    # the tractability gamble pays off here: every distribution within 5%
    for r in results:
        assert abs(r.relative_error) < 0.05


def test_poisson_sensitivity_dense_regime(report):
    mtbf = 1800.0  # 30 min — segments no longer << MTBF
    rng = np.random.default_rng(13)
    results = [
        poisson_sensitivity(rng, d, T, N, TOV, TR, n_runs=2000, label=lbl)
        for lbl, d in _distributions(mtbf)
    ]
    rows = [
        [r.label, f"{r.relative_error * 100:+.1f}%"] for r in results
    ]
    report(render_table(
        ["failure distribution", "model error"],
        rows,
        title="ABL-POISSON — MTBF 30 min (dense-failure stress): the "
              "assumption starts to crack",
    ))
    # heavy-tailed/infant-mortality distributions now deviate visibly
    worst = max(abs(r.relative_error) for r in results)
    assert worst > 0.03
