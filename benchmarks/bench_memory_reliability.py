"""TAB-MEMORY / TAB-RELIABILITY — the two quantitative claims outside
Fig. 5: "for a modest memory overhead" (conclusion) and "highly fault
tolerant" (title), made into tables.
"""

from repro.analysis import format_bytes, format_seconds, render_table
from repro.model import (
    ClusterModel,
    SCHEMES,
    compare_codes,
    job_survival_probability,
    scheme_footprint,
)


def test_memory_overhead_table(report):
    m = ClusterModel()
    feet = {s: scheme_footprint(m, s) for s in SCHEMES}
    rows = [
        [
            s,
            format_bytes(f.steady_per_node),
            format_bytes(f.peak_per_node),
            f"{f.overhead_ratio:.2f}x",
        ]
        for s, f in feet.items()
    ]
    report(render_table(
        ["scheme", "steady RAM/node", "peak RAM/node", "cluster overhead"],
        rows,
        title="TAB-MEMORY — RAM cost of each scheme "
              "(4 nodes x 3 x 1 GiB VMs, group size 3)",
    ))
    # the conclusion's claim, quantified: DVDC sits below Plank's 3x
    assert feet["dvdc"].overhead_ratio < feet["diskless_normal"].overhead_ratio
    # and the known honest caveat: raw RAM is comparable to Remus — the
    # DVDC win over Remus is hosting (no dedicated standby capacity),
    # not bytes
    assert feet["dvdc"].overhead_ratio < feet["dvdc_rdp"].overhead_ratio


def test_reliability_table(report):
    """MTTDL and job survival, XOR vs RDP, across failure densities."""
    n, wall = 4, 48 * 3600.0
    window = 120.0  # recovery + degraded interval until heal
    results = [
        (mtbf_h, compare_codes(1.0 / (mtbf_h * 3600.0), n, wall, window))
        for mtbf_h in (1.0, 4.0, 12.0, 48.0)
    ]
    rows = []
    for mtbf_h, c in results:
        rows.append([
            f"{mtbf_h:g}h",
            format_seconds(c.mttdl_xor),
            format_seconds(c.mttdl_rdp),
            f"{c.mttdl_gain:.0f}x",
            f"{c.survival_xor * 100:.1f}%",
            f"{c.survival_rdp * 100:.2f}%",
        ])
    report(render_table(
        ["node MTBF", "MTTDL (XOR)", "MTTDL (RDP)", "gain",
         "48h job survives (XOR)", "(RDP)"],
        rows,
        title=f"TAB-RELIABILITY — 4 nodes, vulnerability window "
              f"{window:.0f}s",
    ))
    for _, c in results:
        assert c.mttdl_rdp > 10 * c.mttdl_xor
        assert c.survival_rdp > c.survival_xor


def test_window_sensitivity(report):
    """Why heal() matters: survival vs the degraded-window length."""
    lam, n, wall = 1.0 / (4 * 3600.0), 4, 24 * 3600.0
    results = [
        (w, job_survival_probability(lam, n, wall, w, 1))
        for w in (30.0, 60.0, 120.0, 300.0, 600.0, 1800.0)
    ]
    rows = [[format_seconds(w), f"{p * 100:.1f}%"] for w, p in results]
    report(render_table(
        ["vulnerability window", "24h job survival (XOR)"],
        rows,
        title="TAB-RELIABILITY — shrinking the degraded window "
              "(the heal/rebalance payoff)",
    ))
    ps = [p for _, p in results]
    assert ps == sorted(ps, reverse=True)
