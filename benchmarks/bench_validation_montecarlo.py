"""VAL-MC — "models to corroborate our equations" (Section VII).

Two corroboration levels:

1. abstract — the closed-form E[T_chk;ov] against the segment-game
   Monte-Carlo, across a (λ, N) grid, executed through the
   ``repro.campaign`` layer as deterministically seeded chunks (serial
   vs parallel wall-clock measured and reported; the two are asserted
   bit-identical);
2. system — the full cluster simulation (real flows, real recoveries)
   against the model prediction at a matched operating point.
"""

import time

import numpy as np

from repro.analysis import format_seconds, render_table
from repro.campaign import run_validate_campaign
from repro.experiments import MethodSpec, run_job_cell
from repro.model import (
    ClusterModel,
    diskful_costs,
    expected_time_with_overhead,
)

PARALLEL_JOBS = 4


def test_valmc_equation_grid(benchmark, report):
    """Closed form vs campaign Monte-Carlo over a (MTBF, interval) grid."""
    T, Tov, Tr = 8 * 3600.0, 120.0, 60.0
    grid = [
        (1 / 1800.0, 600.0),
        (1 / 3600.0, 900.0),
        (1 / 3600.0, 1800.0),
        (1 / 7200.0, 1800.0),
        (1 / 14400.0, 3600.0),
    ]

    def run_grid(jobs=1):
        cases, campaign = run_validate_campaign(
            jobs=jobs, T=T, T_ov=Tov, T_r=Tr, runs=4000, seed=7, cases=grid,
        )
        assert campaign.n_failed == 0
        return cases, campaign

    t0 = time.perf_counter()
    (cases, serial_run) = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    par_cases, _ = run_grid(jobs=PARALLEL_JOBS)
    parallel_s = time.perf_counter() - t0

    # chunk seeding is content-derived: the parallel fan-out merges to
    # the exact same estimates as the serial loop
    for a, b in zip(cases, par_cases):
        assert a["estimate"].mean == b["estimate"].mean
        assert a["estimate"].std_error == b["estimate"].std_error

    rows = []
    all_ok = True
    for case in cases:
        mc = case["estimate"]
        analytic = expected_time_with_overhead(
            case["lam"], T, case["N"], Tov, Tr
        )
        ok = mc.within(analytic)
        all_ok &= ok
        rows.append([
            f"{case['mtbf_h']:.1f}h",
            format_seconds(case["N"]),
            format_seconds(analytic),
            f"{format_seconds(mc.mean)} ± {format_seconds(1.96 * mc.std_error)}",
            "yes" if ok else "NO",
        ])
    report(render_table(
        ["MTBF", "interval", "E[T] closed form", "E[T] Monte-Carlo (95% CI)",
         "agrees (3 sigma)"],
        rows,
        title="VAL-MC — Section V equations vs Monte-Carlo (T = 8 h)",
    ))
    report(
        f"\nVAL-MC campaign: {serial_run.n_total} chunk tasks, serial "
        f"{serial_s:.2f}s vs {PARALLEL_JOBS}-way {parallel_s:.2f}s "
        f"(speedup {serial_s / parallel_s:.3f}x, measured)"
    )
    assert all_ok


def test_valmc_system_level(benchmark, report):
    """Cluster-simulation time ratio vs the model's prediction."""
    work, interval = 2 * 3600.0, 900.0
    node_mtbf = 8 * 3600.0
    lam = 4 / node_mtbf

    def one_run(seed: int) -> float | None:
        # full images: the model's overhead is diskful_costs of whole VMs
        r = run_job_cell(
            MethodSpec("diskful", incremental=False), seed,
            work=work, interval=interval, node_mtbf=node_mtbf,
            repair_time=30.0, n_nodes=4, vms_per_node=3,
        ).result
        return r.time_ratio if r.completed else None

    def replications():
        vals = [one_run(seed) for seed in range(5)]
        return [v for v in vals if v is not None]

    ratios = benchmark.pedantic(replications, rounds=1, iterations=1)
    measured = float(np.mean(ratios))
    t_ov = diskful_costs(ClusterModel(), interval).overhead
    predicted = expected_time_with_overhead(lam, work, interval, t_ov, 30.0) / work
    report(
        f"VAL-MC system level (diskful, 2h job, cluster MTBF 2h): "
        f"simulated E[T]/T = {measured:.3f} over {len(ratios)} runs, "
        f"model = {predicted:.3f} "
        f"(relative error {abs(measured - predicted) / predicted * 100:.0f}%)"
    )
    assert abs(measured - predicted) / predicted < 0.35
