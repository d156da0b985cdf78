#!/usr/bin/env python
"""Campaign orchestration: the Monte-Carlo validation grid, parallel and
resumable.

1. Declare the VAL-MC grid (the Section V closed form against a
   Monte-Carlo estimate at four MTBFs) as chunked ``mc_chunk`` tasks,
   run it serially and with a 2-way process fan-out, and verify the
   merged estimates are bit-identical — the deterministic-seeding
   guarantee.
2. Attach an on-disk `ResultStore` and run the campaign twice: the
   second invocation executes zero tasks (pure cache hits), the resume
   guarantee.
3. Merge the cached chunk values back into one estimate per case and
   print the closed-form vs Monte-Carlo table.

Run:  python examples/campaign_sweep.py [--runs 4000] [--jobs 2]
"""

import argparse
import tempfile

from repro.analysis import format_seconds, render_table
from repro.campaign import (
    CampaignRunner,
    ResultStore,
    mc_estimate_from_values,
    run_validate_campaign,
    validate_tasks,
)
from repro.model import expected_time_with_overhead


def act1_parallel_equals_serial(runs: int, jobs: int) -> None:
    print("=" * 72)
    print(f"Act 1 — VAL-MC grid, {runs} runs per case: serial vs {jobs}-way fan-out")
    print("=" * 72)
    serial, serial_run = run_validate_campaign(jobs=1, runs=runs)
    parallel, parallel_run = run_validate_campaign(jobs=jobs, runs=runs)
    print(serial_run.summary_table("serial campaign"))
    print(parallel_run.summary_table(f"{jobs}-way campaign"))
    for a, b in zip(serial, parallel):
        assert a["estimate"].mean == b["estimate"].mean
        assert a["estimate"].std_error == b["estimate"].std_error
    print("PASS: parallel estimates bit-identical to serial\n")


def act2_resume(runs: int, store_dir: str) -> ResultStore:
    print("=" * 72)
    print("Act 2 — resumable store: second run executes zero tasks")
    print("=" * 72)
    store = ResultStore(store_dir)
    _, tasks = validate_tasks(runs=runs)
    cold = CampaignRunner(store=store, jobs=1).run(tasks)
    warm = CampaignRunner(store=store, jobs=1).run(tasks)
    print(cold.summary_table("cold run"))
    print(warm.summary_table("warm run (resumed)"))
    assert cold.n_executed == cold.n_total
    assert warm.n_executed == 0 and warm.n_cached == warm.n_total
    print(f"PASS: resume served {warm.n_cached}/{warm.n_total} tasks "
          f"from {store.path}\n")
    return store


def act3_aggregate(store: ResultStore) -> None:
    print("=" * 72)
    print("Act 3 — merge cached chunk values into the VAL-MC table")
    print("=" * 72)
    cases = {}  # master seed -> (params of its first chunk, chunk values)
    for rec in store.records("mc_chunk"):
        p = rec["task"]["params"]
        cases.setdefault(p["master_seed"], (p, []))[1].append(rec["value"])
    rows = []
    for p, values in cases.values():
        mc = mc_estimate_from_values(values)
        analytic = expected_time_with_overhead(
            p["lam"], p["T"], p["N"], p["T_ov"], p["T_r"]
        )
        rows.append([
            f"{1.0 / p['lam'] / 3600.0:g}h",
            format_seconds(p["N"]),
            format_seconds(analytic),
            format_seconds(mc.mean),
            len(values),
            "yes" if mc.within(analytic) else "NO",
        ])
    print(render_table(
        ["MTBF", "interval", "closed form", "Monte-Carlo", "chunks",
         "within 3 sigma"],
        rows,
        title="Section V equations vs Monte-Carlo, rebuilt from the result store",
    ))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=4000,
                    help="Monte-Carlo runs per case (512 per chunk)")
    ap.add_argument("--jobs", type=int, default=2,
                    help="parallel workers for act 1")
    args = ap.parse_args()
    act1_parallel_equals_serial(args.runs, args.jobs)
    with tempfile.TemporaryDirectory() as tmp:
        store = act2_resume(args.runs, tmp)
        act3_aggregate(store)


if __name__ == "__main__":
    main()
