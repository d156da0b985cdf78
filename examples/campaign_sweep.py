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
3. Re-run the campaign on the warm store: it executes zero tasks and
   merges the cached chunk values into the closed-form vs Monte-Carlo
   table.

Run:  python examples/campaign_sweep.py [--runs 4000] [--jobs 2]
"""

import argparse
import tempfile

from repro.analysis import format_seconds, render_table
from repro.campaign import (
    CampaignRunner,
    ResultStore,
    run_validate_campaign,
    validate_tasks,
)


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


def act3_aggregate(store: ResultStore, runs: int) -> None:
    print("=" * 72)
    print("Act 3 — merge cached chunk values into the VAL-MC table")
    print("=" * 72)
    cases, warm = run_validate_campaign(store=store, runs=runs)
    assert warm.n_executed == 0, "the table must come from the store alone"
    chunks = warm.n_total // len(cases)
    rows = [[
        f"{case['mtbf_h']:g}h",
        format_seconds(case["N"]),
        format_seconds(case["closed_form"]),
        format_seconds(case["estimate"].mean),
        chunks,
        "yes" if case["within"] else "NO",
    ] for case in cases]
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
        act3_aggregate(store, args.runs)


if __name__ == "__main__":
    main()
