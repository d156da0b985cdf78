#!/usr/bin/env python
"""An HPC job surviving repeated node failures — DVDC vs disk-full.

Simulates the paper's motivating workload end to end: a long-running,
gang-scheduled parallel job on the Fig. 4 cluster (4 nodes, 12 VMs),
with Poisson node failures injected from a *shared* failure trace so
the two checkpointing methods face exactly the same crashes (common
random numbers).  VM memories are functional: real pages are dirtied by
a hot/cold working-set process, every checkpoint moves real deltas, and
every recovery is verified bit-exact.

Run:  python examples/hpc_job_survival.py [--work HOURS] [--seeds N]
"""

import argparse

from repro import DiskfulCheckpointer, dvdc
from repro.analysis import format_seconds, render_table, render_timeline
from repro.sim import Tracer
from repro.checkpoint import IncrementalCapture
from repro.failures import Exponential, FailureInjector, FailureSchedule
from repro.workloads import (
    CheckpointedJob,
    HotColdDirty,
    drive_vm,
    paper_scenario,
)


def run_one(kind: str, seed: int, work: float, interval: float,
            node_mtbf: float, repair: float, tracer: Tracer | None = None):
    tracer = tracer if tracer is not None else Tracer(enabled=False)
    sc = paper_scenario(seed=seed, tracer=tracer)
    # one shared trace per seed: both methods see identical crashes
    trace_rng = sc.rngs.stream("failure-trace")
    schedule = FailureSchedule.draw(
        trace_rng, Exponential(1.0 / node_mtbf), sc.cluster.n_nodes,
        horizon=work * 10, repair_time=repair,
    )
    injector = FailureInjector(sc.sim, sc.cluster.n_nodes, schedule=schedule)

    if kind == "dvdc":
        ck = dvdc(sc.cluster, strategy=IncrementalCapture(), tracer=tracer)
    else:
        ck = DiskfulCheckpointer(sc.cluster, tracer=tracer)

    # drive real dirty pages into every VM
    for vm in sc.vms:
        pattern = HotColdDirty(vm.image.n_pages, hot_fraction=0.15, hot_weight=0.85)
        sc.sim.process(
            drive_vm(sc.sim, vm, pattern, sc.rngs.stream(f"dirty/{vm.vm_id}"),
                     touches_per_second=2.0, step=5.0)
        )

    job = CheckpointedJob(sc.cluster, ck, work=work, interval=interval,
                          injector=injector, repair_time=repair)
    injector.start()
    sc.sim.run_process(job.start(), until=work * 20)
    return job.result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--work", type=float, default=4.0, help="job length, hours")
    ap.add_argument("--seeds", type=int, default=3, help="replications")
    ap.add_argument("--interval", type=float, default=600.0, help="ckpt interval, s")
    ap.add_argument("--node-mtbf", type=float, default=4.0, help="per-node MTBF, h")
    args = ap.parse_args()

    work = args.work * 3600.0
    rows = []
    for seed in range(args.seeds):
        for kind in ("dvdc", "diskful"):
            r = run_one(kind, seed, work, args.interval,
                        args.node_mtbf * 3600.0, repair=30.0)
            rows.append([
                seed,
                kind,
                "yes" if r.completed else f"LOST ({r.failure_reason})",
                f"{r.time_ratio:.3f}",
                r.n_failures,
                r.n_recoveries,
                format_seconds(r.checkpoint_time),
                format_seconds(r.recovery_time),
                format_seconds(r.lost_work),
            ])
    print(render_table(
        ["seed", "method", "completed", "T/T_ideal", "failures",
         "recoveries", "ckpt time", "recovery time", "lost work"],
        rows,
        title=f"{args.work:.0f}h job, interval {args.interval:.0f}s, "
              f"node MTBF {args.node_mtbf:.0f}h (cluster MTBF "
              f"{args.node_mtbf / 4:.1f}h), shared failure traces",
    ))
    print("\nReading: identical failure traces per seed — every second of "
          "difference is checkpoint/recovery cost, the paper's Fig. 5 story "
          "at system level.")

    # one traced run rendered as a timeline
    tracer = Tracer()
    run_one("dvdc", 0, work, args.interval, args.node_mtbf * 3600.0, 30.0,
            tracer=tracer)
    print()
    print(render_timeline(
        tracer, width=70,
        title="Timeline of seed-0 DVDC run (c=checkpoint X=failure "
              "R=recovery +=repair h=heal):",
    ))


if __name__ == "__main__":
    main()
