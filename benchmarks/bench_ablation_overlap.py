"""ABL-OVERLAP — overhead vs latency (Section II-B2's distinction).

"Diskless checkpointing is primarily a method not for reducing
overhead, but latency" — Plank measured a 34x latency improvement.
This ablation separates the two quantities in our system and probes the
store-and-forward assumption of the Section V model: with *overlapped*
execution (work resumes at the capture barrier; transfer/commit run in
the background), how much of the disk-full penalty remains?

Answer (regenerated below): overlap rescues the baseline's failure-free
ratio, but the *latency* gap persists — a longer capture-to-commit
window means more exposed work per failure, and recovery still pays the
NAS fan-out — so diskless keeps winning under failures.
"""


from repro.analysis import format_seconds, render_table
from repro.experiments import MethodSpec, build_epoch_cell, run_job_cell


def _epoch_latency(kind: str):
    r = build_epoch_cell(MethodSpec(kind, incremental=False), 4, 3, seed=8)()
    return r.overhead, r.latency


def _job(kind: str, overlap: bool, seed: int, fail: bool):
    # the fault-free regime's node MTBF lies far past the job's horizon;
    # diskful ships full images, the Section V baseline; DVDC dirty pages
    return run_job_cell(
        MethodSpec(kind, incremental=kind == "dvdc", overlap=overlap), seed,
        work=4 * 3600.0, interval=600.0,
        node_mtbf=6 * 3600.0 if fail else 1e12, repair_time=30.0,
        n_nodes=4, vms_per_node=3,
    ).result


def test_overhead_vs_latency(report):
    """The per-epoch split: both methods pause equally; commit-latency
    differs by an order of magnitude."""
    results = {k: _epoch_latency(k) for k in ("dvdc", "diskful")}
    rows = [
        [k, format_seconds(ov), format_seconds(lat), f"{lat / ov:.0f}x"]
        for k, (ov, lat) in results.items()
    ]
    report(render_table(
        ["method", "overhead (pause)", "latency (usable)", "latency/overhead"],
        rows,
        title="ABL-OVERLAP — overhead vs latency per epoch (full images)",
    ))
    ov_d, lat_d = results["dvdc"]
    ov_f, lat_f = results["diskful"]
    assert ov_d == ov_f  # capture is commensurable (Section V-B)
    assert lat_f > 8 * lat_d  # the diskless latency win


def test_overlapped_execution_ablation(report):
    """Job-level: does overlapping rescue the disk-full baseline?"""
    results = {
        (fail, kind, overlap): _job(kind, overlap, seed=3, fail=fail)
        for fail in (False, True)
        for kind in ("dvdc", "diskful")
        for overlap in (False, True)
    }
    assert all(r.n_failures == 0 for (fail, _, _), r in results.items() if not fail)
    rows = []
    for (fail, kind, overlap), r in results.items():
        rows.append([
            "faulty" if fail else "fault-free",
            kind,
            "overlap" if overlap else "blocking",
            f"{r.time_ratio:.4f}",
            format_seconds(r.lost_work),
        ])
    report(render_table(
        ["regime", "method", "execution", "T/T_ideal", "lost work"],
        rows,
        title="ABL-OVERLAP — 4 h job, identical failure traces",
    ))
    # overlap rescues diskful's failure-free ratio...
    ff = results[(False, "diskful", False)].time_ratio
    fo = results[(False, "diskful", True)].time_ratio
    assert fo < 1.1 < ff
    # ...but under failures DVDC still wins in both execution modes
    for overlap in (False, True):
        assert (
            results[(True, "dvdc", overlap)].wall_time
            < results[(True, "diskful", overlap)].wall_time
        )
