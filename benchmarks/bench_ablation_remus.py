"""ABL-REMUS — the Section VI comparison: DVDC vs Remus.

Regenerates the qualitative trade-off table the related-work section
argues: Remus resumes instantly after failure (losing only ~1.5 epochs
of speculative work) but pays a continuous replication overhead and a
full standby image per VM; DVDC pays at checkpoint instants, stores one
parity image per group, and must roll the cluster back on failure.
"""


from repro.analysis import format_bytes, format_seconds, render_table
from repro.checkpoint import RemusModel, RemusPair
from repro.cluster import ClusterSpec, VirtualCluster
from repro.core import dvdc
from repro.model import (
    ClusterModel,
    PAPER_JOB_SECONDS,
    find_optimal_interval,
    overhead_function,
)
from repro.failures import PAPER_LAMBDA
from repro.sim import Simulator
from repro.workloads import scaled_scenario


GB = 1e9


def test_remus_vs_dvdc_tradeoff_table(benchmark, report):
    """Steady-state overhead + failure cost for both schemes across
    dirty rates (12 x 1 GB VMs, GbE)."""

    def build():
        rows = []
        remus = RemusModel(epoch_length=25e-3, bandwidth=125e6)
        cluster = ClusterModel()
        for dirty_mb in (0.2, 2.0, 20.0, 100.0):
            rate = dirty_mb * 1e6
            m = cluster.with_(vm_dirty_rate=rate)
            opt = find_optimal_interval(
                PAPER_LAMBDA, PAPER_JOB_SECONDS,
                overhead_function(m, "diskless"),
            )
            dvdc_overhead_frac = opt.expected_ratio - 1.0
            dvdc_loss = opt.interval / 2.0  # mean rollback at failure
            remus_frac = remus.overhead_fraction(rate, GB)
            rows.append((
                dirty_mb, remus_frac, remus.speculation_loss(),
                dvdc_overhead_frac, dvdc_loss,
            ))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table = [
        [
            f"{d:g} MB/s",
            f"{rf * 100:.1f}%",
            format_seconds(rl),
            f"{df * 100:.2f}%",
            format_seconds(dl),
        ]
        for d, rf, rl, df, dl in rows
    ]
    report(render_table(
        ["VM dirty rate", "Remus overhead", "Remus loss@failure",
         "DVDC overhead (optimal N)", "DVDC loss@failure"],
        table,
        title="ABL-REMUS — runtime overhead vs lost work (Section VI)",
    ))
    # the qualitative shape: Remus loses less at failure, DVDC runs cheaper
    for d, rf, rl, df, dl in rows:
        assert rl < dl  # Remus failure loss always smaller
    assert rows[0][3] < rows[0][1]  # DVDC cheaper at low dirty rates

    # memory cost comparison: full standby image per VM vs parity per group
    remus_mem = 12 * GB
    dvdc_mem = 4 * GB  # 4 groups x 1 parity image
    report(
        f"standby memory for 12 x 1 GB VMs: Remus {format_bytes(remus_mem)} "
        f"vs DVDC parity {format_bytes(dvdc_mem)} (+ local checkpoints)"
    )


def test_remus_failover_vs_dvdc_recovery_sim(benchmark, report):
    """Simulated failure handling: Remus failover is instant; DVDC must
    roll back and XOR-rebuild."""

    def scenario():
        # Remus pair
        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=2))
        vm = cluster.create_vm(0, GB, dirty_rate=5e6)
        pair = RemusPair(cluster, vm, standby_node_id=1,
                         model=RemusModel(epoch_length=0.05, bandwidth=125e6))
        proc = sim.process(pair.protect())
        sim.run(until=2.0)
        cluster.kill_node(0)
        proc.interrupt()
        sim.run()
        t0 = sim.now
        lost = pair.failover()
        remus_resume = sim.now - t0  # instantaneous

        # DVDC recovery on the paper cluster
        sc = scaled_scenario(4, 3, vm_memory=1e9, seed=5)
        sim2, cluster2 = sc.sim, sc.cluster
        ck = dvdc(cluster2)
        sim2.run_process(ck.run_cycle())
        cluster2.kill_node(0)
        t1 = sim2.now
        rep = sim2.run_process(ck.recover(0))
        return lost, remus_resume, rep.recovery_time

    lost, remus_resume, dvdc_recovery = benchmark.pedantic(
        scenario, rounds=1, iterations=1
    )
    report(
        f"ABL-REMUS failure handling: Remus resumes in "
        f"{format_seconds(remus_resume)} losing {format_seconds(lost)} of "
        f"speculation; DVDC recovery takes {format_seconds(dvdc_recovery)} "
        "(rollback + reconstruction) — the Section VI distinction."
    )
    assert remus_resume == 0.0
    assert dvdc_recovery > 1.0
