"""FIG4 — Distributed Virtual Diskless Checkpointing: rotating parity,
no checkpoint node, all nodes compute (Section IV-B).

Regenerates: the Fig. 4 epoch with its even parity split ("the parity
calculation is evenly distributed automatically"), plus single-failure
recovery on the full 12-VM configuration.
"""

import numpy as np
import pytest

from repro.analysis import format_bytes, format_seconds, render_table
from repro.checkpoint import IncrementalCapture
from repro.core import dvdc

from repro.workloads import scaled_scenario


def _epoch():
    sc = scaled_scenario(4, 3, vm_memory=1e9, seed=31)
    ck = dvdc(sc.cluster)
    r = sc.sim.run_process(ck.run_cycle())
    return sc.sim, sc.cluster, ck, r


def test_fig4_epoch_even_parity_split(report):
    r = _epoch()[3]
    split = {n: format_seconds(t) for n, t in sorted(r.xor_seconds_by_node.items())}
    report(render_table(
        [
            "overhead", "latency", "traffic",
            "XOR max/total", "nodes with parity work",
        ],
        [[
            format_seconds(r.overhead),
            format_seconds(r.latency),
            format_bytes(r.network_bytes),
            f"{r.max_node_xor_seconds / r.total_xor_seconds:.2f}",
            str(split),
        ]],
        title="FIG4 — DVDC epoch (4 nodes x 3 VMs, rotating parity)",
    ))
    # even split: busiest node does exactly 1/4 of the XOR work
    assert r.max_node_xor_seconds == pytest.approx(r.total_xor_seconds / 4)
    assert sorted(r.xor_seconds_by_node) == [0, 1, 2, 3]


def test_fig4_incremental_epoch(report):
    """Steady-state DVDC epoch: only deltas move (Section IV-C)."""
    sc = scaled_scenario(4, 3, vm_memory=1e9, seed=32, image_pages=16,
                         page_size=64)
    sim, cluster = sc.sim, sc.cluster
    ck = dvdc(cluster, strategy=IncrementalCapture())
    sim.run_process(ck.run_cycle())
    rng = np.random.default_rng(0)
    for vm in cluster.all_vms:
        vm.image.touch_pages(rng.integers(0, vm.image.n_pages, 2), rng)
    # advance time so the logical dirty estimate is realistic
    sim.schedule(60.0, lambda: None)
    sim.run()
    r = sim.run_process(ck.run_cycle())
    report(
        f"FIG4 incremental epoch: traffic {format_bytes(r.network_bytes)} "
        f"(full epoch: 12 GiB), latency {format_seconds(r.latency)}"
    )
    assert r.network_bytes < 12e9 / 5


def test_fig4_single_failure_recovery(report):
    sim, cluster, ck, _ = _epoch()
    committed = {
        vm.vm_id: cluster.hypervisor(vm.node_id)
        .committed(vm.vm_id).payload_flat().copy()
        for vm in cluster.all_vms
    }
    cluster.kill_node(1)
    rep = sim.run_process(ck.recover(1))
    ok = all(
        np.array_equal(cluster.vm(v).image.flat, committed[v])
        for v in committed
    )
    report(
        f"FIG4 recovery: lost VMs {sorted(rep.reconstructed)} rebuilt in "
        f"{format_seconds(rep.recovery_time)} "
        f"({format_bytes(rep.network_bytes)} moved, "
        f"{format_bytes(rep.xor_bytes)} XORed); "
        f"{len(rep.rolled_back)} survivors rolled back locally; "
        f"bit-exact = {ok}"
    )
    assert ok
    assert len(rep.reconstructed) == 3
    assert len(rep.rolled_back) == 9
    # no NAS involvement at all
    assert cluster.nas.disk.ops == 0
