#!/usr/bin/env python
"""Quickstart: the paper in three acts.

1. Reproduce the Fig. 5 headline analytically: at their optimal
   checkpoint intervals, diskless (DVDC) checkpointing cuts the expected
   completion time of a 2-day job on a 3h-MTBF cluster by ~18% versus
   disk-full checkpointing, with ~1% overhead over the fault-free ideal.
2. Run one functional DVDC checkpoint epoch on a simulated 4-node /
   12-VM cluster (Fig. 4 layout) and show the cost accounting.
3. Kill a node and recover every lost VM bit-exactly from XOR parity.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import dvdc, fig5, paper_scenario
from repro.analysis import format_bytes, format_seconds, render_table


def act1_analytical_headline() -> None:
    print("=" * 72)
    print("Act 1 — Fig. 5, analytically (MTBF 3h, job 2 days, 4 nodes, 12 VMs)")
    print("=" * 72)
    result = fig5()
    rows = []
    for series in (result.diskful, result.diskless):
        o = series.optimum
        rows.append(
            [
                series.method,
                format_seconds(o.interval),
                format_seconds(o.overhead_at_optimum),
                f"{o.expected_ratio:.4f}",
                f"{series.overhead_ratio * 100:.2f}%",
            ]
        )
    print(render_table(
        ["method", "optimal interval", "T_ov at optimum", "E[T]/T", "overhead"],
        rows,
    ))
    print(f"\n  -> diskless reduces expected completion time by "
          f"{result.reduction * 100:.1f}% (paper: 18%)\n")


def act2_functional_epoch():
    print("=" * 72)
    print("Act 2 — one DVDC checkpoint epoch on a functional cluster")
    print("=" * 72)
    sc = paper_scenario(seed=1)
    ck = dvdc(sc.cluster)
    print("RAID groups (members -> parity node):")
    for g in ck.layout.groups:
        nodes = [sc.cluster.vm(v).node_id for v in g.member_vm_ids]
        print(f"  group {g.group_id}: VMs {list(g.member_vm_ids)} on nodes "
              f"{nodes} -> parity on node {g.parity_node}")

    r = sc.sim.run_process(ck.run_cycle())
    print(f"\nepoch {r.epoch}: overhead (guest pause) = {format_seconds(r.overhead)}"
          f", latency (usable) = {format_seconds(r.latency)}")
    print(f"network traffic = {format_bytes(r.network_bytes)}, "
          f"XOR work spread over nodes: "
          f"{ {n: format_seconds(t) for n, t in sorted(r.xor_seconds_by_node.items())} }\n")
    return sc, ck


def act3_failure_and_recovery(sc, ck) -> None:
    print("=" * 72)
    print("Act 3 — node crash and bit-exact parity recovery")
    print("=" * 72)
    rng = np.random.default_rng(0)
    committed = {}
    for vm in sc.cluster.all_vms:
        committed[vm.vm_id] = (
            sc.cluster.hypervisor(vm.node_id).committed(vm.vm_id)
            .payload_flat().copy()
        )
        # work happens after the checkpoint (it will be rolled back)
        vm.image.touch_pages(rng.integers(0, vm.image.n_pages, 5), rng)

    lost = sc.cluster.kill_node(2)
    print(f"node 2 crashed: lost VMs {[vm.vm_id for vm in lost]} "
          "(their memory, checkpoints, and parity are gone)")

    rep = sc.sim.run_process(ck.recover(2))
    print(f"recovery took {format_seconds(rep.recovery_time)}: "
          f"reconstructed {dict(rep.reconstructed)} (vm -> new node), "
          f"{len(rep.rolled_back)} survivors rolled back in-memory")

    ok = all(
        np.array_equal(vm.image.flat, committed[vm.vm_id])
        for vm in sc.cluster.all_vms
    )
    print(f"bit-exact verification: {'PASS' if ok else 'FAIL'} — every VM "
          "matches its last committed checkpoint")
    assert ok


if __name__ == "__main__":
    act1_analytical_headline()
    sc, ck = act2_functional_epoch()
    act3_failure_and_recovery(sc, ck)
