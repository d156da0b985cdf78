#!/usr/bin/env python
"""Double-failure protection with RDP — past the paper's XOR scheme.

Section II-B2 notes that Wang et al. extended diskless checkpointing
with Row-Diagonal Parity to tolerate two simultaneous failures.  This
example runs that extension end to end on a 6-node cluster:

1. one RDP checkpoint epoch (each group's row AND diagonal parity land
   on two distinct non-member nodes);
2. a *simultaneous two-node crash* — the scenario single-parity DVDC
   cannot survive;
3. full bit-exact recovery of every lost VM;
4. the cost comparison: what the extra nine of protection buys and costs.

Run:  python examples/double_failure_protection.py
"""

import numpy as np

from repro import scaled_scenario
from repro.analysis import format_bytes, format_seconds, render_table
from repro.core import dvdc

GB = 1e9


def build_cluster(seed: int):
    sc = scaled_scenario(6, 2, vm_memory=GB, seed=seed, image_pages=32, page_size=128)
    return sc.sim, sc.cluster, sc.rngs.stream("writes")


def main() -> None:
    sim, cluster, rng = build_cluster(seed=11)
    ck = dvdc(cluster, group_size=3, scheme="rdp")
    layout = ck.layout

    print("RDP groups (members -> row parity node, diagonal parity node):")
    for g in layout.groups:
        nodes = [cluster.vm(v).node_id for v in g.member_vm_ids]
        row_node, diag_node = g.parity_nodes
        print(f"  group {g.group_id}: VMs {list(g.member_vm_ids)} on nodes "
              f"{nodes} -> row@{row_node}, diag@{diag_node}")

    r = sim.run_process(ck.run_cycle())
    print(f"\nRDP epoch: overhead {format_seconds(r.overhead)}, latency "
          f"{format_seconds(r.latency)}, traffic {format_bytes(r.network_bytes)} "
          "(each image ships to two parity nodes)")

    committed = {
        vm.vm_id: cluster.hypervisor(vm.node_id).committed(vm.vm_id)
        .payload_flat().copy()
        for vm in cluster.all_vms
    }
    for vm in cluster.all_vms:
        vm.image.touch_pages(rng.integers(0, 32, 4), rng)

    # the killer scenario: two nodes die in the same instant
    lost_a = cluster.kill_node(1)
    lost_b = cluster.kill_node(4)
    lost_ids = sorted(vm.vm_id for vm in lost_a + lost_b)
    print(f"\nnodes 1 and 4 crashed simultaneously: lost VMs {lost_ids}")
    for g in layout.groups:
        losses = sum(
            1 for v in g.member_vm_ids if cluster.vm(v).node_id is None
        )
        losses += sum(1 for n in g.parity_nodes if not cluster.node(n).alive)
        print(f"  group {g.group_id} lost {losses} shard(s)"
              f"{' — beyond XOR, within RDP' if losses == 2 else ''}")

    rep = sim.run_process(ck.recover(1))
    print(f"\nrecovery: {format_seconds(rep.recovery_time)}; reconstructed "
          f"{dict(rep.reconstructed)}; re-encoded groups {rep.reencoded_groups}")

    ok = all(
        np.array_equal(vm.image.flat, committed[vm.vm_id])
        for vm in cluster.all_vms
    )
    print(f"bit-exact verification: {'PASS' if ok else 'FAIL'}")
    assert ok

    # cost comparison vs single-parity DVDC on an equivalent cluster
    sim2, cluster2, _ = build_cluster(seed=12)
    ck_xor = dvdc(cluster2, group_size=3)
    r_xor = sim2.run_process(ck_xor.run_cycle())
    rows = [
        ["XOR (paper)", "1 node crash", format_bytes(r_xor.network_bytes),
         format_bytes(4 * GB), format_seconds(r_xor.latency)],
        ["RDP (this example)", "ANY 2 node crashes", format_bytes(r.network_bytes),
         format_bytes(8 * GB), format_seconds(r.latency)],
    ]
    print()
    print(render_table(
        ["code", "tolerates", "epoch traffic", "parity memory", "epoch latency"],
        rows,
        title="Protection vs cost (12 x 1 GB VMs, group size 3)",
    ))
    print("\nRDP doubles checkpoint traffic and parity memory in exchange "
          "for surviving any simultaneous pair of node crashes.")


if __name__ == "__main__":
    main()
