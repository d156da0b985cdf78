"""FIG2 — orthogonal RAID survives controller (node) failure.

Fig. 2's claim, transplanted to VMs: grid each RAID group across
physical nodes so any single node failure costs each group at most one
element.  Regenerates the survivability matrix: every single-node crash
is recoverable under XOR; double crashes need RDP-class codes.
"""

from repro.analysis import render_table
from repro.core import (
    build_orthogonal_layout,
    survives_single_node_failure,
    tolerable_node_failure_sets,
    validate_layout,
)

from repro.workloads import scaled_scenario


def _survivability(n_nodes: int, vms_per_node: int):
    cluster = scaled_scenario(n_nodes, vms_per_node, vm_memory=1e9, seed=2).cluster
    layout = build_orthogonal_layout(cluster, group_size=n_nodes - 1)
    ok = validate_layout(layout, cluster).ok
    single = survives_single_node_failure(layout, cluster, tolerance=1)
    surv1, fatal1 = tolerable_node_failure_sets(layout, cluster, 1, max_set=2)
    surv2, fatal2 = tolerable_node_failure_sets(layout, cluster, 2, max_set=2)
    return {
        "valid": ok,
        "single_ok": single,
        "doubles_fatal_xor": len([c for c in fatal1 if len(c) == 2]),
        "doubles_fatal_rdp": len([c for c in fatal2 if len(c) == 2]),
        "n_groups": len(layout),
    }


def test_fig2_survivability_matrix(report):
    configs = [(4, 3), (5, 4), (8, 2), (6, 6)]
    results = {cfg: _survivability(*cfg) for cfg in configs}
    rows = []
    for (n, v), r in results.items():
        rows.append([
            f"{n}x{v}",
            r["n_groups"],
            "yes" if r["single_ok"] else "NO",
            r["doubles_fatal_xor"],
            r["doubles_fatal_rdp"],
        ])
    report(render_table(
        ["cluster (nodes x VMs)", "groups", "any 1-node crash survivable "
         "(XOR)", "fatal 2-node pairs (XOR)", "fatal 2-node pairs (RDP)"],
        rows,
        title="FIG2 — orthogonal placement survivability",
    ))
    for r in results.values():
        assert r["valid"] and r["single_ok"]
        assert r["doubles_fatal_rdp"] == 0  # RDP-tolerance saves all pairs


def test_fig2_layout_construction_speed():
    """Layout building works at scale (placement is on the recovery path
    via rebalance): a 32-node, 128-VM layout validates."""
    cluster = scaled_scenario(32, 4, vm_memory=1e9, seed=3).cluster
    layout = build_orthogonal_layout(cluster, 8)
    assert validate_layout(layout, cluster).ok


def test_fig2_rack_domain_extension(report):
    """FIG2 extension: the controller argument lifted to racks.

    Domain-aware placement lets single XOR parity survive a *whole-rack*
    (multi-node simultaneous) crash; naive node-orthogonal placement
    does not.
    """
    import numpy as np

    from repro.core import DisklessCheckpointer, validate_layout
    from repro.failures import racks

    sc = scaled_scenario(6, 2, vm_memory=1e9, seed=4)
    sim, cluster = sc.sim, sc.cluster
    domains = racks(6, 2)
    layout = build_orthogonal_layout(cluster, group_size=2, domains=domains)
    ok_aware = validate_layout(layout, cluster, domains=domains).ok
    naive = build_orthogonal_layout(cluster, group_size=3)
    ok_naive = validate_layout(naive, cluster, domains=domains).ok
    # functional proof: kill rack 1 (nodes 2+3), recover bit-exact
    ck = DisklessCheckpointer(cluster, layout)
    sim.run_process(ck.run_cycle())
    committed = {
        vm.vm_id: cluster.hypervisor(vm.node_id)
        .committed(vm.vm_id).payload_flat().copy()
        for vm in cluster.all_vms
    }
    cluster.kill_node(2)
    cluster.kill_node(3)
    sim.run_process(ck.recover(2))
    sim.run_process(ck.recover(3))
    exact = all(
        np.array_equal(cluster.vm(v).image.flat, committed[v])
        for v in committed
    )
    report(
        "FIG2-RACKS — 3 racks x 2 nodes: rack-aware layout valid at rack "
        f"tolerance = {ok_aware}; naive node-layout valid = {ok_naive}; "
        f"whole-rack crash recovered bit-exact under XOR = {exact}"
    )
    assert ok_aware and not ok_naive and exact
