"""ABL-SCALE — the linear-distribution claim (Section IV-B / V-B).

"The parallelization of the parity calculation should relieve the CPU
burden by a factor linear in the amount of machines" and "the network
step for DVDC is sped up by a factor roughly linear in the number of
machines".  Regenerates both scalings: per-node XOR time and epoch
latency as the cluster grows, DVDC vs the dedicated-checkpoint-node
architecture, at fixed per-node VM density.
"""

import pytest

from repro.analysis import format_seconds, render_table
from repro.cluster import ClusterSpec, VirtualCluster
from repro.core import checkpoint_node, dvdc
from repro.model import ClusterModel, diskful_costs, diskless_costs
from repro.sim import Simulator


VMS_PER_NODE = 2
VM_BYTES = 1e9


def _epoch(n_nodes: int, dedicated: bool):
    sim = Simulator()
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes + (1 if dedicated else 0)))
    for i in range(n_nodes * VMS_PER_NODE):
        cluster.create_vm(i % n_nodes, VM_BYTES)
    if dedicated:
        ck = checkpoint_node(cluster, node_id=n_nodes, group_size=min(3, n_nodes))
    else:
        ck = dvdc(cluster, group_size=min(3, n_nodes - 1))
    return sim.run_process(ck.run_cycle())


def test_scaling_dvdc_vs_dedicated(report):
    sizes = [2, 4, 8, 16]
    results = {
        n: (_epoch(n, dedicated=False), _epoch(n, dedicated=True))
        for n in sizes
    }
    rows = []
    for n, (r_dvdc, r_ded) in results.items():
        rows.append([
            n,
            format_seconds(r_dvdc.latency),
            format_seconds(r_dvdc.max_node_xor_seconds),
            format_seconds(r_ded.latency),
            format_seconds(r_ded.max_node_xor_seconds),
            f"{r_ded.latency / r_dvdc.latency:.1f}x",
        ])
    report(render_table(
        ["nodes", "DVDC latency", "DVDC XOR/node",
         "dedicated latency", "dedicated XOR (one node)", "DVDC speedup"],
        rows,
        title=f"ABL-SCALE — epoch cost vs cluster size ({VMS_PER_NODE} x 1 GB "
              "VMs per node)",
    ))
    # DVDC: per-node XOR time constant as the cluster grows (linear relief)
    dvdc_xors = [results[n][0].max_node_xor_seconds for n in sizes]
    assert max(dvdc_xors) / min(dvdc_xors) < 1.6
    # dedicated: XOR on the single node grows linearly with cluster size
    ded_xors = [results[n][1].max_node_xor_seconds for n in sizes]
    assert ded_xors[-1] / ded_xors[0] == pytest.approx(
        sizes[-1] / sizes[0], rel=0.3
    )
    # DVDC latency roughly flat; dedicated latency grows with n
    dvdc_lat = [results[n][0].latency for n in sizes]
    assert max(dvdc_lat) / min(dvdc_lat) < 2.0
    ded_lat = [results[n][1].latency for n in sizes]
    assert ded_lat[-1] > 4 * ded_lat[0]


def test_scaling_analytical_model(report):
    """Same claim in the closed-form model: diskful overhead grows with
    cluster size (NAS fan-in), diskless stays flat."""
    results = []
    for n in (2, 4, 8, 16, 32, 64):
        m = ClusterModel(n_nodes=n)
        results.append((
            n,
            diskful_costs(m, 600.0).overhead,
            diskless_costs(m, 600.0).overhead,
        ))
    rows = [
        [n, format_seconds(df), format_seconds(dl), f"{df / dl:.0f}x"]
        for n, df, dl in results
    ]
    report(render_table(
        ["nodes", "diskful T_ov", "diskless T_ov", "ratio"],
        rows,
        title="ABL-SCALE — analytical overhead vs cluster size "
              "(3 VMs/node, interval 600 s)",
    ))
    diskful = [df for _, df, _ in results]
    diskless = [dl for _, _, dl in results]
    assert diskful[-1] / diskful[0] > 20  # fan-in scales with total VMs
    assert diskless[-1] / diskless[0] < 1.2  # per-node cost flat
