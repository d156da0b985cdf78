"""FIG1 — the first-shot architecture: one VM per node, N data nodes
fanning their checkpoints into one dedicated parity node (Section IV-A).

Regenerates: cost of one coordinated checkpoint epoch and of a
single-node failure recovery under the Fig. 1 layout, showing the
fan-in serialization the later architectures eliminate.
"""

import numpy as np

from repro.analysis import format_bytes, format_seconds, render_table
from repro.core import first_shot

from repro.workloads import scaled_scenario


def _epoch(n_data_nodes: int = 3):
    # the spare (highest) node stays empty to hold parity
    sc = scaled_scenario(n_data_nodes + 1, 1, vm_memory=1e9, seed=11, spares=1)
    ck = first_shot(sc.cluster)
    r = sc.sim.run_process(ck.run_cycle())
    return sc.sim, sc.cluster, ck, r


def test_fig1_checkpoint_epoch(benchmark, report):
    r = benchmark(lambda: _epoch()[3])
    rows = [[
        "first-shot (3+1)",
        format_seconds(r.overhead),
        format_seconds(r.latency),
        format_bytes(r.network_bytes),
        list(r.xor_seconds_by_node),
    ]]
    report(render_table(
        ["architecture", "overhead", "latency", "traffic", "parity nodes"],
        rows,
        title="FIG1 — one epoch, one VM per node, dedicated parity node",
    ))
    # all parity work on the single spare node
    assert list(r.xor_seconds_by_node) == [3]
    # fan-in: 3 x 1 GB into one GbE rx ~ 24 s (serialized), not ~8 s
    assert r.latency > 20.0


def test_fig1_recovery(benchmark, report):
    def scenario():
        sim, cluster, ck, _ = _epoch()
        committed = {
            vm.vm_id: cluster.hypervisor(vm.node_id)
            .committed(vm.vm_id).payload_flat().copy()
            for vm in cluster.all_vms
        }
        cluster.kill_node(0)
        rep = sim.run_process(ck.recover(0))
        ok = all(
            np.array_equal(cluster.vm(v).image.flat, committed[v])
            for v in committed
        )
        return rep, ok

    rep, ok = benchmark(scenario)
    report(
        f"FIG1 recovery: node 0 died; vm reconstructed on node "
        f"{rep.reconstructed.get(0)} in {format_seconds(rep.recovery_time)}; "
        f"bit-exact = {ok}"
    )
    assert ok
    assert 0 in rep.reconstructed
