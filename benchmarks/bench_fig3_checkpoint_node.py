"""FIG3 — orthogonal RAID with a dedicated checkpointing node.

Regenerates the Fig. 3 configuration (3 compute nodes x 3 VMs, one
checkpoint node holding every group's parity) and contrasts it with the
Fig. 4 rotation: same protocol, different parity placement, and the
dedicated node's rx link + XOR engine become the bottleneck.
"""

from repro.analysis import format_bytes, format_seconds, render_table
from repro.core import checkpoint_node, dvdc

from repro.workloads import scaled_scenario


def _fig3_epoch():
    # node 3 stays empty -> dedicated checkpoint node, 9 protected VMs
    sc = scaled_scenario(4, 3, vm_memory=1e9, seed=21, spares=1)
    ck = checkpoint_node(sc.cluster, node_id=3)
    r = sc.sim.run_process(ck.run_cycle())
    return sc.cluster, ck, r


def _fig4_epoch(n_vms: int = 9):
    sc = scaled_scenario(4, 3, vm_memory=1e9, seed=21)
    sim, cluster = sc.sim, sc.cluster
    # keep only n_vms so both architectures protect the same count
    for vm in list(cluster.all_vms)[n_vms:]:
        cluster.node(vm.node_id).evict(vm)
        del cluster.vms[vm.vm_id]
    ck = dvdc(cluster, group_size=3)
    r = sim.run_process(ck.run_cycle())
    return cluster, ck, r


def test_fig3_epoch(report):
    cluster, ck, r3 = _fig3_epoch()
    _, _, r4 = _fig4_epoch()
    rows = [
        ["Fig.3 dedicated node", format_seconds(r3.overhead),
         format_seconds(r3.latency), format_bytes(r3.network_bytes),
         f"{len(r3.xor_seconds_by_node)} node(s)"],
        ["Fig.4 DVDC (same 9 VMs)", format_seconds(r4.overhead),
         format_seconds(r4.latency), format_bytes(r4.network_bytes),
         f"{len(r4.xor_seconds_by_node)} node(s)"],
    ]
    report(render_table(
        ["architecture", "overhead", "latency", "traffic", "parity spread"],
        rows,
        title="FIG3 vs FIG4 — same protocol, different parity placement",
    ))
    # parity concentrated on the dedicated node
    assert list(r3.xor_seconds_by_node) == [3]
    assert len(cluster.node(3).parity_store) == len(ck.layout)
    # the fan-in makes Fig.3 strictly slower than the Fig.4 rotation
    assert r3.latency > r4.latency


def test_fig3_dedicated_node_loss_recovers_parity(report):
    """Losing the checkpoint node loses ALL parity but no data: every
    group re-encodes; no VM state is touched."""
    sc = scaled_scenario(4, 3, vm_memory=1e9, seed=22, spares=1)
    ck = checkpoint_node(sc.cluster, node_id=3)
    sc.sim.run_process(ck.run_cycle())
    sc.cluster.kill_node(3)
    rep = sc.sim.run_process(ck.recover(3))
    report(
        f"FIG3 checkpoint-node crash: {len(rep.reencoded_groups)} groups "
        f"re-encoded in {format_seconds(rep.recovery_time)}, "
        f"{len(rep.reconstructed)} VMs rebuilt (expected 0)"
    )
    assert len(rep.reencoded_groups) == 3
    assert rep.reconstructed == {}
