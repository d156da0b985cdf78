"""ABL-PARITY — erasure-code ablation: XOR (the paper's choice) vs RDP
(the Section II-B2 extension for double failures).

Regenerates: the space/tolerance trade-off table of the two codecs the
checkpointer runs; the raw in-memory XOR bandwidth check behind the
analytical model's ``memory_xor_bandwidth``; and RDP surviving a
simultaneous 2-node crash end to end.
"""

import numpy as np

from repro.analysis import format_bytes, render_table
from repro.cluster import measure_xor_bandwidth
from repro.coding import get_scheme

MEMBERS = 3
NBYTES = 1 << 20  # 1 MiB per member


def test_parity_tradeoff_table(report):
    """The space/tolerance trade-off the paper's design section weighs."""
    rng = np.random.default_rng(0)
    members = [rng.integers(0, 256, NBYTES, dtype=np.uint8) for _ in range(MEMBERS)]
    xor_parity = get_scheme("xor").encode(members)
    rdp_parity = get_scheme("rdp").encode(members)
    data_bytes = MEMBERS * NBYTES
    rows = [
        ["XOR (paper)", 1, "1 of k+1",
         format_bytes(sum(p.nbytes for p in xor_parity)),
         f"{sum(p.nbytes for p in xor_parity) / data_bytes * 100:.1f}%"],
        ["RDP (Wang et al.)", 2, "any 2",
         format_bytes(sum(p.nbytes for p in rdp_parity)),
         f"{sum(p.nbytes for p in rdp_parity) / data_bytes * 100:.1f}%"],
    ]
    report(render_table(
        ["code", "parity shards", "tolerates", "parity bytes (k=3, 1 MiB)",
         "space overhead"],
        rows,
        title="ABL-PARITY — code trade-off",
    ))


def test_raw_xor_bandwidth_calibration(report):
    """Measures this host's streaming XOR rate — the quantity the paper
    calls 'orders-of-magnitude faster than a disk write'."""
    bw = measure_xor_bandwidth(1 << 24, repeats=3)
    disk_bw = 120e6
    report(
        f"ABL-PARITY calibration: in-memory XOR ≈ {format_bytes(bw)}/s on "
        f"this host — {bw / disk_bw:.0f}x a 120 MB/s disk write "
        "(paper: 'orders-of-magnitude faster')"
    )
    assert bw > 10 * disk_bw


def test_rdp_protocol_double_failure(report):
    """ABL-RDP: the double-parity protocol surviving a simultaneous
    2-node crash end to end (the scenario XOR cannot)."""
    from repro.core import dvdc

    from repro.workloads import scaled_scenario

    sc = scaled_scenario(6, 2, vm_memory=1e9, seed=9)
    sim, cluster = sc.sim, sc.cluster
    ck = dvdc(cluster, group_size=3, scheme="rdp")
    sim.run_process(ck.run_cycle())
    committed = {
        vm.vm_id: cluster.hypervisor(vm.node_id)
        .committed(vm.vm_id).payload_flat().copy()
        for vm in cluster.all_vms
    }
    cluster.kill_node(0)
    cluster.kill_node(1)
    rep = sim.run_process(ck.recover(0))
    ok = all(
        np.array_equal(cluster.vm(v).image.flat, committed[v])
        for v in committed
    )
    report(
        f"ABL-RDP: simultaneous crash of 2 nodes; {len(rep.reconstructed)} "
        f"VMs rebuilt + {len(rep.reencoded_groups)} groups re-encoded in "
        f"{rep.recovery_time:.1f}s; bit-exact = {ok}"
    )
    assert ok
