"""Tests for DVDC with wire compression and migration interplay."""

import numpy as np
import pytest

from repro.checkpoint import CompressionModel
from repro.core import dvdc
from repro.migration import PrecopyModel, live_migrate
from repro.workloads import paper_scenario


class TestDVDCCompression:
    def test_compression_halves_wire_traffic(self):
        sc = paper_scenario(seed=40)
        ck = dvdc(sc.cluster, compression=CompressionModel(ratio=0.5))

        def proc():
            r = yield from ck.run_cycle()
            return r

        r = sc.sim.run_process(proc())
        assert r.network_bytes == pytest.approx(6e9, rel=0.1)
        # XOR still operates on raw bytes
        assert r.parity_bytes == pytest.approx(
            sum(vm.memory_bytes for vm in sc.cluster.all_vms), rel=0.01
        )

    def test_compressed_cycle_still_recovers_bit_exact(self):
        sc = paper_scenario(seed=41)
        ck = dvdc(sc.cluster, compression=CompressionModel(ratio=0.3))
        rng = sc.rngs.stream("w")
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in sc.cluster.all_vms:
                committed[vm.vm_id] = (
                    sc.cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
                vm.image.touch_pages(rng.integers(0, 64, 4), rng)
            sc.cluster.kill_node(0)
            yield from ck.recover(0)

        sc.sim.run_process(proc())
        for vm in sc.cluster.all_vms:
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])

    def test_compression_shortens_latency(self):
        sc_a = paper_scenario(seed=42)
        ck_a = dvdc(sc_a.cluster)
        r_plain = sc_a.sim.run_process(ck_a.run_cycle())

        sc_b = paper_scenario(seed=42)
        ck_b = dvdc(sc_b.cluster, compression=CompressionModel(ratio=0.5))
        r_comp = sc_b.sim.run_process(ck_b.run_cycle())
        assert r_comp.latency < r_plain.latency * 0.7


class TestMigrationInterplay:
    def test_migration_interrupted_by_failure(self):
        """A crash of the destination mid-migration aborts the transfer
        flows; the VM keeps running at the source."""
        sc = paper_scenario(seed=44)
        vm = sc.cluster.vm(0)
        src = vm.node_id

        def proc():
            try:
                yield from live_migrate(sc.cluster, vm, 1)
            except Exception as exc:  # NetworkError via the flow
                return type(exc).__name__

        p = sc.sim.process(proc())
        sc.sim.schedule(2.0, sc.cluster.kill_node, 1)
        sc.sim.run()
        assert p.value == "NetworkError"
        # VM survived at the source, back in RUNNING state
        assert vm.node_id == src
        assert vm.state.value == "running"

    def test_precopy_round_count_monotone_in_dirty_rate(self):
        m = PrecopyModel(bandwidth=125e6, downtime_target_bytes=1e6)
        rounds = [
            m.estimate(1e9, rate).rounds
            for rate in (0.0, 5e6, 25e6, 60e6)
        ]
        assert rounds == sorted(rounds)
