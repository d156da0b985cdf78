"""Tests for failure domains: rack-correlated crashes and domain-aware
placement (Fig. 2's controller argument lifted to racks)."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, VirtualCluster
from repro.core import (
    DisklessCheckpointer,
    build_orthogonal_layout,
    LayoutError,
    validate_layout,
)
from repro.failures import (
    FailureDomainMap,
    FailureEvent,
    FailureInjector,
    FailureSchedule,
    racks,
)
from repro.sim import Simulator
from repro.workloads import CheckpointedJob

from conftest import spread_vms


def _rack_cluster(n_racks=3, nodes_per_rack=2, vms_per_node=2, seed=50):
    sim = Simulator()
    n_nodes = n_racks * nodes_per_rack
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
    rng = np.random.default_rng(seed)
    for vm in spread_vms(
        cluster, n_nodes * vms_per_node, 1e9, image_pages=16, page_size=64
    ):
        vm.image.write(0, rng.integers(0, 256, 512, dtype=np.uint8))
        vm.image.clear_dirty()
    return sim, cluster, racks(n_nodes, nodes_per_rack), rng


class TestDomainMap:
    def test_racks_helper(self):
        d = racks(6, 2)
        assert d.n_domains == 3
        assert d.domain_of(0) == d.domain_of(1) == 0
        assert d.assignment == (0, 0, 1, 1, 2, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureDomainMap(())
        with pytest.raises(ValueError):
            FailureDomainMap((0, 2))  # not dense
        with pytest.raises(ValueError):
            racks(0, 1)
        with pytest.raises(ValueError):
            racks(4, 2).domain_of(99)


class TestDomainAwarePlacement:
    def test_members_span_distinct_racks(self):
        sim, cluster, domains, _ = _rack_cluster()
        layout = build_orthogonal_layout(cluster, group_size=2, domains=domains)
        for g in layout.groups:
            member_doms = {
                domains.domain_of(cluster.vm(v).node_id)
                for v in g.member_vm_ids
            }
            assert len(member_doms) == len(g.member_vm_ids)
            assert domains.domain_of(g.parity_node) not in member_doms

    def test_domain_validate(self):
        sim, cluster, domains, _ = _rack_cluster()
        aware = build_orthogonal_layout(cluster, 2, domains=domains)
        assert validate_layout(aware, cluster, domains=domains).ok
        # node-orthogonal-only layout generally violates rack orthogonality
        naive = build_orthogonal_layout(cluster, 3)
        report = validate_layout(naive, cluster, domains=domains)
        assert not report.ok

    def test_group_size_bounded_by_domains(self):
        sim, cluster, domains, _ = _rack_cluster(n_racks=2, nodes_per_rack=3)
        with pytest.raises(LayoutError):
            build_orthogonal_layout(cluster, group_size=3, domains=domains)
        # without domains, 3 distinct nodes exist -> fine
        build_orthogonal_layout(cluster, group_size=3)

    def test_no_parity_domain_available_rejected(self):
        sim, cluster, domains, _ = _rack_cluster(n_racks=2, nodes_per_rack=2)
        # group_size 2 uses both racks as members: nowhere for parity
        with pytest.raises(LayoutError):
            build_orthogonal_layout(cluster, group_size=2, domains=domains)


class TestRackFailureSurvival:
    def test_whole_rack_crash_recovers_bit_exact(self):
        """The payoff: rack-aware placement + single XOR parity survives
        a full-rack (2-node simultaneous) crash."""
        sim, cluster, domains, rng = _rack_cluster()
        layout = build_orthogonal_layout(cluster, group_size=2, domains=domains)
        ck = DisklessCheckpointer(cluster, layout)
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in cluster.all_vms:
                committed[vm.vm_id] = (
                    cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
                vm.image.touch_pages(rng.integers(0, 16, 3), rng)
            # rack 1 = nodes 2 and 3 die together
            cluster.kill_node(2)
            cluster.kill_node(3)
            yield from ck.recover(2)
            yield from ck.recover(3)

        sim.run_process(proc())
        for vm in cluster.all_vms:
            assert vm.state.value == "running"
            assert np.array_equal(vm.image.flat, committed[vm.vm_id]), (
                f"vm{vm.vm_id} not bit-exact after rack loss"
            )

    def test_naive_layout_dies_on_rack_crash(self):
        """Without domain awareness, a rack crash costs some group two
        elements — unrecoverable under XOR."""
        sim, cluster, domains, rng = _rack_cluster()
        layout = build_orthogonal_layout(cluster, group_size=3)  # node-aware only
        # confirm some group straddles rack 0 (nodes 0, 1) twice
        assert not validate_layout(layout, cluster, domains=domains).ok
        ck = DisklessCheckpointer(cluster, layout)

        def proc():
            yield from ck.run_cycle()
            cluster.kill_node(0)
            cluster.kill_node(1)
            yield from ck.recover(0)
            yield from ck.recover(1)

        with pytest.raises(RuntimeError):
            sim.run_process(proc())

    def test_end_to_end_job_under_rack_failures(self):
        sim, cluster, domains, rng = _rack_cluster(seed=51)
        layout = build_orthogonal_layout(cluster, group_size=2, domains=domains)
        ck = DisklessCheckpointer(cluster, layout)
        # whole racks crash together: rack 0 at 20 min, rack 2 at 45 min
        sched = FailureSchedule([
            FailureEvent(1200.0, 0, 0), FailureEvent(1200.0, 1, 0),
            FailureEvent(2700.0, 4, 0), FailureEvent(2700.0, 5, 0),
        ])
        inj = FailureInjector(sim, cluster.n_nodes, schedule=sched)
        job = CheckpointedJob(cluster, ck, work=3600.0, interval=600.0,
                              injector=inj, repair_time=60.0)
        inj.start()
        sim.run_process(job.start())
        assert job.result.completed
