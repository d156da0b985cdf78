"""Spare-node pool and the self-healing state machine."""

import numpy as np
import pytest

from repro.audit import Auditor
from repro.cluster import ClusterSpec, VirtualCluster
from repro.coding import get_scheme
from repro.core import dvdc
from repro.resilience import ClusterHealth, SelfHealer, SparePool
from repro.telemetry import Probe


def _populated(sim, n_active, n_spare, seed=11):
    """CLI ``audit --heal`` shape: VMs on the first ``n_active`` nodes."""
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_active + n_spare))
    rng = np.random.default_rng(seed)
    for node in range(n_active):
        for _ in range(3):
            vm = cluster.create_vm(node, 64e6, image_pages=32, page_size=128)
            vm.image.write(
                0, rng.integers(0, 256, vm.image.nbytes // 2, dtype=np.uint8)
            )
            vm.image.clear_dirty()
    return cluster


class TestSparePool:
    def test_provision_validation(self, sim, paper_cluster):
        with pytest.raises(ValueError, match=">= 0"):
            SparePool.provision(paper_cluster, -1)
        # every node of the paper cluster hosts VMs: nothing qualifies
        with pytest.raises(ValueError, match="empty node"):
            SparePool.provision(paper_cluster, 1)

    def test_provision_takes_highest_empty_nodes_cold(self, sim):
        cluster = _populated(sim, n_active=4, n_spare=2)
        pool = SparePool.provision(cluster, 2)
        assert pool.available == (4, 5)
        assert len(pool) == 2
        assert not cluster.node(4).alive and not cluster.node(5).alive

    def test_acquire_powers_on_lowest_spare_first(self, sim):
        cluster = _populated(sim, n_active=4, n_spare=2)
        pool = SparePool.provision(cluster, 2)
        assert pool.acquire() == 4
        assert cluster.node(4).alive and not cluster.node(4).vms
        assert pool.acquire() == 5
        assert pool.acquire() is None
        assert pool.acquired == [4, 5]

    def test_add_deactivates_a_running_node(self, sim):
        cluster = _populated(sim, n_active=4, n_spare=1)
        assert cluster.node(4).alive
        pool = SparePool(cluster)
        pool.add(4)
        assert not cluster.node(4).alive
        assert pool.available == (4,)


class TestHealAfterRecover:
    def test_heal_after_recover_restores_strict_audit_green(self, sim, paper_cluster):
        """Satellite regression: recovery on a 4-node cluster must park a
        member on its group's parity node (no other placement exists);
        an immediate ``heal()`` rotates parity away and the *strict*
        auditor — co-location promoted to fatal — comes back green."""
        ck = dvdc(paper_cluster)

        def driver():
            r = yield from ck.run_cycle()
            assert r.committed
            paper_cluster.kill_node(1)
            yield from ck.recover(1)

        sim.run_process(driver())

        co_located = [
            g for g in ck.layout.groups
            if any(
                paper_cluster.vm(v).node_id == g.parity_node
                for v in g.member_vm_ids
            )
        ]
        assert co_located, "scenario must actually produce co-located parity"

        paper_cluster.repair_node(1)

        def heal():
            return (yield from ck.heal())

        healed = sim.run_process(heal())
        assert healed  # the co-located groups were re-encoded elsewhere

        auditor = Auditor(paper_cluster, ck.layout)
        report = auditor.run(ck.committed_epoch, context="test", strict=True)
        assert report.ok, [str(v) for v in report.violations]


class TestSelfHealer:
    def _scenario(self, sim, n_spare, probe=None, scheme=None):
        cluster = _populated(sim, n_active=4, n_spare=n_spare)
        spares = SparePool.provision(cluster, n_spare)
        coding = get_scheme(scheme)
        # every group spans all four active nodes: members + shards
        ck = dvdc(cluster, group_size=4 - coding.n_shards, scheme=coding)
        if probe is not None:
            healer = SelfHealer(ck, spares=spares, tracer=probe)
        else:
            healer = SelfHealer(ck, spares=spares)
        return cluster, ck, healer

    def test_fresh_cluster_reports_no_epoch(self, sim):
        _, _, healer = self._scenario(sim, 0)
        state, found = healer.assess()
        assert state is ClusterHealth.DEGRADED
        assert found == ["no committed checkpoint epoch"]

    def test_assess_is_protected_after_a_clean_cycle(self, sim):
        cluster, ck, healer = self._scenario(sim, 0)

        def driver():
            r = yield from ck.run_cycle()
            assert r.committed
        sim.run_process(driver())
        state, found = healer.assess()
        assert state is ClusterHealth.PROTECTED and found == []

    @pytest.mark.parametrize("scheme", ["xor", "rdp", "rs-8-2"])
    def test_spare_pool_heals_back_to_protected(self, sim, scheme):
        probe = Probe()
        cluster, ck, healer = self._scenario(sim, 1, probe=probe, scheme=scheme)
        out = {}

        def driver():
            r = yield from ck.run_cycle()
            assert r.committed
            yield sim.timeout(60.0)
            cluster.kill_node(0)  # permanent loss
            healer.on_failure()
            yield from ck.recover(0)
            out["report"] = yield from healer.reprotect()
            out["heal_again"] = yield from ck.heal()

        sim.run_process(driver())
        report = out["report"]
        assert report.state is ClusterHealth.PROTECTED
        assert report.issues == []
        # settled: heal never shuffles a colocated shard when no strictly
        # valid home exists for it
        assert out["heal_again"] == []
        assert report.window_seconds is not None and report.window_seconds > 0
        assert healer.windows and healer.last_window_seconds == pytest.approx(
            report.window_seconds
        )
        # and PROTECTED is real: the strict auditor agrees
        auditor = Auditor(cluster, ck.layout, scheme=ck.scheme)
        assert auditor.run(ck.committed_epoch, strict=True).ok
        # a second shard tolerates two elements per node: the three
        # survivors suffice and the spare stays cold
        assert report.spares_used == ([] if ck.scheme.tolerance > 1 else [4])
        # window telemetry: one aggregate observation of that exact
        # width, plus one per-group window for each group the crash
        # exposed (every group spans node 0), all closed at PROTECTED
        snap = probe.metrics.snapshot()
        fam = snap["repro_degraded_window_seconds"]
        assert sum(
            s["count"] for s in fam["series"] if not s["labels"]
        ) == 1
        grouped = {
            s["labels"]["group"]: s["count"]
            for s in fam["series"] if "group" in s["labels"]
        }
        assert grouped == {str(g.group_id): 1 for g in ck.layout.groups}
        assert {g: len(w) for g, w in healer.group_windows.items()} == {
            g.group_id: 1 for g in ck.layout.groups
        }
        assert not healer._group_degraded_since  # all windows closed

    def test_empty_pool_settles_degraded_and_says_so(self, sim):
        probe = Probe()
        cluster, ck, healer = self._scenario(sim, 0, probe=probe)
        out = {}

        def driver():
            r = yield from ck.run_cycle()
            assert r.committed
            cluster.kill_node(0)
            healer.on_failure()
            yield from ck.recover(0)
            out["report"] = yield from healer.reprotect()

        sim.run_process(driver())
        report = out["report"]
        assert report.state is ClusterHealth.DEGRADED
        assert healer.state is ClusterHealth.DEGRADED
        assert report.spares_used == []
        assert report.issues, "DEGRADED must come with outstanding issues"
        assert report.window_seconds is None  # still open
        assert healer.degraded_since is not None
        snap = probe.metrics.snapshot()
        assert "repro_degraded_window_seconds" not in snap

    def test_second_failure_with_second_spare_also_heals(self, sim):
        cluster, ck, healer = self._scenario(sim, 2)
        out = {}

        def driver():
            r = yield from ck.run_cycle()
            assert r.committed
            cluster.kill_node(0)
            healer.on_failure()
            yield from ck.recover(0)
            r1 = yield from healer.reprotect()
            yield sim.timeout(30.0)
            cluster.kill_node(1)
            healer.on_failure()
            yield from ck.recover(1)
            r2 = yield from healer.reprotect()
            out["r1"], out["r2"] = r1, r2

        sim.run_process(driver())
        assert out["r1"].state is ClusterHealth.PROTECTED
        assert out["r2"].state is ClusterHealth.PROTECTED
        assert out["r1"].spares_used == [4]
        assert out["r2"].spares_used == [5]
        assert len(healer.windows) == 2
