"""Multi-site georedundancy: topology, placement policies, correlated
failures, the cordon-composition fix, and the survival-matrix acceptance
criterion (geo-spread and remus-async outlive a full-site outage that
local-parity loses)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterSpec, VirtualCluster
from repro.core import member_homes, validate_layout
from repro.core.architectures import dvdc
from repro.core.recovery import respread_groups
from repro.failures import FailureDomainMap
from repro.geo import (
    GeoConfig,
    GeoSpec,
    GeoTopology,
    RemusAsyncReplicator,
    geo_cluster_spec,
    run_geo_point,
    run_geo_study,
)
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# hierarchy + topology
# ---------------------------------------------------------------------------
class TestGeoSpec:
    def test_levels_nest(self):
        geo = GeoSpec(n_nodes=12, n_sites=3, racks_per_site=2)
        for n in range(12):
            assert geo.site_of(n) == n // 4
            assert geo.domain_map("rack").domain_of(n) // 2 == geo.site_of(n)
        assert geo.domain_map("rack").n_domains == 6
        assert geo.domain_map("site").n_domains == 3
        assert geo.domain_map("node").n_domains == 12

    def test_uneven_partition_covers_all_nodes(self):
        geo = GeoSpec(n_nodes=10, n_sites=3)
        sizes = [len(geo.nodes_in_site(s)) for s in range(3)]
        assert sum(sizes) == 10 and max(sizes) - min(sizes) <= 1

    def test_cross_site_path_rides_wan(self):
        sim = Simulator()
        geo = GeoSpec(n_nodes=8, n_sites=2)
        topo = GeoTopology(sim, geo)
        names = [l.name for l in topo.node_to_node(0, 5)]
        assert names == ["node0.tx", "site0.wan.tx", "site1.wan.rx", "node5.rx"]
        local = [l.name for l in topo.node_to_node(0, 1)]
        assert local == ["node0.tx", "node1.rx"]

    def test_wan_bytes_accounting(self):
        sim = Simulator()
        geo = GeoSpec(n_nodes=8, n_sites=2, wan_latency=0.0)
        topo = GeoTopology(sim, geo, node_bandwidth=1e12, latency=0.0)

        def go():
            yield topo.transfer(0, 5, 1e6, label="x")
            yield topo.transfer(0, 1, 1e6, label="local")

        sim.process(go())
        sim.run()
        assert topo.wan_bytes == 1e6  # local transfer never counted


# ---------------------------------------------------------------------------
# domain-constrained placement
# ---------------------------------------------------------------------------
class TestGeoSpreadLayout:
    def test_groups_are_site_orthogonal(self):
        from repro.geo.study import build_geo_scenario

        cfg = GeoConfig(n_nodes=12, n_sites=3, policy="geo-spread")
        _sim, cluster, ck, _r, geo, _rng, _t = build_geo_scenario(cfg)
        domains = geo.domain_map("site")
        # at most one element of any group per site
        assert validate_layout(ck.layout, cluster, domains=domains).ok
        report = validate_layout(
            ck.layout, cluster, tolerance=ck.scheme.tolerance, domains=domains
        )
        assert report.errors == []

    def test_local_parity_stacks_domains(self):
        from repro.geo.study import build_geo_scenario

        cfg = GeoConfig(n_nodes=12, n_sites=3, policy="local-parity")
        _sim, cluster, ck, _r, geo, _rng, _t = build_geo_scenario(cfg)
        assert not validate_layout(
            ck.layout, cluster, tolerance=ck.scheme.tolerance,
            domains=geo.domain_map("site"),
        ).ok


# ---------------------------------------------------------------------------
# the survival matrix (acceptance criterion)
# ---------------------------------------------------------------------------
class TestSurvivalMatrix:
    def test_policy_matrix_under_full_site_outage(self):
        cfg = GeoConfig(n_nodes=12, n_sites=3, epochs=2, kill_site=-1)
        study, campaign = run_geo_study(cfg, seeds=(0, 1))
        assert campaign.n_failed == 0
        s = study["summary"]
        # local-parity loses the site outage every time
        assert s["local-parity"]["survived"] == 0
        assert s["local-parity"]["data_lost"] == 2
        # geo-spread absorbs it within coding tolerance
        assert s["geo-spread"]["survived"] == 2
        assert s["geo-spread"]["beyond_tolerance"] == 0
        # remus-async is beyond local tolerance but salvages remotely,
        # paying exactly its replication lag window
        assert s["remus-async"]["survived"] == 2
        assert s["remus-async"]["beyond_tolerance"] == 2
        assert s["remus-async"]["mean_rollback_epochs"] == 1.0
        # the layout-level prediction agrees with every simulated cell:
        # a lone site outage exceeds local tolerance iff the layout
        # stacks more elements per site than the scheme absorbs
        from repro.geo.study import build_geo_scenario

        for policy in s:
            _sim, cluster, ck, _r, geo, _rng, _t = build_geo_scenario(
                replace(cfg, policy=policy)
            )
            predicted = not validate_layout(
                ck.layout, cluster, tolerance=ck.scheme.tolerance,
                domains=geo.domain_map("site"),
            ).ok
            cells = [c for c in study["cells"] if c["policy"] == policy]
            assert cells and all(
                c["beyond_tolerance"] == predicted for c in cells
            ), policy

    def test_remus_lag_window_scales_rollback(self):
        r = run_geo_point(GeoConfig(
            n_nodes=12, n_sites=3, policy="remus-async", epochs=3,
            kill_site=-1, lag_epochs=2,
        ))
        assert r["survived"] and r["rollback_epochs"] == 2

    def test_remus_fully_caught_up_loses_nothing(self):
        r = run_geo_point(GeoConfig(
            n_nodes=12, n_sites=3, policy="remus-async", epochs=2,
            kill_site=-1, lag_epochs=0,
        ))
        assert r["survived"] and r["rollback_epochs"] == 0

    def test_post_disaster_strict_audit_is_domain_aware(self):
        r = run_geo_point(GeoConfig(
            n_nodes=12, n_sites=3, policy="geo-spread", epochs=2, kill_site=0,
        ))
        assert r["strict_audit_ok"], r["audit_violations"]


# ---------------------------------------------------------------------------
# cordon composition (the bug fix): recovery placement must honor
# control-plane cordons when the candidate pool is domain-constrained
# ---------------------------------------------------------------------------
def _cordon_cluster():
    """6 nodes in 3 two-node sites; one group: members on nodes 0 and 2,
    parity forced into site 2 by the domain constraint."""
    sim = Simulator()
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=6))
    rng = np.random.default_rng(7)
    for node in (0, 2):
        vm = cluster.create_vm(node, 64e6, image_pages=8, page_size=64)
        vm.image.write(0, rng.integers(0, 256, 256, dtype=np.uint8))
        vm.image.clear_dirty()
    domains = FailureDomainMap([0, 0, 1, 1, 2, 2])
    ck = dvdc(cluster, group_size=2, domains=domains)
    return sim, cluster, ck, domains


class TestCordonComposition:
    def test_parity_rehome_respects_cordons(self):
        """Regression: with both site-2 nodes cordoned (rolling drain),
        the domain-preferred parity chooser must NOT place parity on the
        cordoned buddy — pre-fix it did, because recovery exclusion sets
        ignored the control plane's cordon callable."""
        sim, cluster, ck, domains = _cordon_cluster()
        proc = sim.process(ck.run_cycle())
        sim.run()
        assert proc.ok and proc.value.committed
        group = ck.layout.groups[0]
        p = group.parity_nodes[0]
        assert domains.domain_of(p) == 2  # the only member-free site
        buddy = 4 if p == 5 else 5
        cordoned = {p, buddy}
        ck.cordons = lambda: cordoned
        cluster.kill_node(p)
        rec = sim.process(ck.recover(p))
        sim.run()
        assert rec.ok, rec.value
        new_p = ck.layout.groups[0].parity_nodes[0]
        assert new_p not in cordoned, (
            f"parity re-homed onto cordoned node {new_p}"
        )

    def test_without_cordons_buddy_is_preferred(self):
        """The pre-fix behavior, pinned: absent cordons the domain tier
        rightly prefers the dead parity's site buddy."""
        sim, cluster, ck, domains = _cordon_cluster()
        proc = sim.process(ck.run_cycle())
        sim.run()
        assert proc.ok
        group = ck.layout.groups[0]
        p = group.parity_nodes[0]
        buddy = 4 if p == 5 else 5
        cluster.kill_node(p)
        rec = sim.process(ck.recover(p))
        sim.run()
        assert rec.ok, rec.value
        assert ck.layout.groups[0].parity_nodes[0] == buddy

    def test_member_homes_tiers(self):
        """Member on node 0, its peer on node 2 (site 1), parity in site
        2: the VM's own element never counts against its site."""
        sim, cluster, ck, domains = _cordon_cluster()
        sim.run_process(ck.run_cycle())
        group = ck.layout.groups[0]
        p = group.parity_nodes[0]
        vm = next(v for v in group.member_vm_ids
                  if cluster.vm(v).node_id == 0)
        ids = [
            [n.node_id for n in tier]
            for tier in member_homes(cluster, group, vm, domains=domains)
        ]
        assert ids == [
            [0, 1],
            [n for n in range(6) if n not in (2, p)],
            [0, 1, 3, 4, 5],
        ]
        spread, clear, _ = member_homes(cluster, group, vm, {0}, domains)
        assert [n.node_id for n in spread] == [1]
        # without domains each node is its own unit: tier 1 is tier 2
        spread, clear, _ = member_homes(cluster, group, vm)
        assert spread == clear

    def test_respread_respects_cordons(self):
        """Both members crowd into site 1; the only site-spread home for
        the offender is site 0, which a cordon closes."""
        sim, cluster, ck, domains = _cordon_cluster()
        sim.run_process(ck.run_cycle())
        group = ck.layout.groups[0]
        first, second = sorted(group.member_vm_ids)
        cluster.move_vm(first, 3)  # site 1, beside the member on node 2
        ck.cordons = lambda: {0, 1}
        assert sim.run_process(respread_groups(ck, cluster, domains)) == {}
        ck.cordons = None
        moved = sim.run_process(respread_groups(ck, cluster, domains))
        assert list(moved) == [second] and moved[second] in (0, 1)

    def test_controlplane_wires_cordons(self):
        from repro.controlplane import ControlPlane, ControlPlaneConfig

        sim = Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=6))
        rng = np.random.default_rng(1)
        for node in range(6):
            vm = cluster.create_vm(node, 64e6, image_pages=8, page_size=64)
            vm.image.write(0, rng.integers(0, 256, 256, dtype=np.uint8))
            vm.image.clear_dirty()
        ck = dvdc(cluster, group_size=3)
        cp = ControlPlane(cluster, ck, config=ControlPlaneConfig())
        assert ck.cordons is not None and ck.cordons() == set()
        cp.maintenance.add(4)
        cp.fenced.add(1)
        assert ck.cordons() == {1, 4}
        cp.maintenance.clear()
        assert ck.cordons() == {1}


# ---------------------------------------------------------------------------
# geo fuzzing: site kills + tolerance-aware classification
# ---------------------------------------------------------------------------
class TestGeoFuzz:
    def _config(self, policy: str, **kw):
        from repro.audit.fuzzer import FuzzConfig

        return FuzzConfig(
            layout="fig4", n_nodes=6, vms_per_node=2, n_cycles=2,
            geo_sites=3, geo_policy=policy, **kw,
        )

    def test_site_fault_kills_the_whole_site(self):
        from repro.audit.fuzzer import FaultSpec, run_trial

        schedule = (FaultSpec(cycle=0, phase="idle", node=0, frac=0.5,
                              kind="site"),)
        trial = run_trial(self._config("geo-spread"), schedule, seed=0)
        assert not trial.failed, [str(v) for v in trial.violations]
        killed = {e.node_id for e in trial.faults_fired}
        assert killed == {0, 1}  # both nodes of site 0, nothing else

    def test_geo_schedules_draw_site_faults(self):
        from repro.audit.fuzzer import draw_schedule

        cfg = self._config("geo-spread", max_faults=3)
        kinds = set()
        for seed in range(30):
            for f in draw_schedule(np.random.default_rng([seed, 0x5C]), cfg):
                kinds.add(f.kind)
        assert "site" in kinds and "kill" in kinds

    def test_double_site_loss_is_fate_not_bug(self):
        """Two whole sites gone exceeds every policy's cover — the trial
        must classify it unrecoverable, never as a protocol bug."""
        from repro.audit.fuzzer import FaultSpec, run_trial

        schedule = (
            FaultSpec(cycle=0, phase="post_commit", node=0, frac=0.5,
                      kind="site"),
            FaultSpec(cycle=0, phase="post_commit", node=2, frac=0.6,
                      kind="site"),
        )
        for policy in ("geo-spread", "remus-async"):
            trial = run_trial(self._config(policy), schedule, seed=1)
            assert trial.unrecoverable, policy
            assert not trial.failed, [str(v) for v in trial.violations]

    def test_remus_salvages_single_site_loss(self):
        from repro.audit.fuzzer import FaultSpec, run_trial

        schedule = (FaultSpec(cycle=0, phase="post_commit", node=0, frac=0.5,
                              kind="site"),)
        trial = run_trial(self._config("remus-async"), schedule, seed=2)
        assert not trial.failed, [str(v) for v in trial.violations]
        assert not trial.unrecoverable
        assert trial.recoveries >= 1

    @pytest.mark.parametrize("policy", ["geo-spread", "remus-async"])
    def test_fuzz_batch_clean(self, policy):
        from repro.audit.fuzzer import fuzz

        result = fuzz(self._config(policy), seeds=6)
        assert not result.failures, [
            [str(v) for v in t.violations[:2]] for t in result.failures
        ]


# ---------------------------------------------------------------------------
# remus unit behavior
# ---------------------------------------------------------------------------
class TestRemusReplicator:
    def test_standby_lives_in_next_site(self):
        sim = Simulator()
        geo = GeoSpec(n_nodes=9, n_sites=3)
        cluster = VirtualCluster(sim, geo_cluster_spec(geo))
        rng = np.random.default_rng(5)
        for node in range(9):
            vm = cluster.create_vm(node, 64e6, image_pages=8, page_size=64)
            vm.image.write(0, rng.integers(0, 256, 256, dtype=np.uint8))
            vm.image.clear_dirty()
        ck = dvdc(cluster, group_size=2)
        rep = RemusAsyncReplicator(cluster, geo, ck)
        for vm in cluster.all_vms:
            home_site = geo.site_of(vm.node_id)
            standby = rep.standby_node(vm.vm_id)
            assert geo.site_of(standby) == (home_site + 1) % 3

    def test_single_site_rejected(self):
        sim = Simulator()
        geo = GeoSpec(n_nodes=4, n_sites=1)
        cluster = VirtualCluster(sim, geo_cluster_spec(geo))
        for node in (0, 1):
            cluster.create_vm(node, 64e6, image_pages=8, page_size=64)
        ck = dvdc(cluster, group_size=2)
        with pytest.raises(ValueError):
            RemusAsyncReplicator(cluster, geo, ck)
