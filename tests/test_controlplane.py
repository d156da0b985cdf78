"""Control-plane coordinator: fencing, ops façade, drain, salvage.

Covers the keepalive/fencing daemon (true crash vs straggler-NIC false
positive vs sub-deadline flap), the PENDING→RUNNING→DONE/FAILED op
state machine, the kill-op safety guard, live-drain maintenance with
checksum-verified migrations and zero unprotected windows, the
beyond-tolerance salvage path, and the run-to-completion drivers
behind ``repro controlplane run|drain|status``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import audit_cluster
from repro.checkpoint.strategies import IncrementalCapture
from repro.cluster import ClusterSpec, VirtualCluster
from repro.cluster.vm import VMState
from repro.controlplane import (
    ControlPlane,
    ControlPlaneConfig,
    Operation,
    OpState,
    PlacementEngine,
    PlacementError,
    build_managed,
    rolling_drain,
    soak,
    timed_status,
)
from repro.core import validate_layout
from repro.core.architectures import dvdc
from repro.core.recovery import salvage
from repro.failures import FailureDomainMap
from repro.failures.injector import (
    FailureEvent,
    FailureInjector,
    FailureSchedule,
)
from repro.resilience import ClusterHealth, SparePool
from repro.sim import Simulator, Tracer

VM_BYTES = float(16 * 64)  # 16 pages x 64B: cycles finish in sim-seconds


def _populated(sim, n_active, n_spare=0, vms_per_node=2, seed=7):
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_active + n_spare))
    rng = np.random.default_rng(seed)
    for node in range(n_active):
        for _ in range(vms_per_node):
            vm = cluster.create_vm(
                node, VM_BYTES, dirty_rate=10.0, image_pages=16, page_size=64
            )
            vm.image.write(
                0, rng.integers(0, 256, vm.image.nbytes, dtype=np.uint8)
            )
            vm.image.clear_dirty()
    return cluster


def make_cp(sim, n_active=6, n_spare=0, group_size=3, strategy=None,
            scheme=None, domains=None, vms_per_node=2, **cfg):
    cluster = _populated(sim, n_active, n_spare, vms_per_node=vms_per_node)
    tracer = Tracer()
    ck = dvdc(cluster, group_size=group_size, strategy=strategy,
              tracer=tracer, scheme=scheme, domains=domains)
    spares = SparePool.provision(cluster, n_spare) if n_spare else None
    cfg.setdefault("repair_time", 8.0)
    cp = ControlPlane(
        cluster, ck, spares=spares, config=ControlPlaneConfig(**cfg),
        tracer=tracer,
    )
    return cluster, ck, cp


def drive(sim, cp, gen, until=500.0):
    """Run ``gen`` to completion with the control plane live, then stop
    the daemons so the heap can drain; re-raise the driver's failure."""

    def main():
        try:
            return (yield from gen)
        finally:
            cp.stop()

    return sim.run_process(main(), until=until)


def events_of(cp, kind):
    return [r for r in cp.tracer.records if r.kind == kind]


# ---------------------------------------------------------------------------
# keepalive + fencing
# ---------------------------------------------------------------------------
class TestFencing:
    def test_injected_crash_is_fenced_then_recovered(self):
        """A real crash silences the beat; the fence is not a false
        positive, and the recovery pipeline restores every VM."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        schedule = FailureSchedule(
            [FailureEvent(time=5.0, node_id=2, ordinal=0)]
        )
        injector = FailureInjector(sim, 6, schedule=schedule)

        def power_loss(ev):
            # what the machine room does: the node dies now and comes
            # back after the repair time; detection is the keepalive's job
            cluster.kill_node(ev.node_id)
            cp.healer.on_failure()
            sim.schedule(cp.config.repair_time, cp._repair, ev.node_id)

        injector.subscribe(power_loss)
        injector.start()
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            ok, error = yield cp.recovered_event(2)
            assert ok, error
            # wait out the repair so the node rejoins
            yield sim.timeout(cp.config.repair_time + 2.0)

        drive(sim, cp, scenario())
        fences = events_of(cp, "controlplane.fence")
        assert [f.data["node"] for f in fences] == [2]
        assert fences[0].data["false_positive"] is False
        # detection latency: silence starts at t=5, deadline is
        # interval * miss_threshold, monitor sweeps each interval
        assert 5.0 + cp.policy.deadline <= fences[0].time <= 5.0 + cp.policy.deadline + 2 * cp.policy.interval
        assert all(vm.state == VMState.RUNNING for vm in cluster.all_vms)
        assert cluster.node(2).alive  # repaired and back
        assert events_of(cp, "controlplane.rejoin")
        assert cp.audits and all(r.ok for r in cp.audits)

    def test_straggler_nic_is_a_false_positive_stonith(self):
        """A long link flap is indistinguishable from a crash at the
        keepalive layer: the node is fenced as a false positive and
        power-fenced (STONITH) before its VMs are rebuilt."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            cluster.topology.set_node_links_up(3, False, reason="flap")
            yield sim.timeout(8.0)
            cluster.topology.set_node_links_up(3, True)
            ok, error = yield cp.recovered_event(3)
            assert ok, error
            yield sim.timeout(cp.config.repair_time + 2.0)

        drive(sim, cp, scenario())
        fences = events_of(cp, "controlplane.fence")
        assert [f.data["node"] for f in fences] == [3]
        assert fences[0].data["false_positive"] is True
        assert cluster.node(3).failure_count == 1  # STONITH really killed it
        assert cluster.node(3).alive
        assert all(vm.state == VMState.RUNNING for vm in cluster.all_vms)
        assert cp.audits and all(r.ok for r in cp.audits)

    def test_short_flap_under_deadline_is_not_fenced(self):
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            cluster.topology.set_node_links_up(1, False, reason="blip")
            yield sim.timeout(cp.policy.deadline - 1.0)
            cluster.topology.set_node_links_up(1, True)
            yield sim.timeout(10.0)

        drive(sim, cp, scenario())
        assert not events_of(cp, "controlplane.fence")
        assert not cp.fenced

    def test_death_in_unenrolled_window_is_swept(self):
        """Regression: a node that dies while *unenrolled* (the window
        between repair and the monitor's next re-enroll tick) emits no
        beat to miss — the monitor must still fence it."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            cp.registry.unenroll(4)  # simulate the post-repair window
            cluster.kill_node(4)
            cp.healer.on_failure()
            sim.schedule(cp.config.repair_time, cp._repair, 4)
            ok, error = yield cp.recovered_event(4)
            assert ok, error

        drive(sim, cp, scenario())
        fences = events_of(cp, "controlplane.fence")
        assert [f.data["node"] for f in fences] == [4]
        assert all(
            vm.state == VMState.RUNNING for vm in cluster.all_vms
        )

    def test_spare_pool_standbys_are_never_fenced(self):
        """Powered-off spares look exactly like dead nodes; the sweep
        must not declare them crashed."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6, n_spare=2)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            yield sim.timeout(10.0)

        drive(sim, cp, scenario())
        assert not events_of(cp, "controlplane.fence")
        assert not cluster.node(6).alive and not cluster.node(7).alive


# ---------------------------------------------------------------------------
# operation state machine
# ---------------------------------------------------------------------------
class TestOps:
    def test_lifecycle_transitions(self):
        op = Operation(op_id=0, kind="query")
        assert op.state is OpState.PENDING and not op.state.terminal
        op.start(1.0)
        assert op.state is OpState.RUNNING
        op.finish(2.0, {"x": 1})
        assert op.state.terminal and op.result == {"x": 1}
        assert (op.started_at, op.finished_at) == (1.0, 2.0)

    def test_illegal_transitions_raise(self):
        op = Operation(op_id=0, kind="kill")
        with pytest.raises(RuntimeError, match="illegal transition"):
            op.finish(0.0)  # PENDING cannot terminate
        op.start(0.0)
        op.fail(1.0, "boom")
        with pytest.raises(RuntimeError, match="illegal transition"):
            op.start(2.0)  # terminal states are final
        with pytest.raises(RuntimeError, match="illegal transition"):
            op.finish(2.0)

    def test_submit_requires_started_and_known_kind(self):
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 4)
        with pytest.raises(RuntimeError, match="not started"):
            cp.submit("query")
        cp.start()
        with pytest.raises(ValueError, match="unknown op kind"):
            cp.submit("reboot")
        cp.stop()

    def test_provision_is_protected_at_next_epoch(self):
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            op = cp.submit("provision", memory_bytes=VM_BYTES,
                           image_pages=16, page_size=64)
            yield op.done
            assert op.state is OpState.DONE
            vm_id = op.result["vm_id"]
            assert vm_id in cp.pending_protect
            yield from cp.checkpoint()  # enrolls + first full capture
            return vm_id

        vm_id = drive(sim, cp, scenario())
        assert vm_id not in cp.pending_protect
        group = ck.layout.group_of(vm_id)
        assert vm_id in group.member_vm_ids
        parity_home = cluster.node(group.parity_node)
        assert group.group_id in parity_home.parity_store
        report = cp.audit("after provision epoch")
        assert report.ok

    def test_provisioned_groups_take_the_layout_group_size(self):
        """Regression: provisioned VMs were grouped by a separate
        ``ControlPlaneConfig.group_size`` (4), not the layout's size, so
        four VMs provisioned in one epoch formed one group of 4."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6, group_size=2)
        initial = len(ck.layout.groups)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            ops = [cp.submit("provision", memory_bytes=VM_BYTES,
                             image_pages=16, page_size=64) for _ in range(4)]
            for op in ops:
                yield op.done
            yield from cp.checkpoint()

        drive(sim, cp, scenario())
        new = ck.layout.groups[initial:]
        assert sum(len(g.member_vm_ids) for g in new) == 4
        assert max(len(g.member_vm_ids) for g in ck.layout.groups) == 2
        assert cp.audit("after provisioning").ok

    def test_provision_mid_run_under_incremental_capture_commits(self):
        """A VM provisioned into a running incremental protocol has no
        base: its first capture is full, its new group is encoded whole,
        and the epoch commits it under protection."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6, strategy=IncrementalCapture())
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            op = cp.submit("provision", memory_bytes=VM_BYTES,
                           image_pages=16, page_size=64)
            yield op.done
            result = yield from cp.checkpoint()
            return op, result

        op, result = drive(sim, cp, scenario())
        assert op.state is OpState.DONE, op.error
        assert result.committed
        vm_id = op.result["vm_id"]
        img = cluster.hypervisor(op.result["node"]).committed(vm_id)
        assert img is not None and img.epoch == ck.committed_epoch
        assert cp.audit("after provisioning").ok

    def test_kill_refused_when_group_would_exceed_tolerance(self):
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        # one group element already unavailable: killing a second
        # element of the same group would lose data
        victim_group = ck.layout.groups[0]
        down = cluster.vm(victim_group.member_vm_ids[0]).node_id
        cluster.kill_node(down)
        peer = cluster.vm(victim_group.member_vm_ids[1]).node_id
        reason = cp._safe_to_kill(peer)
        assert reason is not None and "tolerance" in reason

    def test_kill_refused_for_unprotected_vms(self):
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            op = cp.submit("provision", memory_bytes=VM_BYTES,
                           image_pages=16, page_size=64)
            yield op.done
            host = op.result["node"]
            kill = cp.submit("kill", node_id=host)
            yield kill.done
            return kill

        kill = drive(sim, cp, scenario())
        assert kill.state is OpState.FAILED
        assert "not yet protected" in kill.error

    def test_kill_drives_fence_and_recovery_to_done(self):
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            op = cp.submit("kill", node_id=1)
            yield op.done
            return op

        op = drive(sim, cp, scenario())
        assert op.state is OpState.DONE
        assert op.result["recovered"] is True
        assert all(vm.state == VMState.RUNNING for vm in cluster.all_vms)
        assert cp.audits and cp.audits[-1].ok

    def test_crash_before_a_provisioned_vm_is_protected_revives_it_empty(self):
        """A host crash between a ``provision`` and the next epoch skips
        the kill guard (a STONITH or an injected crash): no checkpoint
        holds the new VM, so recovery brings it back empty on a live
        node and the next epoch protects it."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            op = cp.submit("provision", memory_bytes=VM_BYTES,
                           image_pages=16, page_size=64)
            yield op.done
            host = op.result["node"]
            cluster.kill_node(host)
            cp.healer.on_failure()
            sim.schedule(cp.config.repair_time, cp._repair, host)
            ok, error = yield cp.recovered_event(host)
            assert ok, error
            result = yield from cp.checkpoint()
            return op, result

        op, result = drive(sim, cp, scenario())
        vm = cluster.vm(op.result["vm_id"])
        assert vm.state == VMState.RUNNING
        assert vm.node_id not in (None, op.result["node"])
        assert result.committed and not cp.pending_protect
        assert ck.layout.group_of(vm.vm_id)
        assert cp.audit("after the provisioned vm's first epoch").ok

    def test_kill_before_first_commit_cold_restores(self):
        """No committed epoch to roll back to: recovery re-places the
        dead node's VMs empty on live hosts (the recovery driver's cold
        start)."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)  # no checkpoint cadence
        assert cp.config.checkpoint_interval is None
        cp.start()
        victims = [vm.vm_id for vm in cluster.vms_on(1)]

        def scenario():
            op = cp.submit("kill", node_id=1)
            yield op.done
            return op

        op = drive(sim, cp, scenario())
        assert ck.committed_epoch < 0
        assert op.state is OpState.DONE, op.error
        assert all(vm.state == VMState.RUNNING for vm in cluster.all_vms)
        for vm_id in victims:
            home = cluster.vm(vm_id).node_id
            assert home is not None and home != 1


# ---------------------------------------------------------------------------
# drain / rolling maintenance
# ---------------------------------------------------------------------------
class TestDrain:
    def test_drain_verifies_migrations_and_leaves_no_gap(self):
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6, maintenance_seconds=1.0)
        cp.start()
        n_vms = len(cluster.vms_on(2))
        parity_groups = [
            g.group_id for g in ck.layout.groups if g.parity_node == 2
        ]

        def scenario():
            yield from cp.checkpoint()
            op = cp.submit("drain", node_id=2)
            yield op.done
            return op

        op = drive(sim, cp, scenario())
        assert op.state is OpState.DONE, op.error
        summary = op.result
        assert len(summary["migrated_vms"]) == n_vms
        assert set(summary["moved_parity_groups"]) == set(parity_groups)
        # every migration end-to-end checksum verified
        assert cp.verified_migrations == n_vms
        # zero unprotected windows: an audit ran after every migration,
        # every parity move, and the rejoin — all clean
        assert len(cp.audits) >= n_vms + len(parity_groups) + 1
        assert all(r.ok for r in cp.audits)
        assert cluster.node(2).alive  # rejoined
        assert 2 not in cp.maintenance

    def test_failed_migration_unstages_the_committed_copy(self, monkeypatch):
        """A drain whose migration fails leaves the VM's committed image
        only at its current home (``_unstage_committed``)."""
        from repro.network.link import NetworkError

        def unreachable(*args, **kwargs):
            raise NetworkError("destination unreachable")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(
            "repro.controlplane.maintenance.live_migrate", unreachable
        )
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            op = cp.submit("drain", node_id=2)
            yield op.done
            return op

        op = drive(sim, cp, scenario())
        assert op.state is OpState.FAILED
        assert "destination unreachable" in op.error
        for vm in cluster.vms_on(2):
            holders = [n.node_id for n in cluster.nodes
                       if vm.vm_id in n.checkpoint_store]
            assert holders == [2], (vm.vm_id, holders)
        assert 2 not in cp.maintenance

    @pytest.mark.parametrize("scheme", ["xor", "rdp", "rs-8-2"])
    def test_drain_rehomes_shards_under_any_scheme(self, scheme):
        """Draining a shard home moves exactly the slots homed there.
        (Regression: the drain used to call the XOR-only re-encode, so
        under rdp / rs-8-2 a group's homes collapsed to one node and the
        op ended FAILED: IndexError.)"""
        sim = Simulator()
        cluster, ck, cp = make_cp(
            sim, 8, maintenance_seconds=0.5, scheme=scheme
        )
        cp.start()
        node_id = ck.layout.groups[0].parity_nodes[-1]

        def scenario():
            yield from cp.checkpoint()
            op = cp.submit("drain", node_id=node_id)
            yield op.done
            return op

        op = drive(sim, cp, scenario())
        assert op.state is OpState.DONE, op.error
        for g in ck.layout.groups:
            members = {cluster.vm(v).node_id for v in g.member_vm_ids}
            assert len(set(g.parity_nodes)) == ck.scheme.n_shards
            assert not members & set(g.parity_nodes)
        report = audit_cluster(
            cluster, ck.layout, ck.committed_epoch, strict=True,
            scheme=ck.scheme,
        )
        assert report.violations == []

    def test_drain_rejects_double_maintenance(self):
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6, maintenance_seconds=30.0)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            first = cp.submit("drain", node_id=0)
            # give the first drain time to enter maintenance, then race
            yield sim.timeout(0.1)
            second = cp.submit("drain", node_id=0)
            yield second.done
            assert second.state is OpState.FAILED
            assert "maintenance" in second.error
            yield first.done
            return first

        first = drive(sim, cp, scenario())
        assert first.state is OpState.DONE

    def test_drain_refuses_to_degrade_a_layout(self):
        """4 nodes, groups of three plus parity: every other node holds
        an element of the draining VM's group, so the drain fails and
        leaves the layout valid rather than doubling a group up."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 4, maintenance_seconds=0.5)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            op = cp.submit("drain", node_id=0)
            yield op.done
            return op

        op = drive(sim, cp, scenario())
        assert op.state is OpState.FAILED
        assert "PlacementError" in op.error
        assert 0 not in cp.maintenance
        assert validate_layout(ck.layout, cluster).ok

    def test_rolling_maintenance_every_node(self):
        """Roll through *all* nodes of a cluster under the strict
        auditor: every drain migrates with checksum verification and no
        audit observes an unprotected window."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 8, maintenance_seconds=0.5)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            for node_id in range(8):
                before = cp.verified_migrations
                op = cp.submit("drain", node_id=node_id)
                yield op.done
                assert op.state is OpState.DONE, (node_id, op.error)
                assert cp.verified_migrations > before
            return cp.status()

        status = drive(sim, cp, scenario(), until=2000.0)
        assert status["alive"] == 8
        assert status["unprotected_vms"] == 0
        assert cp.audits and all(r.ok for r in cp.audits)


# ---------------------------------------------------------------------------
# geo-spread under the control plane: recovery, heal and drains keep the
# group elements one per site
# ---------------------------------------------------------------------------
class TestGeoSpreadManaged:
    @staticmethod
    def _sites(n_nodes):
        """Three sites of ``n_nodes / 3`` consecutive nodes."""
        return FailureDomainMap([3 * n // n_nodes for n in range(n_nodes)])

    def test_site_loss_heals_back_to_site_spread_once_the_site_returns(self):
        """While site 0 is down no site-spread layout exists, so recovery
        doubles groups up in the surviving sites and the healer reads
        them exposed; once the site is repaired one heal moves members
        back and the layout passes the domain-aware audit."""
        sim = Simulator()
        domains = self._sites(6)
        cluster, ck, cp = make_cp(sim, 6, group_size=2, domains=domains,
                                  vms_per_node=1)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            for node_id in (0, 1):
                cluster.kill_node(node_id)
                cp.healer.on_failure()
                sim.schedule(cp.config.repair_time, cp._repair, node_id)
            for node_id in (0, 1):
                ok, error = yield cp.recovered_event(node_id)
                assert ok, error
            assert cp.healer.state is not ClusterHealth.PROTECTED
            yield sim.timeout(4 * cp.config.repair_time)

        drive(sim, cp, scenario())
        assert events_of(cp, "diskless.heal")
        assert events_of(cp, "geo.respread")
        assert cp.healer.state is ClusterHealth.PROTECTED
        assert validate_layout(ck.layout, cluster, domains=domains).ok
        report = audit_cluster(
            cluster, ck.layout, ck.committed_epoch, strict=True,
            scheme=ck.scheme, domains=domains,
        )
        assert report.ok, [v.detail for v in report.fatal]

    def test_rolling_drain_keeps_every_group_site_spread(self):
        sim = Simulator()
        domains = self._sites(9)
        cluster, ck, cp = make_cp(sim, 9, group_size=2, domains=domains,
                                  maintenance_seconds=0.5)
        cp.start()

        def scenario():
            yield from cp.checkpoint()
            for node_id in range(9):
                op = cp.submit("drain", node_id=node_id)
                yield op.done
                assert op.state is OpState.DONE, (node_id, op.error)
                report = validate_layout(ck.layout, cluster, domains=domains)
                assert report.ok, (node_id, report.errors)

        drive(sim, cp, scenario(), until=2000.0)
        assert cp.healer.state is ClusterHealth.PROTECTED


# ---------------------------------------------------------------------------
# salvage: beyond-tolerance loss
# ---------------------------------------------------------------------------
class TestSalvage:
    def test_double_member_loss_is_salvaged(self):
        """Two members of one XOR group die in the same pileup: parity
        cannot rebuild them, so the coordinator reprovisions the lost
        VMs fresh and takes a full epoch — the cluster ends protected
        instead of permanently degraded."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        cp.start()
        group = ck.layout.groups[0]
        a = cluster.vm(group.member_vm_ids[0]).node_id
        b = cluster.vm(group.member_vm_ids[1]).node_id

        def scenario():
            yield from cp.checkpoint()
            for node_id in (a, b):
                cluster.kill_node(node_id)
                cp.healer.on_failure()
                sim.schedule(cp.config.repair_time, cp._repair, node_id)
            oks = []
            for node_id in (a, b):
                ok, error = yield cp.recovered_event(node_id)
                oks.append(ok)
            yield sim.timeout(cp.config.repair_time + 2.0)
            return oks

        oks = drive(sim, cp, scenario())
        # the *last* queued recovery runs the salvage and succeeds
        assert oks[-1] is True
        salvages = events_of(cp, "controlplane.salvage")
        assert salvages and "tolerance" in salvages[0].data["cause"]
        assert all(vm.state == VMState.RUNNING for vm in cluster.all_vms)
        assert all(vm.node_id is not None for vm in cluster.all_vms)
        report = cp.audit("after salvage")
        assert report.ok

    def test_salvage_revives_a_vm_no_group_holds_yet(self):
        """A crash aborts the salvage's own epoch and takes a VM
        provisioned since the last commit with it: the next salvage
        round brings that VM back empty, like a cold start."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6)
        group = ck.layout.groups[0]
        sim.run_process(ck.run_cycle())
        for v in group.member_vm_ids[:2]:  # beyond XOR tolerance
            cluster.kill_node(cluster.vm(v).node_id)
        host = next(n.node_id for n in cluster.alive_nodes
                    if not set(group.parity_nodes) & {n.node_id})
        fresh = cluster.create_vm(host, VM_BYTES, image_pages=16, page_size=64)
        epochs = []

        def run_epoch():
            if not epochs:
                cluster.kill_node(host)  # the first epoch aborts
            result = yield from ck.run_cycle()
            epochs.append(result.committed)
            return result

        salvaged = sim.run_process(salvage(ck, run_epoch))
        assert epochs == [False, True]
        assert fresh.vm_id in salvaged
        assert fresh.state == VMState.RUNNING and fresh.node_id != host

    def test_double_member_loss_is_salvaged_under_incremental_capture(self):
        """The salvaged VMs have no base to diff against: they capture
        full and their groups are encoded whole, so the salvage commits
        and the next incremental epoch commits and audits clean."""
        sim = Simulator()
        cluster, ck, cp = make_cp(sim, 6, strategy=IncrementalCapture())
        cp.start()
        group = ck.layout.groups[0]
        a = cluster.vm(group.member_vm_ids[0]).node_id
        b = cluster.vm(group.member_vm_ids[1]).node_id
        rng = np.random.default_rng(3)

        def scenario():
            yield from cp.checkpoint()
            for node_id in (a, b):
                cluster.kill_node(node_id)
                cp.healer.on_failure()
                sim.schedule(cp.config.repair_time, cp._repair, node_id)
            oks = []
            for node_id in (a, b):
                ok, error = yield cp.recovered_event(node_id)
                oks.append(ok)
            yield sim.timeout(cp.config.repair_time + 2.0)
            for vm in cluster.all_vms:
                vm.image.touch_pages(rng.integers(0, vm.image.n_pages, 3), rng)
            result = yield from cp.checkpoint()
            return oks, result

        oks, result = drive(sim, cp, scenario())
        assert oks[-1] is True
        assert events_of(cp, "controlplane.salvage")
        assert result.committed
        assert cp.audit("incremental epoch after salvage").ok


# ---------------------------------------------------------------------------
# placement engine
# ---------------------------------------------------------------------------
class TestDrivers:
    def test_small_soak_ends_terminal_and_strictly_clean(self):
        cp, rngs = build_managed(6)
        assert soak(cp, rngs, ops=60) is None
        assert len(cp.ops) == 60 and cp.all_ops_terminal
        assert cp.audits[-1].context == "post-soak" and cp.audits[-1].ok

    def test_small_rolling_drain_verifies_migrations(self):
        cp, _ = build_managed(8)
        assert rolling_drain(cp) == []
        assert cp.verified_migrations > 0
        assert all(r.ok for r in cp.audits)

    def test_cold_spares_never_home_parity(self):
        """Regression: the builder laid parity out before the spares were
        powered off, so ``--group-size 2 --nodes 12`` put group 11's
        parity on spare 12 and never committed an epoch."""
        cp, _ = build_managed(12, group_size=2)
        spares = set(cp.spares.available)
        assert spares == {12, 13}
        assert not any(spares & set(g.parity_nodes) for g in cp.layout.groups)
        assert timed_status(cp, 20.0)["committed_epoch"] >= 0


    def test_a_bug_in_recover_ends_the_soak_unreported(self, monkeypatch):
        """A non-fate exception out of ``recover`` ends the soak, and no
        recovery that raised is notified as succeeded."""
        from repro.core.dvdc import DisklessCheckpointer

        def recover(self, failed_node_id):
            raise ValueError("bug in recover")
            yield  # pragma: no cover - makes this a generator

        notified = []
        notify = ControlPlane._notify_recovered

        def spy(self, node_id, ok, error):
            notified.append(ok)
            notify(self, node_id, ok, error)

        monkeypatch.setattr(DisklessCheckpointer, "recover", recover)
        monkeypatch.setattr(ControlPlane, "_notify_recovered", spy)
        cp, rngs = build_managed(6)
        with pytest.raises(ValueError, match="bug in recover"):
            soak(cp, rngs, ops=60)
        assert True not in notified


class TestPlacement:
    def test_choose_host_least_loaded_lowest_id(self, sim):
        cluster = _populated(sim, 4, vms_per_node=1)
        engine = PlacementEngine(cluster)
        extra = cluster.create_vm(2, VM_BYTES)
        assert cluster.vms_on(2) and extra
        # nodes 0,1,3 tie at one VM; lowest id wins
        assert engine.choose_host() == 0
        assert engine.choose_host(exclude={0}) == 1

    def test_placement_error_when_everything_excluded(self, sim):
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=2))
        engine = PlacementEngine(cluster)
        with pytest.raises(PlacementError):
            engine.choose_host(exclude={0, 1})
