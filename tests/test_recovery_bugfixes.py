"""Regression tests for the recovery-path bugs the audit work flushed out.

Each test documents a failure mode that existed before the fix:

* a VM killed *inside* the barrier pause window had its capture outcome
  returned anyway (the capture list is built before the pause timeout),
  crashing the group cycle on the dead VM;
* ``report.network_bytes`` was charged before transfers that can die
  with ``NetworkError``, inflating recovery accounting on aborted
  rebuild/re-encode passes;
* the member rebuild hand-rolled the survivor XOR fold instead of using
  ``reconstruct_missing_padded`` (covered via heterogeneous groups);
* a flow whose endpoint node crashed during the flow's latency phase
  was admitted afterwards and delivered: node tear-down only reached
  flows already on a NIC link.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, VirtualCluster, VMState
from repro.core import dvdc


class TestMidPauseFailure:
    """A node crash during the barrier window must not leak stale captures."""

    def _run(self, paper_cluster, sim):
        ck = dvdc(paper_cluster)

        def proc():
            yield from ck.run_cycle()  # epoch 0 commits cleanly
            yield sim.timeout(10.0)
            # pause window is 0.12 s (3 VMs x 40 ms serialized per node);
            # kill node 2 squarely inside it
            sim.schedule(0.06, paper_cluster.kill_node, 2)
            r = yield from ck.run_cycle()
            return r

        return ck, sim.run_process(proc())

    def test_cycle_aborts_instead_of_crashing(self, paper_cluster, sim):
        # pre-fix: AssertionError in the group cycle on the dead VM's node
        ck, r = self._run(paper_cluster, sim)
        assert r.committed is False
        assert ck.committed_epoch == 0  # previous epoch remains the anchor

    def test_dead_vm_outcomes_dropped(self, paper_cluster, sim):
        ck, r = self._run(paper_cluster, sim)
        dead = {vm.vm_id for vm in paper_cluster.all_vms
                if vm.state == VMState.FAILED}
        assert dead == {2, 6, 10}
        assert not dead & set(r.per_vm_pause)

    def test_survivors_resume_and_recovery_succeeds(self, paper_cluster, sim, rng):
        ck, _ = self._run(paper_cluster, sim)
        for vm in paper_cluster.all_vms:
            if vm.node_id is not None:
                assert vm.state == VMState.RUNNING

        def recover():
            rep = yield from ck.recover(2)
            return rep

        rep = sim.run_process(recover())
        assert sorted(rep.reconstructed) == [2, 6, 10]
        for vm in paper_cluster.all_vms:
            hv = paper_cluster.hypervisor(vm.node_id)
            img = hv.committed(vm.vm_id)
            assert img is not None and img.epoch == 0

    def test_no_uncommitted_epoch_artifacts_leak(self, paper_cluster, sim):
        ck, _ = self._run(paper_cluster, sim)
        for node in paper_cluster.alive_nodes:
            for img in node.checkpoint_store.values():
                assert img.epoch <= ck.committed_epoch
            for block in node.parity_store.values():
                assert block.epoch <= ck.committed_epoch


class TestHeterogeneousRebuild:
    """Unequal image sizes within a group: padded reconstruction must be
    bit-exact for every member length (satellite: unify the survivor fold
    on reconstruct_missing_padded)."""

    def _build(self):
        sim = __import__("repro.sim", fromlist=["Simulator"]).Simulator()
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=4))
        rng = np.random.default_rng(99)
        # three VMs per node with 1x / 2x / 4x memory footprints
        for node in range(4):
            for factor in (1, 2, 4):
                vm = cluster.create_vm(
                    node, 1e8 * factor, image_pages=8 * factor, page_size=64
                )
                vm.image.write(
                    0, rng.integers(0, 256, vm.image.nbytes, dtype=np.uint8)
                )
                vm.image.clear_dirty()
        return sim, cluster

    @pytest.mark.parametrize("node", [0, 3])
    def test_rebuild_bit_exact_all_sizes(self, node):
        sim, cluster = self._build()
        ck = dvdc(cluster)
        committed = {}

        def proc():
            yield from ck.run_cycle()
            for vm in cluster.all_vms:
                committed[vm.vm_id] = (
                    cluster.hypervisor(vm.node_id).committed(vm.vm_id)
                    .payload_flat().copy()
                )
            cluster.kill_node(node)
            rep = yield from ck.recover(node)
            return rep

        rep = sim.run_process(proc())
        assert len(rep.reconstructed) == 3
        sizes = set()
        for vm in cluster.all_vms:
            assert np.array_equal(vm.image.flat, committed[vm.vm_id])
            sizes.add(vm.image.nbytes)
        assert len(sizes) == 3  # the group really was heterogeneous


class TestRecoveryNetworkAccounting:
    """Bytes are charged only for transfers that actually completed."""

    def test_mid_rebuild_failure_counts_zero_bytes(self, paper_cluster, sim, rng):
        ck = dvdc(paper_cluster)

        def proc():
            yield from ck.run_cycle()
            paper_cluster.kill_node(0)
            # every rebuild flow is ~1 GB over a shared 125 MB/s NIC, so
            # nothing can have completed 1 s into the recovery — killing a
            # second node then tears every in-flight transfer
            sim.schedule(1.0, paper_cluster.kill_node, 1)
            rep = yield from ck.recover(0)
            return rep

        rep = sim.run_process(proc())
        # pre-fix: ~6 GB of never-completed survivor transfers were charged
        assert rep.network_bytes == 0
        assert rep.reconstructed == {}

    def test_successful_recovery_still_accounts_transfers(
        self, paper_cluster, sim, rng
    ):
        ck = dvdc(paper_cluster)

        def proc():
            yield from ck.run_cycle()
            paper_cluster.kill_node(0)
            rep = yield from ck.recover(0)
            return rep

        rep = sim.run_process(proc())
        assert sorted(rep.reconstructed) == [0, 4, 8]
        # three groups x two remote survivors x 1 GB, plus restore
        # shipments for members rebuilt away from their parity node
        assert rep.network_bytes >= 6e9


class TestRespreadSourceDiesMidMove:
    """Heal's member pass pauses a member, ships it, and resumes it.  A
    source node that died mid-move used to have its (failed) VM resumed:
    ``VMError: cannot resume a failed VM`` out of the heal."""

    def test_the_dead_member_is_left_to_recovery(self):
        from repro.geo import GeoConfig, build_geo_scenario
        from repro.perf.scale import run_epochs

        cfg = GeoConfig(n_nodes=12, n_sites=3, policy="geo-spread")
        sim, cluster, ck, _, geo, rngs, _ = build_geo_scenario(cfg)
        run_epochs(sim, cluster, ck, rngs, cfg)
        site = geo.nodes_in_site(0)
        cluster.topology.set_site_wan_up(0, False, reason="site outage")
        for node_id in site:
            cluster.kill_node(node_id)
        sim.run_process(ck.recover(site[0]))
        for node_id in site:
            cluster.repair_node(node_id)
        cluster.topology.set_site_wan_up(0, True, reason="site repaired")

        transfer = ck._transfer
        killed = []  # (vm, source node) of the first member move

        def kill_first_source(src, dst, size, label):
            if label.startswith("respread.") and not killed:
                killed.append((int(label.removeprefix("respread.vm")), src))
                sim.schedule(1e-3, cluster.kill_node, src)
            return transfer(src, dst, size, label)

        ck._transfer = kill_first_source
        sim.run_process(ck.heal())
        assert killed
        vm_id, src = killed[0]
        assert not cluster.node(src).alive
        vm = cluster.vm(vm_id)
        assert vm.state == VMState.FAILED and vm.node_id is None


class TestEndpointDiesInLatencyPhase:
    """A node crash tears down the flows it sends or receives, including
    those still in their latency phase.  They used to be admitted after
    the crash and delivered: ``flow.ok is True`` on a dead endpoint."""

    def _flows(self):
        from repro.network import SwitchedTopology
        from repro.sim import Simulator

        sim = Simulator()
        topo = SwitchedTopology(sim, 3, latency=0.010)
        doomed = topo.transfer(0, 1, 1e6, "doomed")
        inbound = topo.transfer(2, 0, 1e6, "inbound")
        bystander = topo.transfer(1, 2, 1e6, "bystander")
        return sim, topo, (doomed, inbound, bystander)

    @pytest.mark.parametrize("tear_down, error", [
        ("abort_node_flows", "NetworkError"),
        ("drop_node_flows", "TransientNetworkError"),
    ])
    def test_latent_flows_fail_and_bystanders_deliver(self, tear_down, error):
        sim, topo, (doomed, inbound, bystander) = self._flows()
        torn = []
        sim.schedule(1e-3, lambda: torn.append(getattr(topo, tear_down)(0)))
        sim.run()
        assert torn == [2]
        for flow in (doomed, inbound):
            assert flow.ok is False
            assert type(flow.value).__name__ == error
            assert flow.finished_at == pytest.approx(1e-3)
        assert bystander.ok is True and bystander.value is bystander
        assert not topo.network._latent
        assert not topo.tx[0].flows and not topo.rx[0].flows
