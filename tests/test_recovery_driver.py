"""The one recovery loop: :class:`repro.core.recovery.RecoveryDriver`.

The job, the control plane, the serving runtime and the fuzzer all hand
failed nodes to it; these tests pin what they share: nodes recover
oldest first and one at a time, a crash before the first commit cold
starts, and :class:`~repro.checkpoint.base.Unrecoverable` reaches the
caller with the rest of the queue intact.
"""

from __future__ import annotations

import pytest

from repro.checkpoint.base import Unrecoverable
from repro.cluster import ClusterSpec, VirtualCluster, VMState
from repro.core.recovery import RecoveryDriver
from repro.sim import Simulator


class _Protocol:
    """A checkpointer stub: each ``recover`` takes one sim-second, logs
    its node and raises for the nodes in ``fatal``."""

    def __init__(self, cluster, committed_epoch=0, fatal=()):
        self.cluster = cluster
        self.committed_epoch = committed_epoch
        self.fatal = set(fatal)
        self.log: list[tuple[str, int, float]] = []

    def recover(self, node_id):
        self.log.append(("begin", node_id, self.cluster.sim.now))
        yield self.cluster.sim.timeout(1.0)
        if node_id in self.fatal:
            raise Unrecoverable(f"node {node_id} is beyond tolerance")
        self.log.append(("end", node_id, self.cluster.sim.now))
        return node_id

    def heal(self):
        self.log.append(("heal", -1, self.cluster.sim.now))
        return []
        yield  # pragma: no cover - makes this a generator


def _just(node_id, recovery):
    return (yield from recovery)


def _cluster(n_nodes=4, vms_per_node=2):
    sim = Simulator()
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
    for node in range(n_nodes):
        for _ in range(vms_per_node):
            cluster.create_vm(node, 1e6)
    return sim, cluster


def test_nodes_recover_oldest_first_one_at_a_time():
    sim, cluster = _cluster()
    ck = _Protocol(cluster)
    driver = RecoveryDriver(ck)
    assert driver.hand_over(2) is True  # nobody drains yet: the caller must
    assert driver.hand_over(0) is False

    def late_failure():
        yield sim.timeout(0.5)  # mid-recovery of node 2
        assert driver.hand_over(1) is False  # the running drain takes it

    sim.process(late_failure())
    reports = []

    def wrap(node_id, recovery):
        reports.append((node_id, (yield from recovery)))

    sim.run_process(driver.drain(wrap))
    assert [n for kind, n, _ in ck.log if kind == "begin"] == [2, 0, 1]
    # one at a time: each recovery begins when the previous one ended
    assert [t for kind, _, t in ck.log if kind == "begin"] == [0.0, 1.0, 2.0]
    assert reports == [(2, 2), (0, 0), (1, 1)]
    assert driver.queue == [] and driver.busy is False


def test_crash_before_the_first_commit_cold_starts():
    sim, cluster = _cluster()
    ck = _Protocol(cluster, committed_epoch=-1)
    lost = [vm.vm_id for vm in cluster.kill_node(1)]
    driver = RecoveryDriver(ck)
    driver.hand_over(1)
    reports = []

    def wrap(node_id, recovery):
        reports.append((yield from recovery))

    sim.run_process(driver.drain(wrap))
    assert ck.log == [] and reports == [None]  # nothing to restore
    for vm_id in lost:
        vm = cluster.vm(vm_id)
        assert vm.state == VMState.RUNNING and vm.node_id not in (None, 1)
    # each VM on the least-loaded live node: the two land on two nodes
    assert len({cluster.vm(v).node_id for v in lost}) == 2


def test_cold_start_without_a_live_node_is_unrecoverable():
    sim, cluster = _cluster(n_nodes=2, vms_per_node=1)
    for node in (0, 1):
        cluster.kill_node(node)
    driver = RecoveryDriver(_Protocol(cluster, committed_epoch=-1))
    driver.hand_over(0)
    with pytest.raises(Unrecoverable, match="no alive node"):
        sim.run_process(driver.drain(_just))


def test_unrecoverable_reaches_the_caller_with_the_queue_intact():
    sim, cluster = _cluster()
    ck = _Protocol(cluster, fatal={0})
    driver = RecoveryDriver(ck)
    for node in (3, 0, 2):
        driver.hand_over(node)
    with pytest.raises(Unrecoverable, match="node 0"):
        sim.run_process(driver.drain(_just))
    # node 3 recovered, node 0 failed and is dequeued, node 2 still waits
    assert [n for kind, n, _ in ck.log if kind == "end"] == [3]
    assert driver.queue == [2] and driver.busy is False
    # the next hand-over starts a drain that takes the rest, in order
    assert driver.hand_over(1) is True
    sim.run_process(driver.drain(_just))
    assert [n for kind, n, _ in ck.log if kind == "end"] == [3, 2, 1]


def test_a_heal_asked_for_mid_drain_starts_when_the_queue_empties():
    sim, cluster = _cluster()
    ck = _Protocol(cluster)
    driver = RecoveryDriver(ck)
    driver.hand_over(1)

    def repair_mid_drain():
        yield sim.timeout(0.5)
        driver.heal()  # a drain is running: deferred, not started

    sim.process(repair_mid_drain())
    sim.run_process(driver.drain(_just))
    sim.run()
    assert [kind for kind, _, _ in ck.log] == ["begin", "end", "heal"]
    assert ck.log[-1][2] == 1.0  # right after the recovery, not at 0.5
