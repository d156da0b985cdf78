"""The cyclic collector and the dispatch loop.

:meth:`repro.sim.engine.Simulator.run` freezes the heap it starts with,
so the collector walks only what a run makes.  That delays no
reclamation only while nothing dispatched makes cyclic garbage: every
object a run lets go of must be freed by refcounting alone.  These
tests pin both halves.

* Three composed cells run under ``gc.DEBUG_SAVEALL`` with every object
  they built still referenced; a collection afterwards must find no
  unreachable object at all.  A finished flow that stored itself as
  its own value was such a cycle, one per transfer.
* ``Simulator.run`` leaves the caller's collector state as it found it
  on every exit path, and leaves a caller's own ``gc.disable()`` or
  ``gc.freeze()`` alone.
* A flow's value is still the flow (or its error) without the cycle.
* A failure thrown through processes leaves no cycle either, and a
  failure nothing joins still reports every generator frame it
  unwound.
"""

from __future__ import annotations

import gc
import traceback
from collections import Counter

import pytest

from repro.network import NetworkError, SwitchedTopology
from repro.sim import AllOf, Simulator, StopSimulation
from repro.sim.engine import _RESTING_FREEZE_COUNT


def _cyclic_garbage(cell) -> Counter:
    """Type names of the objects ``cell()`` leaves for the collector.

    ``cell`` builds and runs a scenario and returns what it built, so
    the scenario itself stays reachable while the collector looks.
    Earlier garbage is collected first; a collection whose finalizers
    keep some of it alive leaves that for the next, hence the loop."""
    while gc.collect():
        pass
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        alive = cell()
        gc.collect()
        found = Counter(type(o).__name__ for o in gc.garbage)
        del alive
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    return found


def _scale_epoch_pair():
    from repro.perf import ScaleConfig, build_scale_scenario, run_epochs

    cfg = ScaleConfig(n_nodes=64, epochs=2)
    built = build_scale_scenario(cfg)
    sim, cluster, ckpt, rngs, _ = built
    run_epochs(sim, cluster, ckpt, rngs, cfg)
    assert ckpt.committed_epoch == 1
    return built


def _geo_site_outage():
    from repro.geo import GeoConfig, build_geo_scenario
    from repro.perf.scale import run_epochs

    cfg = GeoConfig(
        n_nodes=40, n_sites=10, racks_per_site=2, vms_per_node=2,
        policy="geo-spread", scheme="rs-8-2", epochs=1,
    )
    built = build_geo_scenario(cfg)
    sim, cluster, ck, _, geo, rngs, _ = built
    run_epochs(sim, cluster, ck, rngs, cfg)
    site = geo.nodes_in_site(3)
    cluster.topology.set_site_wan_up(3, False, reason="site outage")
    for node_id in site:
        cluster.kill_node(node_id)
    report = sim.run_process(ck.recover(site[0]))
    for node_id in site:
        cluster.repair_node(node_id)
    cluster.topology.set_site_wan_up(3, True, reason="site repaired")
    sim.run_process(ck.heal())
    assert report.reconstructed
    return built, report


def _crashy_serving_cell():
    from repro.serving import ServingLoad, policies_named
    from repro.serving.study import build_serving_cell

    run = build_serving_cell(
        policies_named(["checkpoint"])[0],
        ServingLoad(n_requests=6000, node_mtbf=60.0), 0,
    )
    report = run()
    assert report["failures"] > 0
    return run, report


@pytest.mark.parametrize("cell", [
    _scale_epoch_pair, _geo_site_outage, _crashy_serving_cell,
], ids=["scale-epochs", "geo-site-outage", "crashy-serving"])
def test_the_stack_makes_no_cyclic_garbage(cell):
    assert _cyclic_garbage(cell) == Counter()


# ----------------------------------------------------------------------
# Simulator.run and the caller's collector state
# ----------------------------------------------------------------------
def _raise():
    raise ValueError("callback bug")


def _stop():
    raise StopSimulation


def _sim_with_events() -> Simulator:
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    return sim


def _drain(sim):
    sim.run()


def _max_events(sim):
    sim.run(max_events=2)


def _until(sim):
    sim.run(until=2.5)


def _stopped(sim):
    sim.schedule(1.5, _stop)
    sim.run()


def _raising(sim):
    sim.schedule(1.5, _raise)
    with pytest.raises(ValueError, match="callback bug"):
        sim.run()


EXITS = [_drain, _max_events, _until, _stopped, _raising]


#: 0, except on CPython 3.12, whose full collections park the immortal
#: objects they meet in the frozen generation
REST = _RESTING_FREEZE_COUNT


class TestRunRestoresGcState:
    @pytest.mark.parametrize("exit_path", EXITS, ids=lambda f: f.__name__)
    def test_freeze_is_undone_on_every_exit(self, exit_path):
        assert gc.isenabled() and gc.get_freeze_count() <= REST
        seen = []
        sim = _sim_with_events()
        sim.schedule(0.5, lambda: seen.append(gc.get_freeze_count()))
        exit_path(sim)
        assert seen and seen[0] > REST  # the heap was frozen while dispatching
        assert gc.get_freeze_count() <= REST
        assert gc.isenabled()

    @pytest.mark.parametrize("exit_path", EXITS, ids=lambda f: f.__name__)
    def test_a_disabled_collector_is_left_alone(self, exit_path):
        seen = []
        sim = _sim_with_events()
        sim.schedule(0.5, lambda: seen.append(gc.get_freeze_count()))
        gc.disable()
        try:
            before = gc.get_freeze_count()
            exit_path(sim)
            assert not gc.isenabled()
            assert seen == [before]
            assert gc.get_freeze_count() == before
        finally:
            gc.enable()

    @pytest.mark.parametrize("exit_path", EXITS, ids=lambda f: f.__name__)
    def test_a_callers_freeze_is_left_alone(self, exit_path):
        sim = _sim_with_events()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            # made after the caller's freeze: a second freeze would
            # count them, an unfreeze would zero the count (frozen
            # objects the run frees only lower it)
            fresh = [[] for _ in range(1000)]
            exit_path(sim)
            assert 0 < gc.get_freeze_count() <= frozen
            del fresh
        finally:
            gc.unfreeze()
        assert gc.isenabled()

    def test_a_run_nested_in_a_callback_keeps_the_outer_freeze(self):
        inner = _sim_with_events()
        seen = []

        def nested():
            frozen = gc.get_freeze_count()
            fresh = [[] for _ in range(1000)]
            inner.run()
            seen.append(0 < gc.get_freeze_count() <= frozen)
            del fresh

        outer = Simulator()
        outer.schedule(1.0, nested)
        outer.run()
        assert seen == [True]
        assert inner.event_count == 5
        assert gc.get_freeze_count() <= REST


# ----------------------------------------------------------------------
# Flow value semantics without the self-reference
# ----------------------------------------------------------------------
class TestFlowValue:
    def _topo(self):
        sim = Simulator()
        return sim, SwitchedTopology(sim, 3, latency=1e-3)

    def test_yield_returns_the_flow(self):
        sim, topo = self._topo()
        started = []

        def proc():
            flow = topo.transfer(0, 1, 1e6)
            started.append(flow)
            got = yield flow
            return got

        got = sim.run_process(proc())
        assert got is started[0]
        assert got.ok is True and got.value is got

    def test_all_of_maps_each_index_to_its_flow(self):
        sim, topo = self._topo()
        flows = [topo.transfer(0, 1, 1e6), topo.transfer(1, 2, 2e6),
                 topo.transfer(2, 0, 0.0)]

        def proc():
            return (yield AllOf(sim, flows))

        values = sim.run_process(proc())
        assert list(values) == [0, 1, 2]
        assert all(values[i] is flow for i, flow in enumerate(flows))

    def test_an_aborted_flows_value_is_its_error(self):
        sim, topo = self._topo()
        flow = topo.transfer(0, 1, 1e6)
        sim.schedule(0.002, flow.abort, "sender crashed")
        sim.run()
        assert flow.ok is False
        assert isinstance(flow.value, NetworkError)
        assert "sender crashed" in str(flow.value)


# ----------------------------------------------------------------------
# Process failures without reference cycles
# ----------------------------------------------------------------------
def _failures_through_processes():
    sim = Simulator()
    topo = SwitchedTopology(sim, 2, latency=1e-3)

    def handled():
        flows = [topo.transfer(0, 1, 1e6)]
        try:
            yield AllOf(sim, flows)
        except NetworkError:
            return "handled"

    def child():
        flows = [topo.transfer(0, 1, 1e6)]
        yield AllOf(sim, flows)

    def parent():
        try:
            yield sim.process(child())
        except NetworkError as exc:
            return exc

    def reraised():
        try:
            yield sim.process(child())
        except NetworkError as exc:
            raise RuntimeError("rebuilt nothing") from exc

    def joiner(proc):
        try:
            yield proc
        except RuntimeError as exc:
            return exc

    procs = [sim.process(handled()), sim.process(parent()),
             sim.process(joiner(sim.process(reraised())))]
    sim.schedule(5e-3, topo.abort_node_flows, 0)
    sim.run()
    assert procs[0].value == "handled"
    assert isinstance(procs[1].value, NetworkError)
    assert isinstance(procs[2].value.__cause__, NetworkError)
    return sim, topo, procs


def _doomed(sim):
    yield sim.timeout(1.0)
    raise ValueError("boom")


def _raised_out_of(run):
    """A cell whose run raises a process's failure, caught here.  The
    helpers between hold no process: only the engine's frames do."""
    def cell():
        sim = Simulator()
        try:
            run(sim)
        except ValueError:
            return sim
        raise AssertionError("the run should have failed")
    return cell


def _unjoined(sim):
    sim.process(_doomed(sim))
    sim.run()


def _unjoined_through_a_parent(sim):
    def parent():
        yield sim.process(_doomed(sim))

    sim.process(parent())
    sim.run()


def _run_process(sim):
    sim.run_process(_doomed(sim))


class TestProcessFailures:
    def test_thrown_failures_leave_no_cyclic_garbage(self):
        assert _cyclic_garbage(_failures_through_processes) == Counter()

    @pytest.mark.parametrize(
        "run", [_unjoined, _unjoined_through_a_parent, _run_process],
        ids=["run", "parent", "run_process"],
    )
    def test_a_raising_run_leaves_no_cyclic_garbage(self, run):
        # the frames that re-raise the failure (the unjoined process's
        # callback, the dispatch loop, run_process) stay in its
        # traceback; none of them may hold the process or the failure
        assert _cyclic_garbage(_raised_out_of(run)) == Counter()

    def test_an_unjoined_failure_reports_every_generator_frame(self):
        def deep():
            raise ValueError("deep bug")

        def child(sim):
            yield sim.timeout(1.0)
            deep()

        def parent(sim):
            yield sim.process(child(sim))

        sim = Simulator()
        sim.process(parent(sim))
        with pytest.raises(ValueError, match="deep bug") as info:
            sim.run()
        names = [f.name for f in traceback.extract_tb(info.value.__traceback__)]
        assert names[-3:] == ["parent", "child", "deep"]
