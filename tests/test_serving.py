"""repro.serving — PS engine, cells, policies, and the SLA controller.

The queueing-theory anchors here are the real tests: the exact PS
engine must reproduce the closed-form M/M/1-PS mean sojourn, stalls
must delay completions by exactly the stall width, and the policy
comparisons (checkpoint inflates p99, SLA control deflates it, cloning
eats crash loss) must hold on seeded traces.
"""

import numpy as np
import pytest

from repro.audit.invariants import audit_cluster
from repro.core.architectures import dvdc
from repro.failures.injector import FailureEvent, FailureInjector, FailureSchedule
from repro.serving import (
    ArrivalChunk,
    ArrivalConfig,
    OpenLoopArrivals,
    PSServer,
    ServingEngine,
    ServingLoad,
    ServingPolicy,
    SLAController,
    policies_named,
    run_serving_cell,
    run_serving_study,
)
from repro.serving.runtime import ServingRuntime
from repro.sim import RngRegistry, Tracer
from repro.workloads.generators import scaled_scenario


# ---------------------------------------------------------------------------
# arrival streams


class TestArrivalConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            ArrivalConfig(rate=0.0)
        with pytest.raises(ValueError, match="n_requests"):
            ArrivalConfig(n_requests=0)
        with pytest.raises(ValueError, match="service_mean"):
            ArrivalConfig(service_mean=-1.0)
        with pytest.raises(ValueError, match="service_dist"):
            ArrivalConfig(service_dist="pareto")
        with pytest.raises(ValueError, match="chunk_requests"):
            ArrivalConfig(chunk_requests=0)


class TestOpenLoopArrivals:
    def test_stream_shape_and_statistics(self):
        cfg = ArrivalConfig(rate=100.0, n_requests=50_000, service_mean=0.05)
        chunks = list(OpenLoopArrivals(cfg, RngRegistry(7)).chunks())
        times = np.concatenate([c.times for c in chunks])
        service = np.concatenate([c.service for c in chunks])
        assert times.size == service.size == 50_000
        assert np.all(np.diff(times) > 0)  # strictly increasing
        # seeded law-of-large-numbers sanity, not a statistical test
        assert np.mean(np.diff(times)) == pytest.approx(0.01, rel=0.05)
        assert service.mean() == pytest.approx(0.05, rel=0.05)

    def test_lognormal_hits_requested_mean(self):
        cfg = ArrivalConfig(
            n_requests=200_000, service_dist="lognormal", service_mean=0.03
        )
        chunks = OpenLoopArrivals(cfg, RngRegistry(7)).chunks()
        service = np.concatenate([c.service for c in chunks])
        assert service.mean() == pytest.approx(0.03, rel=0.05)

    def test_request_ids_are_contiguous(self):
        cfg = ArrivalConfig(n_requests=10_000, chunk_requests=4096)
        chunks = list(OpenLoopArrivals(cfg, RngRegistry(0)).chunks())
        assert [c.start_id for c in chunks] == [0, 4096, 8192]
        assert [c.n for c in chunks] == [4096, 4096, 1808]

    def test_clone_sampler_leaves_primary_stream_alone(self):
        reg1, reg2 = RngRegistry(5), RngRegistry(5)
        a1 = OpenLoopArrivals(ArrivalConfig(n_requests=1000), reg1)
        a2 = OpenLoopArrivals(ArrivalConfig(n_requests=1000), reg2)
        draw = a2.clone_sampler()
        sampled = [draw() for _ in range(100)]
        assert all(s > 0 for s in sampled)
        t1 = np.concatenate([c.service for c in a1.chunks()])
        t2 = np.concatenate([c.service for c in a2.chunks()])
        np.testing.assert_array_equal(t1, t2)


# ---------------------------------------------------------------------------
# the exact PS engine


def _single_server_engine(**kw):
    return ServingEngine([PSServer(0)], **kw)


def _chunk(times, service, start_id=0):
    return ArrivalChunk(
        start_id,
        np.asarray(times, dtype=np.float64),
        np.asarray(service, dtype=np.float64),
    )


class TestPSServerEngine:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ServingEngine([])
        with pytest.raises(ValueError, match="clone"):
            _single_server_engine(clone=0)

    def test_single_request_departs_after_its_demand(self):
        eng = _single_server_engine()
        eng.feed(_chunk([1.0], [2.5]))
        eng.advance_to(10.0)
        t, lat, rid, sid = eng.take_completions()
        assert t.tolist() == [3.5]
        assert lat.tolist() == [2.5]
        assert rid.tolist() == [0] and sid.tolist() == [0]

    def test_two_requests_share_the_processor(self):
        # both arrive at 0 with demand 1: each gets half capacity, both
        # finish at exactly t=2 (PS fluid sharing)
        eng = _single_server_engine()
        eng.feed(_chunk([0.0, 0.0], [1.0, 1.0]))
        eng.advance_to(10.0)
        t, lat, _, _ = eng.take_completions()
        assert t.tolist() == [2.0, 2.0]
        assert lat.tolist() == [2.0, 2.0]

    def test_stall_delays_completion_by_exactly_its_width(self):
        eng = _single_server_engine()
        eng.feed(_chunk([0.0], [1.0]))
        eng.stall_begin(0.25)
        eng.stall_end(0.75)  # 0.5 s frozen
        eng.advance_to(10.0)
        t, lat, _, _ = eng.take_completions()
        assert t.tolist() == [1.5]
        assert lat.tolist() == [1.5]

    def test_crash_sheds_in_flight_and_unroutes_arrivals(self):
        eng = _single_server_engine()
        eng.feed(_chunk([0.0, 1.0], [5.0, 1.0]))
        eng.set_down(0.5, [0])
        eng.advance_to(2.0)
        assert eng.lost == 1  # the in-flight request
        assert eng.lost_unrouted == 1  # the arrival with nowhere to go
        assert eng.outstanding == 0

    def test_recovery_resumes_service(self):
        eng = _single_server_engine()
        eng.set_down(0.0, [0])
        eng.set_up(2.0, [0])
        eng.feed(_chunk([3.0], [1.0]))
        eng.advance_to(10.0)
        t, _, _, _ = eng.take_completions()
        assert t.tolist() == [4.0]

    def test_mm1_ps_mean_sojourn_matches_closed_form(self):
        # M/M/1-PS: E[T] = s / (1 - rho); rho=0.8, s=0.01 -> 50 ms
        cfg = ArrivalConfig(
            rate=80.0, n_requests=40_000, service_mean=0.01,
            chunk_requests=8192,
        )
        eng = _single_server_engine()
        lats = []
        for chunk in OpenLoopArrivals(cfg, RngRegistry(21)).chunks():
            eng.feed(chunk)
            eng.advance_to(chunk.end)
            lats.append(eng.take_completions()[1])
        eng.advance_to(1e9)
        lats.append(eng.take_completions()[1])
        lat = np.concatenate(lats)
        assert lat.size == 40_000
        assert lat.mean() == pytest.approx(0.05, rel=0.10)


class TestCloning:
    def test_first_completion_wins_and_cancels_sibling(self):
        demands = iter([5.0])  # the sibling draws a slow copy
        eng = ServingEngine(
            [PSServer(0), PSServer(1)], clone=2,
            clone_demand=lambda: next(demands),
        )
        eng.feed(_chunk([0.0], [1.0]))
        eng.advance_to(10.0)
        t, lat, rid, sid = eng.take_completions()
        assert t.tolist() == [1.0]  # the fast copy's finish, not 5.0
        assert rid.tolist() == [0] and sid.tolist() == [0]
        assert eng.completed == 1 and eng.outstanding == 0
        # the cancelled sibling left no residue
        assert eng.servers[1].n == 0 and not eng.servers[1].jobs

    def test_clone_without_sampler_shares_the_demand(self):
        eng = ServingEngine([PSServer(0), PSServer(1)], clone=2)
        eng.feed(_chunk([0.0], [1.0]))
        eng.advance_to(10.0)
        t, _, _, _ = eng.take_completions()
        assert t.tolist() == [1.0]
        assert eng.completed == 1

    def test_cloned_request_survives_one_crash(self):
        eng = ServingEngine([PSServer(0), PSServer(1)], clone=2)
        eng.feed(_chunk([0.0], [1.0]))
        eng.set_down(0.5, [0])  # primary dies mid-service
        eng.advance_to(10.0)
        t, _, _, sid = eng.take_completions()
        assert eng.completed == 1 and eng.lost == 0
        assert sid.tolist() == [1]

    def test_cloned_request_lost_only_when_all_replicas_die(self):
        eng = ServingEngine([PSServer(0), PSServer(1)], clone=2)
        eng.feed(_chunk([0.0], [1.0]))
        eng.set_down(0.2, [0])
        eng.set_down(0.4, [1])
        eng.advance_to(10.0)
        assert eng.completed == 0 and eng.lost == 1
        assert eng.outstanding == 0

    def test_clone_routes_to_distinct_live_replicas(self):
        eng = ServingEngine([PSServer(0), PSServer(1), PSServer(2)], clone=2)
        eng.set_down(0.0, [1])
        eng.feed(_chunk([1.0, 1.0], [1.0, 1.0], start_id=0))
        eng.advance_to(0.99)
        # rid 0 -> base 0 -> [0, 2] (1 is down); rid 1 -> base 1 -> [2, 0]
        eng.advance_to(5.0)
        assert eng.completed == 2 and eng.lost_unrouted == 0


# ---------------------------------------------------------------------------
# policy / load validation


class TestPolicies:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="clone"):
            ServingPolicy("bad", clone=0)
        with pytest.raises(ValueError, match="sla"):
            ServingPolicy("bad", sla=True)
        with pytest.raises(ValueError, match="interval"):
            ServingPolicy("bad", checkpoint=True, interval=0.0)

    def test_policies_named(self):
        assert [p.name for p in policies_named(["clone2", "baseline"])] == [
            "clone2", "baseline"
        ]
        with pytest.raises(ValueError, match="unknown policy"):
            policies_named(["chaos"])


# ---------------------------------------------------------------------------
# SLA controller (unit)


class _Knob:
    interval = 10.0


class TestSLAController:
    def test_validation(self):
        with pytest.raises(ValueError, match="slo_p99"):
            SLAController(_Knob(), 0.0)
        with pytest.raises(ValueError, match="min_interval"):
            SLAController(_Knob(), 0.2, min_interval=10.0, max_interval=1.0)
        with pytest.raises(ValueError, match="relax"):
            SLAController(_Knob(), 0.2, relax=1.0)

    def test_breach_relaxes_the_interval(self):
        knob = _Knob()
        ctl = SLAController(knob, 0.2, min_interval=1.0, max_interval=100.0)
        ctl.update(5.0, np.full(100, 0.5))  # p99 way over SLO
        assert knob.interval == pytest.approx(16.0)
        assert ctl.breaches == 1 and ctl.windows == 1
        assert ctl.actions[0][2:] == (10.0, 16.0)

    def test_comfortable_p99_tightens_back(self):
        knob = _Knob()
        ctl = SLAController(knob, 0.2, min_interval=1.0, max_interval=100.0)
        ctl.update(5.0, np.full(100, 0.01))  # far under headroom
        assert knob.interval == pytest.approx(8.5)
        assert ctl.breaches == 0

    def test_in_band_holds(self):
        knob = _Knob()
        ctl = SLAController(knob, 0.2, min_interval=1.0, max_interval=100.0)
        ctl.update(5.0, np.full(100, 0.15))  # between headroom and SLO
        assert knob.interval == 10.0
        assert ctl.actions == []

    def test_clamping_both_ways(self):
        knob = _Knob()
        ctl = SLAController(knob, 0.2, min_interval=9.0, max_interval=12.0)
        ctl.update(1.0, np.full(10, 1.0))
        assert knob.interval == 12.0  # clamped relax
        ctl.update(2.0, np.full(10, 0.001))
        ctl.update(3.0, np.full(10, 0.001))
        assert knob.interval == 9.0  # clamped tighten

    def test_empty_window_is_ignored(self):
        ctl = SLAController(_Knob(), 0.2)
        ctl.update(1.0, np.empty(0))
        assert ctl.windows == 0

    def test_summary_shape(self):
        knob = _Knob()
        ctl = SLAController(knob, 0.2, min_interval=1.0, max_interval=100.0)
        ctl.update(1.0, np.full(10, 1.0))
        s = ctl.summary()
        assert s["breaches"] == 1 and s["windows"] == 1
        assert s["adjustments"] == 1
        assert s["interval_final"] == pytest.approx(knob.interval)
        assert 0.0 <= s["breach_rate"] <= 1.0


# ---------------------------------------------------------------------------
# full serving cells: the policy comparisons the ISSUE gates


QUICK = ServingLoad(n_requests=6000)
CRASHY = ServingLoad(n_requests=6000, node_mtbf=60.0)


class TestServingCell:
    def test_report_contract(self):
        rep = run_serving_cell(ServingPolicy("baseline"), QUICK, 0)
        assert rep["offered"] == 6000
        assert rep["completed"] == 6000
        assert rep["lost"] == 0 and rep["lost_unrouted"] == 0
        assert rep["drained"] is True
        assert set(rep["latency"]) == {
            "mean", "max", "p50", "p95", "p99", "p999"
        }
        assert len(rep["digest"]) == 64
        assert rep["policy"] == "baseline" and rep["trace_seed"] == 0

    def test_cell_is_deterministic(self):
        a = run_serving_cell(ServingPolicy("baseline"), QUICK, 3)
        b = run_serving_cell(ServingPolicy("baseline"), QUICK, 3)
        assert a == b

    def test_checkpoint_pauses_inflate_p99(self):
        base = run_serving_cell(ServingPolicy("baseline"), QUICK, 0)
        ck = run_serving_cell(
            ServingPolicy("ck", checkpoint=True, interval=1.0), QUICK, 0
        )
        assert ck["pauses"] > 3
        assert ck["pause_seconds"] > 0
        # the pause windows must show up in the tail, visibly
        assert ck["latency"]["p99"] > base["latency"]["p99"] * 1.05
        # ... and nothing is lost: pauses stall, they don't drop
        assert ck["lost"] == 0 and ck["completed"] == 6000

    def test_sla_controller_deflates_the_checkpoint_tail(self):
        load = ServingLoad(n_requests=20_000)
        fixed = run_serving_cell(
            ServingPolicy("ck", checkpoint=True, interval=1.0), load, 0
        )
        sla = run_serving_cell(
            ServingPolicy(
                "sla", checkpoint=True, sla=True, interval=1.0
            ),
            load, 0,
        )
        assert sla["sla"]["adjustments"] > 0
        assert sla["interval_final"] > 1.0  # it relaxed the cadence
        assert sla["pause_seconds"] < fixed["pause_seconds"]
        assert sla["latency"]["p99"] < fixed["latency"]["p99"]

    def test_cloning_eats_crash_loss(self):
        base = run_serving_cell(ServingPolicy("baseline"), CRASHY, 0)
        clone = run_serving_cell(ServingPolicy("clone2", clone=2), CRASHY, 0)
        assert base["failures"] > 0
        assert base["lost"] > 0
        assert clone["failures"] == base["failures"]  # same trace
        assert clone["lost"] == 0 and clone["lost_unrouted"] == 0
        assert clone["completed"] == 6000

    def test_iid_clone_demands_cut_the_tail(self):
        base = run_serving_cell(ServingPolicy("baseline"), QUICK, 0)
        clone = run_serving_cell(ServingPolicy("clone2", clone=2), QUICK, 0)
        assert clone["latency"]["p99"] < base["latency"]["p99"]

    def test_degraded_windows_attributed_per_group(self, monkeypatch):
        """A crash opens a window labelled with every group that has a
        member or a shard on the node; ``none`` only when it holds
        neither."""
        windows = []  # (groups the node held, labels the window got)
        on_failure = ServingRuntime._on_failure

        def spy(runtime, event):
            node = event.node_id
            if runtime.cluster.node(node).alive:
                layout = runtime.ck.layout
                held = {layout.group_of(vm.vm_id).group_id
                        for vm in runtime.cluster.vms_on(node)}
                held |= {g.group_id for g in layout.groups_with_parity_on(node)}
                on_failure(runtime, event)
                windows.append((held, runtime._open_outages[node][1]))
            else:
                on_failure(runtime, event)

        monkeypatch.setattr(ServingRuntime, "_on_failure", spy)
        rep = run_serving_cell(
            ServingPolicy("ck", checkpoint=True, interval=1.0), CRASHY, 0
        )
        assert len(windows) == rep["failures"] > 0
        for held, labels in windows:
            assert labels == ([str(g) for g in sorted(held)] or ["none"])
        # parity-group labels: the checkpointer places groups on nodes
        assert any(held for held, _ in windows)
        assert rep["degraded_seconds"]  # outage windows recorded
        assert rep["degraded_requests"]
        assert all(v > 0 for v in rep["degraded_requests"].values())

    def test_unprotected_outages_attributed_to_none(self):
        rep = run_serving_cell(ServingPolicy("baseline"), CRASHY, 0)
        assert set(rep["degraded_seconds"]) == {"none"}


class TestBeyondTolerance:
    @pytest.mark.parametrize("node_mtbf", [1200.0, 300.0])
    def test_every_crash_is_recovered_or_salvaged(self, node_mtbf):
        """``serving run --policy checkpoint --requests 20000`` at seed 0:
        overlapping crashes inside the repair wait cost an XOR group two
        members.  The loss is salvaged (reprovisioned, then a fresh
        epoch), so later recoveries succeed and the cadence resumes."""
        tracer = Tracer()
        rep = run_serving_cell(
            policies_named(["checkpoint"])[0],
            ServingLoad(n_requests=20_000, node_mtbf=node_mtbf), 0,
            tracer=tracer,
        )
        assert rep["unrecoverable"] == 0 and rep["salvaged"] > 0
        assert rep["recoveries"] + rep["salvaged"] == rep["failures"]
        assert rep["drained"] is True
        done = tracer.select(kind="serving.done")[0].time
        cycles = [r.time for r in tracer.select(kind="diskless.cycle")]
        salvages = [r.time for r in tracer.select(kind="serving.salvage")]
        serving_salvages = [t for t in salvages if t < done]
        assert serving_salvages
        # the salvage epoch commits before its event; cadence cycles follow
        assert any(t > max(serving_salvages) for t in cycles)


class TestLayoutStaysSpread:
    """Recovery lands rebuilt VMs where the nodes allow; the runtime
    heals after each drain and settles before each cycle, so a node
    crash costs each group at most one element again."""

    def test_every_full_strength_cycle_starts_on_a_valid_layout(
            self, monkeypatch):
        """Without heal, every VM and every shard of the crashy cell
        piled onto one node, and every cycle that started with the whole
        cluster up started on an invalid layout."""
        from repro.core import validate_layout
        from repro.core.dvdc import DisklessCheckpointer

        run_cycle = DisklessCheckpointer.run_cycle
        starts = []  # layout verdict at each full-strength cycle start

        def spy(ck, *args, **kwargs):
            cluster = ck.cluster
            if (all(n.alive for n in cluster.nodes)
                    and all(vm.node_id is not None for vm in cluster.all_vms)):
                starts.append(validate_layout(
                    ck.layout, cluster, tolerance=ck.scheme.tolerance,
                    domains=ck.domains,
                ).ok)
            return run_cycle(ck, *args, **kwargs)

        monkeypatch.setattr(DisklessCheckpointer, "run_cycle", spy)
        rep = run_serving_cell(policies_named(["checkpoint"])[0], CRASHY, 0)
        assert rep["failures"] > 0
        assert len(starts) > 1 and all(starts), starts

    def test_a_moved_vm_is_shed_with_its_new_node(self):
        """The crashed node's replicas are the VMs the cluster hosts
        there, wherever recovery or heal moved them."""
        sc = scaled_scenario(
            4, 2, vm_memory=float(16 << 20), seed=0, image_pages=16, page_size=64,
        )
        arrivals = OpenLoopArrivals(
            ArrivalConfig(rate=200.0, n_requests=2000), sc.rngs
        )
        kill = FailureEvent(time=5.0, node_id=1, ordinal=0)
        injector = FailureInjector(sc.sim, 4, schedule=FailureSchedule([kill]))
        runtime = ServingRuntime(sc, arrivals, injector=injector)
        vm = sc.cluster.vms_on(0)[0]
        sc.cluster.move_vm(vm.vm_id, 1)  # as heal moves a member
        hosted = sorted(
            runtime._sid_by_vm[v.vm_id] for v in sc.cluster.vms_on(1)
        )
        injector.start()
        runtime.start()
        sc.sim.run(until=6.0)
        shed = runtime._open_outages[1][2]
        assert runtime._sid_by_vm[vm.vm_id] in shed
        assert shed == hosted and len(hosted) == 3


class TestConcurrentKills:
    def test_simultaneous_node_kills_within_tolerance_both_recover(self):
        """Two nodes die at the same instant under RS(4,2).  Each crash
        gets its own recovery, but ``recover`` rebuilds every lost VM:
        run concurrently, the second re-placed VMs the first had already
        hosted and was written off as unrecoverable."""
        sc = scaled_scenario(
            8, 2, vm_memory=float(16 << 20), seed=0, image_pages=16, page_size=64,
        )
        ck = dvdc(sc.cluster, group_size=4, scheme="rs-4-2")
        arrivals = OpenLoopArrivals(
            ArrivalConfig(rate=200.0, n_requests=4000), sc.rngs
        )
        kills = [FailureEvent(time=5.0, node_id=n, ordinal=0) for n in (1, 2)]
        injector = FailureInjector(sc.sim, 8, schedule=FailureSchedule(kills))
        runtime = ServingRuntime(
            sc, arrivals, checkpointer=ck, injector=injector,
            repair_time=2.0, interval=1.0,
        )
        injector.start()
        runtime.start()
        sc.sim.run(until=2000.0)
        assert runtime.unrecoverable == []
        assert runtime.n_failures == 2 and runtime.n_recoveries == 2
        assert not runtime._shed  # both nodes' replicas are back up
        assert all(vm.node_id is not None for vm in sc.cluster.all_vms)
        assert runtime.report()["drained"] is True
        audit = audit_cluster(
            sc.cluster, ck.layout, ck.committed_epoch, strict=True,
            scheme=ck.scheme,
        )
        assert audit.fatal == []


class TestNothingFailsSilently:
    def test_a_bug_in_recover_fails_the_cell(self, monkeypatch):
        """Only :class:`~repro.checkpoint.Unrecoverable` is fate.  Any
        other exception out of ``recover`` is a bug: it ends the cell
        at the first crash's recovery instead of being counted away
        (this shape calls ``recover`` 12 times)."""
        from repro.core.dvdc import DisklessCheckpointer
        from repro.serving.study import build_serving_cell

        calls = []

        def recover(self, failed_node_id):
            calls.append(self.cluster.sim.now)
            raise ValueError("bug in recover")
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(DisklessCheckpointer, "recover", recover)
        run = build_serving_cell(
            policies_named(["checkpoint"])[0],
            ServingLoad(n_requests=20_000, node_mtbf=300.0), 0,
        )
        with pytest.raises(ValueError, match="bug in recover"):
            run()
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# study orchestration


class TestServingStudy:
    def test_study_runs_all_policies_in_order(self, tmp_path):
        load = ServingLoad(n_requests=2000)
        policies = policies_named(["baseline", "clone2"])
        outcome, result = run_serving_study(
            policies, load, seeds=2, store=str(tmp_path / "store")
        )
        assert [c["policy"] for c in outcome.cells] == [
            "baseline", "baseline", "clone2", "clone2"
        ]
        assert [c["trace_seed"] for c in outcome.cells] == [0, 1, 0, 1]
        table = outcome.summary_table()
        assert "baseline" in table and "clone2" in table
        assert result.n_failed == 0

    def test_mean_quantile_over_seeds(self, tmp_path):
        load = ServingLoad(n_requests=2000)
        outcome, _ = run_serving_study(
            policies_named(["baseline"]), load, seeds=2,
            store=str(tmp_path / "store"),
        )
        per_seed = [c["latency"]["p99"] for c in outcome.cells]
        assert outcome.mean_quantile("baseline", "p99") == pytest.approx(
            float(np.mean(per_seed))
        )
