"""The five benchmark workloads.

Each workload is a ``setup(seed, smoke)`` that builds a ready scenario
and a ``run(ctx, spans)`` that drives it — the measured region — and
returns an :class:`Outcome`.  Both call only public functions of
``repro``; every input (image bytes, dirty pages, outage sites, crash
victims, arrivals) derives from ``RngRegistry(seed)``.  ``smoke`` keeps
the code path and shrinks epochs, requests and (for ``epoch_scale``)
nodes so the self-tests finish in seconds.

Why these five, and which layer dominates each, is in ``README.md`` and
in ``BENCHMARK.json``; sizes are fixed so the same seed gives the same
digests on every pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.audit import audit_cluster
from repro.checkpoint.strategies import IncrementalCapture
from repro.cluster.checksum import block_checksum
from repro.cluster.cluster import ClusterSpec, VirtualCluster
from repro.cluster.vm import VMState
from repro.controlplane.scheduler import PlacementEngine
from repro.core.architectures import dvdc
from repro.failures.injector import FailureEvent, FailureInjector, FailureSchedule
from repro.geo.study import GeoConfig, build_geo_scenario, respread_groups
from repro.geo.topology import GeoSpec, geo_cluster_spec
from repro.perf.scale import ScaleConfig, build_scale_scenario
from repro.serving.arrivals import ArrivalConfig, OpenLoopArrivals, stream_digest
from repro.serving.runtime import ServingRuntime
from repro.sim import Simulator, Tracer
from repro.sim.rng import RngRegistry

from tracing import Spans


@dataclass
class Outcome:
    """What one measured region produced, beyond the spans."""

    epochs: int = 0                  # committed epochs
    events: int = 0                  # sim.event_count at the end
    requests: int = 0                # requests offered (serving_cell)
    attempted: int = 0               # operations tried ...
    failed: int = 0                  # ... and those that went wrong
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    sim: dict[str, float] = field(default_factory=dict)   # simulated metrics
    #: workload-specific digests, beside the runner's scenario_digests
    digests: dict[str, str] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool], object]
    run: Callable[[object, Spans], Outcome]


# ----------------------------------------------------------------------
# shared steps
# ----------------------------------------------------------------------
#: Events per ``sim.run`` span.  Chunked runs execute the same events in
#: the same order as one long run; short spans are what lets the runner's
#: per-step medians see through bursts of machine noise.
RUN_CHUNK = 2048


def _run_sim(sim, spans: Spans, until: float = math.inf) -> None:
    """``sim.run`` in chunks; these spans are what ``events_per_s``
    divides by, so workload generation stays outside."""
    while True:
        before = sim.event_count
        with spans.span("sim.run"):
            sim.run(until=until, max_events=RUN_CHUNK)
        if sim.event_count - before < RUN_CHUNK:
            return


def _drive(sim, gen, spans: Spans):
    """Run one protocol process to completion and return its value."""
    proc = sim.process(gen)
    _run_sim(sim, spans)
    if proc.ok is False:
        raise proc.value
    return proc.value


def _dirty(cluster, rngs, pages: int, n_dirty: int, spans: Spans) -> int:
    """Every VM scribbles ``n_dirty`` seeded pages; returns pages dirtied."""
    dirtied = 0
    with spans.span("phase.dirty"):
        for vm in cluster.all_vms:
            rng = rngs.stream(f"dirty/vm{vm.vm_id}")
            vm.image.touch_pages(rng.integers(0, pages, size=n_dirty), rng)
            dirtied += vm.image.dirty_page_count
    return dirtied


def _cycle(sim, ck, spans: Spans, out: Outcome) -> None:
    with spans.span("phase.cycle"):
        result = _drive(sim, ck.run_cycle(), spans)
    out.op(result.committed, f"epoch {result.epoch} did not commit")


def _committed_checksums(cluster) -> dict[int, int]:
    sums = {}
    for node in cluster.nodes:
        for vm_id, img in node.checkpoint_store.items():
            if isinstance(img.payload, np.ndarray):
                sums[vm_id] = block_checksum(img.payload_flat())
    return sums


def _cycle_accounting(sim, cluster, ck, out: Outcome) -> None:
    """Exact counts and simulated pause read off the public results."""
    committed = [r for r in ck.history if r.committed]
    out.epochs = len(committed)
    out.events = sim.event_count
    c = out.counts
    c["sim.events"] = sim.event_count
    c["sim.compactions"] = sim.compactions
    c["network.bytes"] = sum(r.network_bytes for r in ck.history)
    c["network.wan_bytes"] = float(getattr(cluster.topology, "wan_bytes", 0.0))
    c["core.epochs_committed"] = len(committed)
    c["core.epochs_aborted"] = len(ck.history) - len(committed)
    c["coding.bytes_encoded"] = sum(r.parity_bytes for r in ck.history)
    if committed:
        out.sim["sim_pause_s"] = sum(r.overhead for r in committed) / len(committed)


def _epoch_loop(ctx, spans: Spans) -> Outcome:
    """Dirty + checkpoint, ``ctx.epochs`` times: the paper's steady state."""
    out = Outcome()
    dirtied = []
    for _ in range(ctx.epochs):
        dirtied.append(
            _dirty(ctx.cluster, ctx.rngs, ctx.pages, ctx.n_dirty, spans)
        )
        _cycle(ctx.sim, ctx.ck, spans, out)
    _cycle_accounting(ctx.sim, ctx.cluster, ctx.ck, out)
    out.counts["cluster.pages_dirtied"] = sum(dirtied)
    # epoch 0 ships whole images (its dirty log is subsumed), later
    # epochs their dirty pages
    out.counts["cluster.bytes_committed"] = ctx.page_size * (
        len(ctx.cluster.vms) * ctx.pages + sum(dirtied[1:])
    )
    return out


# ----------------------------------------------------------------------
# epoch_scale
# ----------------------------------------------------------------------
def _setup_epoch_scale(seed: int, smoke: bool):
    cfg = ScaleConfig(n_nodes=64 if smoke else 4096, seed=seed)
    sim, cluster, ck, rngs, _ = build_scale_scenario(cfg)
    return SimpleNamespace(
        sim=sim, cluster=cluster, ck=ck, rngs=rngs,
        pages=cfg.image_pages, page_size=cfg.page_size,
        n_dirty=cfg.dirty_pages_per_vm, epochs=2,
    )


# ----------------------------------------------------------------------
# payload_xor / payload_rs
# ----------------------------------------------------------------------
PAYLOAD_PAGES, PAYLOAD_PAGE_SIZE, PAYLOAD_DIRTY = 512, 4096, 128


def _setup_payload(scheme: str, group_size: int, epochs: int):
    def setup(seed: int, smoke: bool):
        sim = Simulator()
        rngs = RngRegistry(seed)
        cluster = VirtualCluster(sim, ClusterSpec(n_nodes=40))
        hosts = PlacementEngine(cluster).spread(80)
        init = rngs.stream("image-init")
        for host in hosts:
            vm = cluster.create_vm(
                host, 1e9, dirty_rate=2e5,
                image_pages=PAYLOAD_PAGES, page_size=PAYLOAD_PAGE_SIZE,
            )
            vm.image.write(
                0, init.integers(0, 256, vm.image.nbytes, dtype=np.uint8)
            )
            vm.image.clear_dirty()
        ck = dvdc(
            cluster, group_size=group_size, strategy=IncrementalCapture(),
            scheme=scheme,
        )
        return SimpleNamespace(
            sim=sim, cluster=cluster, ck=ck, rngs=rngs,
            pages=PAYLOAD_PAGES, page_size=PAYLOAD_PAGE_SIZE,
            n_dirty=PAYLOAD_DIRTY, epochs=2 if smoke else epochs,
        )

    return setup


# ----------------------------------------------------------------------
# site_outage
# ----------------------------------------------------------------------
def _setup_site_outage(seed: int, smoke: bool):
    cfg = GeoConfig(
        n_nodes=120, n_sites=10, racks_per_site=2, vms_per_node=2,
        policy="geo-spread", scheme="rs-8-2", image_pages=64, page_size=256,
        dirty_pages_per_vm=16, seed=seed,
    )
    sim, cluster, ck, _rep, geo, rngs, _ = build_geo_scenario(cfg)
    site = int(rngs.stream("bench/outage-site").integers(0, cfg.n_sites))
    return SimpleNamespace(
        sim=sim, cluster=cluster, ck=ck, rngs=rngs, geo=geo, cfg=cfg, site=site,
    )


def _run_site_outage(ctx, spans: Spans) -> Outcome:
    """One epoch, then a whole-site outage: partition, kill, recover,
    repair, respread, heal, one converging epoch, strict audit.
    Survival is judged bit-exactly against the checksums logged at the
    commit, as ``repro.geo.study.run_geo_point`` does."""
    sim, cluster, ck, cfg = ctx.sim, ctx.cluster, ctx.ck, ctx.cfg
    out = Outcome()
    domains = ctx.geo.domain_map("site")
    dead = ctx.geo.nodes_in_site(ctx.site)

    def epoch() -> int:
        dirtied = _dirty(
            cluster, ctx.rngs, cfg.image_pages, cfg.dirty_pages_per_vm, spans
        )
        _cycle(sim, ck, spans, out)
        return dirtied

    dirtied = epoch()
    logged = _committed_checksums(cluster)
    with spans.span("phase.kill"):
        cluster.topology.set_site_wan_up(ctx.site, False, reason="site outage")
        for node_id in dead:
            cluster.kill_node(node_id)
    t_sim = sim.now
    with spans.span("phase.recover"):
        report = _drive(sim, ck.recover(dead[0]), spans)
    out.sim["sim_recover_s"] = sim.now - t_sim
    now = _committed_checksums(cluster)
    survived = all(
        vm.state != VMState.FAILED and vm.node_id is not None
        and now.get(vm.vm_id) == logged.get(vm.vm_id)
        for vm in cluster.all_vms
    )
    out.op(survived, f"loss of site {ctx.site} was not recovered bit-exactly")
    with spans.span("phase.kill"):
        for node_id in dead:
            cluster.repair_node(node_id)
        cluster.topology.set_site_wan_up(ctx.site, True, reason="site repaired")
    with spans.span("phase.respread"):
        moved = _drive(sim, respread_groups(ck, cluster, domains), spans)
    with spans.span("phase.heal"):
        healed = _drive(sim, ck.heal(), spans)
    dirtied += epoch()
    with spans.span("phase.audit"):
        audit = audit_cluster(
            cluster, ck.layout, ck.committed_epoch, strict=True,
            context="bench.site_outage", scheme=ck.scheme, domains=domains,
        )
    out.op(not audit.fatal, f"strict audit: {[str(v) for v in audit.fatal[:2]]}")
    _cycle_accounting(sim, cluster, ck, out)
    out.counts["network.bytes"] += report.network_bytes
    out.counts.update({
        "core.recoveries": 1,
        "core.members_rebuilt": len(report.reconstructed),
        "core.shards_reencoded": len(report.reencoded_groups) + len(healed),
        "geo.vms_respread": len(moved),
        "failures.injected": len(dead),
        "audit.audits": 1,
        "audit.fatal": len(audit.fatal),
        "cluster.pages_dirtied": dirtied,
    })
    return out


# ----------------------------------------------------------------------
# serving_cell
# ----------------------------------------------------------------------
SERVING_RATE = 2400.0


def _setup_serving_cell(seed: int, smoke: bool):
    """The whole stack composed from public constructors: geo fabric,
    domain-spread RS(8,2) DVDC, standalone serving runtime, open-loop
    arrivals, and a staggered single-node crash schedule."""
    n_nodes, n_sites = 40, 10
    n_requests = 60_000 if smoke else 300_000
    geo = GeoSpec(
        n_nodes=n_nodes, n_sites=n_sites, racks_per_site=2, wan_bandwidth=125e6
    )
    sim = Simulator()
    rngs = RngRegistry(seed)
    cluster = VirtualCluster(sim, geo_cluster_spec(geo))
    init = rngs.stream("image-init")
    for host in PlacementEngine(cluster).spread(2 * n_nodes):
        vm = cluster.create_vm(
            host, float(16 << 20), dirty_rate=2e5, image_pages=16, page_size=64
        )
        vm.image.write(0, init.integers(0, 256, 512, dtype=np.uint8))
        vm.image.clear_dirty()
    ck = dvdc(
        cluster, group_size=8, strategy=IncrementalCapture(),
        scheme="rs-8-2", domains=geo.domain_map("site"),
    )
    config = ArrivalConfig(
        rate=SERVING_RATE, n_requests=n_requests, service_mean=0.02,
        chunk_requests=16_384,
    )
    # single-node crashes, staggered 25 sim-s apart: simultaneous kills
    # race in the standalone runtime and Poisson schedules at this
    # density cluster beyond RS tolerance (both recorded in README.md)
    horizon = n_requests / SERVING_RATE
    times = np.arange(20.0, horizon, 25.0)
    victims = rngs.stream("bench/crash-nodes").integers(0, n_nodes, times.size)
    ordinal: dict[int, int] = {}
    events = []
    for t, node in zip(times.tolist(), victims.tolist()):
        events.append(FailureEvent(time=t, node_id=node, ordinal=ordinal.get(node, 0)))
        ordinal[node] = ordinal.get(node, 0) + 1
    injector = FailureInjector(sim, n_nodes, schedule=FailureSchedule(events))
    events_log = Tracer()  # the runtime's own few serving.* records only
    runtime = ServingRuntime(
        SimpleNamespace(sim=sim, cluster=cluster),
        OpenLoopArrivals(config, rngs),
        checkpointer=ck, injector=injector, repair_time=10.0, interval=1.0,
        tracer=events_log,
    )
    arrivals_digest = stream_digest(OpenLoopArrivals(config, RngRegistry(seed)))
    return SimpleNamespace(
        sim=sim, cluster=cluster, ck=ck, rngs=rngs, runtime=runtime,
        injector=injector, events_log=events_log, n_crashes=len(events),
        horizon=horizon * 50.0 + 1000.0, arrivals_digest=arrivals_digest,
    )


def _run_serving_cell(ctx, spans: Spans) -> Outcome:
    sim, runtime = ctx.sim, ctx.runtime
    out = Outcome()
    with spans.span("phase.serve"):
        ctx.injector.start()
        runtime.start()
        _run_sim(sim, spans, until=ctx.horizon)
    with spans.span("phase.report"):
        rep = runtime.report()
    _cycle_accounting(sim, ctx.cluster, ctx.ck, out)
    # requests shed by a crash and cycles a crash aborts are modelled
    # outcomes (exact counts below), not wrong outputs; a request the
    # engine cannot account for is
    lost = rep["lost"] + rep["lost_unrouted"]
    unaccounted = abs(rep["offered"] - rep["completed"] - lost)
    out.attempted += rep["offered"]
    out.failed += unaccounted
    if unaccounted:
        out.problems.append(f"{unaccounted} requests neither completed nor lost")
    out.op(rep["drained"], "request stream did not drain")
    out.op(rep["unrecoverable"] == 0, f"{rep['unrecoverable']} unrecoverable crashes")
    out.op(rep["recoveries"] == ctx.n_crashes,
           f"{rep['recoveries']} recoveries for {ctx.n_crashes} crashes")
    out.counts.update({
        "failures.injected": len(ctx.injector.delivered),
        "core.recoveries": rep["recoveries"],
        "serving.offered": rep["offered"],
        "serving.completed": rep["completed"],
        "serving.lost": lost,
        "serving.pauses": rep["pauses"],
    })
    if rep["cycles"]:
        out.sim["sim_pause_s"] = rep["pause_seconds"] / rep["cycles"]
    windows = [
        r["window"] for r in ctx.events_log.select(kind="serving.node_restored")
    ]
    if windows:
        out.sim["sim_recover_s"] = sum(windows) / len(windows)
    out.sim["sim_p99_s"] = rep["latency"].get("p99", 0.0)
    out.requests = rep["offered"]
    out.digests = {"serving": rep["digest"], "arrivals": ctx.arrivals_digest}
    return out


# ----------------------------------------------------------------------
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("epoch_scale", _setup_epoch_scale, _epoch_loop),
        Workload("payload_xor", _setup_payload("xor", 4, epochs=20), _epoch_loop),
        Workload("payload_rs", _setup_payload("rs-8-2", 8, epochs=2), _epoch_loop),
        Workload("site_outage", _setup_site_outage, _run_site_outage),
        Workload("serving_cell", _setup_serving_cell, _run_serving_cell),
    )
}
