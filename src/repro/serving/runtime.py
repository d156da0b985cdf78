"""Drive the serving engine through simulated cluster time.

:class:`ServingRuntime` is the bridge between the offline
:class:`~repro.serving.engine.ServingEngine` sweep and the discrete
event simulator.  It schedules exactly one wake per arrival chunk — a
LATE-priority event at the chunk's last arrival time, guaranteeing
every same-timestamp disruption handler has already appended its status
change before the sweep runs — then sweeps the whole window at once and
feeds the drained completions into telemetry in batch.

The runtime owns the checkpoint cadence: each cycle brackets
:meth:`DisklessCheckpointer.run_cycle` with engine stalls (barrier start
to barrier lift, surfaced by the cycle's ``pause_done`` event).  A
crashed node is handed to the recovery driver after its repair wait; a
loss beyond tolerance is salvaged, not left dark; the layout is healed
after the drain and settled before the next cycle.  This is what
``repro serving run|study`` uses.

Disruption accounting: every (node down → serving restored) interval is
a *degraded window* attributed to the parity groups with a member or a
shard on that node, exported per group as
``repro_requests_degraded_total{group=}`` and summed into the report —
the serving-side counterpart of the healer's per-group
``repro_degraded_window_seconds``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from ..checkpoint.base import Unrecoverable
from ..core.recovery import RecoveryDriver, salvage
from ..sim import LATE, NULL_TRACER, Tracer
from ..telemetry import probe_of
from .arrivals import OpenLoopArrivals
from .controller import SLAController
from .engine import PSServer, ServingEngine

__all__ = ["ServingRuntime", "build_servers"]

_INF = math.inf

#: Latency quantiles the serving histogram tracks (p50/p95/p99/p999).
LATENCY_QUANTILES = (0.5, 0.95, 0.99, 0.999)

_QUANTILE_KEYS = {0.5: "p50", 0.95: "p95", 0.99: "p99", 0.999: "p999"}


def build_servers(cluster) -> list[PSServer]:
    """One PS replica per cluster VM, in vm-id order."""
    vms = sorted(cluster.all_vms, key=lambda v: v.vm_id)
    if not vms:
        raise ValueError("cluster hosts no VMs to serve from")
    return [PSServer(sid, vm.vm_id) for sid, vm in enumerate(vms)]


class ServingRuntime:
    """Serve an open-loop request stream from the cluster's VMs."""

    def __init__(
        self,
        scenario,
        arrivals: OpenLoopArrivals,
        *,
        checkpointer=None,
        injector=None,
        repair_time: float = 30.0,
        clone: int = 1,
        interval: float = 120.0,
        controller: SLAController | None = None,
        tracer: Tracer = NULL_TRACER,
        policy: str = "serving",
        drain_tick: float = 5.0,
    ):
        self.sim = scenario.sim
        self.cluster = scenario.cluster
        self.arrivals = arrivals
        self.ck = checkpointer
        self.repair_time = float(repair_time)
        #: checkpoint cadence knob — read every cycle, so the SLA
        #: controller can turn it live
        self.interval = float(interval)
        self.controller = controller
        self.tracer = tracer
        self.probe = probe_of(tracer)
        self.policy = policy
        self.drain_tick = float(drain_tick)

        self.servers = build_servers(self.cluster)
        self.engine = ServingEngine(
            self.servers, clone=clone,
            clone_demand=arrivals.clone_sampler() if clone > 1 else None,
        )
        self._sid_by_vm = {s.vm_id: s.sid for s in self.servers}

        # disruption bookkeeping
        self.pauses: list[tuple[float, float]] = []
        self._pause_open: float | None = None
        self.cycles = 0
        self.n_failures = 0
        self.n_recoveries = 0
        #: beyond-tolerance losses reprovisioned by a committed salvage
        self.n_salvaged = 0
        #: (node, reason) of losses that stayed lost: the replicas are dark
        self.unrecoverable: list[tuple[int, str]] = []
        self.recovery = (
            RecoveryDriver(checkpointer) if checkpointer is not None else None
        )
        #: node -> (window start, group labels, downed sids)
        self._open_outages: dict[int, tuple[float, list[str], list[int]]] = {}
        self._shed: set[int] = set()
        #: closed (start, end, labels) windows pending/kept for reporting
        self._closed_outages: list[tuple[float, float, list[str]]] = []
        self.degraded_requests: dict[str, int] = {}

        # results
        self._lat_chunks: list[np.ndarray] = []
        self._digest = hashlib.sha256()
        self._last_lost = 0
        self._done = False
        self.drain_stalled = False

        if injector is not None:
            injector.subscribe(self._on_failure)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        return self.sim.process(self._run())

    def _late_wake(self, t: float):
        """An event succeeding at ``t`` *after* every same-timestamp
        NORMAL/URGENT callback — the status log is complete by then."""
        ev = self.sim.event()
        self.sim.at(t, ev.succeed, priority=LATE)
        return ev

    def _run(self):
        sim = self.sim
        if self.ck is not None:
            # unjoined: a cycle that raises ends the run (Process docs)
            sim.process(self._cadence_loop())
        sim.process(self._drain_loop())
        for chunk in self.arrivals.chunks():
            self.engine.feed(chunk)
            w1 = chunk.end
            if w1 > sim.now:
                yield self._late_wake(w1)
            self.engine.advance_to(sim.now)
            self._drain_window()
        # stream exhausted: chase the remaining in-flight requests
        guard = 0
        while self.engine.outstanding > 0 and guard < 100_000:
            guard += 1
            t = self.engine.next_event_time()
            if t == _INF:
                # in-flight work frozen behind a stall or an outage;
                # wait for the cadence/repair machinery to move
                yield sim.timeout(self.drain_tick)
            elif t > sim.now:
                yield self._late_wake(t)
            self.engine.advance_to(sim.now)
            self._drain_window()
        self.drain_stalled = self.engine.outstanding > 0
        self._done = True
        self._close_outages(sim.now)
        self.tracer.emit(
            sim.now, "serving.done",
            offered=self.engine.offered,
            completed=self.engine.completed,
            lost=self.engine.lost + self.engine.lost_unrouted,
        )

    def _drain_loop(self):
        """Fixed-tick drain between chunk boundaries.

        One arrival chunk can span the whole run, and ``_run`` only
        drains when a chunk ends — without this loop the SLA controller
        would see its first latency window after the stream is over.
        Ticks are pure cut points (the engine sweep is bit-identical
        under any cut placement), so this changes *when* completions are
        observed, never what they are.
        """
        sim = self.sim
        while not self._done:
            yield self._late_wake(sim.now + self.drain_tick)
            if self._done:
                break
            self.engine.advance_to(sim.now)
            self._drain_window()

    # ------------------------------------------------------------------
    # checkpoint cadence
    # ------------------------------------------------------------------
    def _cadence_loop(self):
        sim = self.sim
        while not self._done:
            if self._open_outages:
                # membership gate: no cycles with nodes down/recovering
                yield sim.timeout(min(self.interval, self.drain_tick))
                continue
            # a cycle starts on the healed layout, as the job's does
            yield from self.recovery.settle()
            yield from self._one_cycle()
            if self._done:
                break
            yield sim.timeout(self.interval)

    def _one_cycle(self):
        sim = self.sim
        pause_done = sim.event()
        self._on_pause(sim.now)
        proc = sim.process(self.ck.run_cycle(pause_done=pause_done))
        # resume at whichever lands first: barrier lift, or the cycle
        # dying before it (never leave the fleet frozen behind a stall)
        lifted = sim.event()

        def _first(_ev):
            if not lifted.triggered:
                lifted.succeed()

        pause_done.subscribe(_first)
        proc.subscribe(_first)
        yield lifted
        self._on_resume(sim.now)
        if not proc.triggered:
            yield proc  # raises out of the cadence loop if the cycle died
        elif proc.ok is False:
            raise proc.value
        self.cycles += 1
        return proc.value

    def _on_pause(self, t: float) -> None:
        if self._pause_open is None:
            self.engine.stall_begin(t)
            self._pause_open = t

    def _on_resume(self, t: float) -> None:
        if self._pause_open is not None:
            self.engine.stall_end(t)
            self.pauses.append((self._pause_open, t))
            self._pause_open = None

    # ------------------------------------------------------------------
    # failures and recovery
    # ------------------------------------------------------------------
    def _groups_on_node(self, node_id: int) -> list[str]:
        """Groups with a member or a shard on ``node_id``, or ``none``."""
        if self.ck is None:
            return ["none"]
        hit = sorted(
            g.group_id for g in self.ck.layout.groups
            if node_id in g.parity_nodes or any(
                self.cluster.vm(v).node_id == node_id for v in g.member_vm_ids
            )
        )
        return [str(g) for g in hit] or ["none"]

    def _on_failure(self, event) -> None:
        node_id = event.node_id
        now = self.sim.now
        # track shed replicas at the runtime level — engine server state
        # lags behind sim time until the next sweep and must not be read
        # (or written) here, or chunk invariance breaks; placement is the
        # cluster's, since recovery and heal move VMs
        sids = sorted(
            self._sid_by_vm[vm_id] for vm_id in self.cluster.node(node_id).vms
            if self._sid_by_vm[vm_id] not in self._shed
        )
        labels = self._groups_on_node(node_id)
        if not self.cluster.node(node_id).alive:
            return
        self.cluster.kill_node(node_id)
        self.engine.set_down(now, sids)
        self._shed.update(sids)
        self.n_failures += 1
        self._open_outages[node_id] = (now, labels, sids)
        self.tracer.emit(
            now, "serving.node_down", node=node_id, shed=len(sids)
        )
        self.sim.schedule(self.repair_time, self._repaired, node_id)

    def _repaired(self, node_id: int) -> None:
        """The node rejoins empty and goes to the recovery driver, which
        heals the layout once the drain ends; with no checkpointer its
        replicas restart on it, their state gone."""
        self.cluster.repair_node(node_id)
        if self.recovery is None:
            for sid in self._open_outages.get(node_id, (0.0, [], []))[2]:
                vm = self.cluster.vm(self.servers[sid].vm_id)
                self.cluster.place_failed_vm(vm.vm_id, node_id)
                vm.revive()
            self._restore_replicas(node_id)
            return
        if self.recovery.hand_over(node_id):
            self.sim.process(self.recovery.drain(self._recover))
        self.recovery.heal(defer=True)

    def _recover(self, node_id: int, recovery):
        """The drain's wrapper: recover or salvage, then bring the
        node's replicas back up wherever their VMs now live."""
        try:
            yield from recovery
            self.n_recoveries += 1
        except Unrecoverable as exc:
            if not (yield from self._salvage(node_id, str(exc))):
                return  # replicas stay dark; the outage never closes
        self._restore_replicas(node_id)

    def _salvage(self, node_id: int, cause: str):
        """Process: :func:`~repro.core.recovery.salvage` the loss, its
        epoch through :meth:`_one_cycle` (the fleet stalls for the
        pause); False when no node is left to host the lost VMs."""
        try:
            yield from salvage(self.ck, self._one_cycle)
        except Unrecoverable as exc:
            self.unrecoverable.append((node_id, f"{cause}; {exc}"))
            self.tracer.emit(self.sim.now, "serving.unrecoverable", node=node_id)
            return False
        self.n_salvaged += 1
        self.tracer.emit(self.sim.now, "serving.salvage", node=node_id)
        return True

    def _restore_replicas(self, node_id: int) -> None:
        now = self.sim.now
        start, labels, sids = self._open_outages.pop(
            node_id, (now, [], [])
        )
        up = []
        for sid in sids:
            vm = self.cluster.vm(self.servers[sid].vm_id)
            if vm.node_id is None:
                continue  # still homeless — leave it dark
            up.append(sid)
        if up:
            self.engine.set_up(now, up)
            self._shed.difference_update(up)
        self._closed_outages.append((start, now, labels))
        self.tracer.emit(
            now, "serving.node_restored", node=node_id,
            restored=len(up), window=now - start,
        )

    def _close_outages(self, now: float) -> None:
        for node_id in list(self._open_outages):
            start, labels, _ = self._open_outages.pop(node_id)
            self._closed_outages.append((start, now, labels))

    # ------------------------------------------------------------------
    # telemetry drain
    # ------------------------------------------------------------------
    def _drain_window(self) -> None:
        times, lat, rid, _sid = self.engine.take_completions()
        if lat.size:
            self._lat_chunks.append(lat)
            # interleave (rid, latency) per record so the digest byte
            # stream is invariant to how completions split across drains
            rec = np.empty(2 * lat.size, dtype=np.float64)
            rec[0::2] = rid
            rec[1::2] = lat
            self._digest.update(rec.tobytes())
            self.probe.observe_batch(
                "repro_request_latency_seconds", lat,
                help="Per-request serving latency",
                quantiles=LATENCY_QUANTILES,
                policy=self.policy,
            )
            self.probe.count(
                "repro_requests_total", float(lat.size),
                help="Requests completed", policy=self.policy,
            )
            self._attribute_degraded(times)
        lost = self.engine.lost + self.engine.lost_unrouted
        if lost > self._last_lost:
            self.probe.count(
                "repro_requests_lost_total", float(lost - self._last_lost),
                help="Requests lost to crashes or total outage",
                policy=self.policy,
            )
            self._last_lost = lost
        self.probe.gauge_set(
            "repro_serving_inflight", float(self.engine.outstanding),
            help="Requests in flight across all replicas",
        )
        if self.controller is not None and lat.size:
            self.controller.update(self.sim.now, lat)

    def _attribute_degraded(self, times: np.ndarray) -> None:
        """Count drained completions that landed inside degraded
        windows, per parity-group label (completion times are sorted)."""
        windows = list(self._closed_outages)
        windows += [
            (start, _INF, labels)
            for start, labels, _ in self._open_outages.values()
        ]
        if not windows:
            return
        for start, end, labels in windows:
            lo = int(np.searchsorted(times, start, side="left"))
            hi = int(np.searchsorted(times, end, side="right"))
            if hi <= lo:
                continue
            for label in labels:
                self.degraded_requests[label] = (
                    self.degraded_requests.get(label, 0) + (hi - lo)
                )
                self.probe.count(
                    "repro_requests_degraded_total", float(hi - lo),
                    help="Requests served inside a degraded window",
                    group=label,
                )

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def latencies(self) -> np.ndarray:
        """All recorded per-request latencies, completion-ordered."""
        if not self._lat_chunks:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(self._lat_chunks)

    def report(self) -> dict:
        """JSON-able run summary (exact quantiles, not estimates)."""
        lat = self.latencies()
        if lat.size:
            quantiles = {
                _QUANTILE_KEYS[q]: float(np.quantile(lat, q))
                for q in LATENCY_QUANTILES
            }
            latency = {
                "mean": float(lat.mean()),
                "max": float(lat.max()),
                **quantiles,
            }
        else:
            latency = {}
        eng = self.engine
        degraded_seconds: dict[str, float] = {}
        for start, end, labels in self._closed_outages:
            for label in labels:
                degraded_seconds[label] = (
                    degraded_seconds.get(label, 0.0) + (end - start)
                )
        out = {
            "offered": eng.offered,
            "completed": eng.completed,
            "lost": eng.lost,
            "lost_unrouted": eng.lost_unrouted,
            "latency": latency,
            "pauses": len(self.pauses),
            "pause_seconds": float(
                sum(end - start for start, end in self.pauses)
            ),
            "cycles": self.cycles,
            "failures": self.n_failures,
            "recoveries": self.n_recoveries,
            "salvaged": self.n_salvaged,
            "unrecoverable": len(self.unrecoverable),
            "degraded_seconds": degraded_seconds,
            "degraded_requests": dict(self.degraded_requests),
            "interval_final": self.interval,
            "digest": self._digest.hexdigest(),
            "drained": not self.drain_stalled,
        }
        if self.controller is not None:
            out["sla"] = self.controller.summary()
        return out
