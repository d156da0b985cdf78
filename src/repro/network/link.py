"""Fluid-flow network links with max-min fair bandwidth sharing.

Transfers are modeled as *fluid flows*: a flow on a set of links makes
progress at a rate set by max-min fair allocation (progressive filling)
across all concurrently active flows.  This captures exactly the effect
Fig. 5 turns on — N checkpoint streams converging on one NAS ingress
link serialize to ``bw/N`` each, while DVDC's peer-to-peer exchanges
ride separate node links in parallel.

One allocation per simulated instant: a flow start, finish or link
change only marks the links it touched dirty, and the first mark in an
instant registers :meth:`Network._settle` with
:meth:`~repro.sim.engine.Simulator.at_instant_end`.  Barrier-synchronised
sends start and finish together, so one fill replaces the dozens a
per-change allocator ran at the same time stamp.  The settle re-anchors
and reschedules only the flows whose rate moved, in admission order, so
same-time completions fire in the order their flows were admitted.

The settle fills only what changed: one walk from the dirty links
splits the flows they reach into link-disjoint *components* (flows
transitively connected through shared links), and each component is
filled on its own.  Components nothing touched keep their rates
(max-min fairness is separable across link-disjoint flow sets), so a
thousand-node cluster running parallel group exchanges pays per-group
cost, not per-cluster cost; filling the union in one pass would not,
since the bottleneck scan is quadratic in the links it spans.  The
tests keep a one-global-fill ``Network`` subclass as the bit-exactness
oracle: identical rates, completion times and traces.

Reads during an instant see the last settle's rates: ``Flow.rate`` and
``Link.utilization`` do not reflect changes made since, and a flow
admitted since reads ``0.0``.  Inside the package only the settle's own
probe gauges read rates, after the fill.

Flow progress uses an *anchor* representation: ``remaining`` bytes are
stored as of the instant the flow's rate last changed, and interpolated
on read.  A flow whose rate is unchanged by a settle is not touched at
all — its completion event stays scheduled — which is what makes the
component-scoped fill bit-identical to a global one.
"""

from __future__ import annotations

import math
import operator
from typing import Collection, Iterable, Sequence

from ..sim import NULL_TRACER, Simulator, SimEvent, Tracer
from ..sim.engine import EventHandle
from ..telemetry import probe_of

__all__ = ["Link", "Flow", "Network", "NetworkError", "TransientNetworkError"]

class NetworkError(RuntimeError):
    """Structural misuse of the network layer."""


class TransientNetworkError(NetworkError):
    """A transfer failed for a *transient* reason — link flap, dropped
    stream, per-attempt timeout — and retrying it may succeed.

    Distinct from a plain :class:`NetworkError` (structural misuse, or a
    flow torn down because its endpoint node crashed), which retrying
    cannot fix.  The :mod:`repro.resilience.retry` layer retries only
    this subclass.
    """


class Link:
    """A unidirectional link with fixed capacity.

    Parameters
    ----------
    name:
        Diagnostic label (e.g. ``"node3.tx"`` or ``"nas.rx"``).
    bandwidth:
        Capacity in bytes/second.
    latency:
        One-way propagation + protocol setup delay in seconds, charged
        once per flow traversing the link.
    """

    __slots__ = (
        "name", "bandwidth", "nominal_bandwidth", "latency", "flows", "up",
        "index",
    )

    def __init__(self, name: str, bandwidth: float, latency: float = 0.0,
                 index: int = 0):
        if not bandwidth > 0:
            raise NetworkError(f"bandwidth must be > 0, got {bandwidth}")
        if latency < 0:
            raise NetworkError(f"latency must be >= 0, got {latency}")
        self.name = name
        self.bandwidth = float(bandwidth)
        #: design capacity; ``bandwidth`` may sit below it while degraded
        self.nominal_bandwidth = float(bandwidth)
        self.latency = float(latency)
        #: insertion-ordered set of flows crossing the link (dict keys —
        #: admission order, which makes every iteration deterministic)
        self.flows: dict["Flow", None] = {}
        #: False while the link is flapped down; flows cannot cross it
        self.up = True
        #: creation order; deterministic tie-break in progressive filling
        self.index = index

    @property
    def utilization(self) -> float:
        """Fraction of capacity allocated at the last settle (0..1)."""
        return sum(f.rate for f in self.flows) / self.bandwidth

    @property
    def degraded(self) -> bool:
        return self.bandwidth < self.nominal_bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "" if self.up else " DOWN"
        return (
            f"<Link {self.name}{state} {self.bandwidth:.3g} B/s "
            f"{len(self.flows)} flows>"
        )


class Flow(SimEvent):
    """An in-progress transfer; succeeds with itself when delivery completes.

    The event value is the flow, so processes can ``flow = yield flow``.
    Cancel in-flight (e.g. sender crashed) with :meth:`abort` — the event
    then *fails* with :class:`NetworkError`.

    A delivered flow reports itself through :attr:`value` instead of
    storing itself as its value: a flow that referred to itself would
    be a reference cycle, left for the cyclic collector instead of
    freed by refcounting when its last waiter lets go.
    """

    __slots__ = (
        "path",
        "size",
        "rate",
        "started_at",
        "finished_at",
        "_anchor_remaining",
        "_anchor_time",
        "_completion",
        "_order",
        "network",
        "label",
    )

    def __init__(self, network: "Network", path: Sequence[Link], size: float, label: str):
        super().__init__(network.sim)
        self.network = network
        self.path = tuple(path)
        self.size = float(size)
        self.rate = 0.0
        self.label = label
        self.started_at = network.sim.now
        self.finished_at: float | None = None
        # anchor representation: bytes left as of _anchor_time at `rate`
        self._anchor_remaining = float(size)
        self._anchor_time = network.sim.now
        self._completion: EventHandle | None = None
        #: admission sequence; the settle reschedules flows in this order
        #: whatever components they fall into
        self._order = 0

    @property
    def value(self) -> "Flow | BaseException":
        """The flow itself once delivered; the :class:`NetworkError` once
        aborted."""
        if self._ok:
            return self
        return super().value

    def abort(self, reason: str = "aborted", transient: bool = False) -> None:
        """Cancel the transfer; the waiting process sees a NetworkError.

        ``transient=True`` fails the flow with
        :class:`TransientNetworkError` instead — the signal that a retry
        (same endpoints, fresh flow) may succeed.
        """
        if self.triggered:
            return
        exc_type = TransientNetworkError if transient else NetworkError
        self.network._finish_flow(self, error=exc_type(f"flow {self.label}: {reason}"))

    def _sync_progress(self, now: float) -> None:
        """Re-anchor ``remaining`` at ``now`` (call only when the rate is
        about to change, or at the flow's end — intermediate re-anchors
        would perturb the float trajectory)."""
        dt = now - self._anchor_time
        if dt > 0.0 and self.rate > 0.0:
            self._anchor_remaining = max(0.0, self._anchor_remaining - dt * self.rate)
        self._anchor_time = now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow {self.label} {self.size - self._anchor_remaining:.3g}/{self.size:.3g}B "
            f"@{self.rate:.3g}B/s>"
        )


class Network:
    """Set of links plus the global max-min fair rate allocator."""

    def __init__(self, sim: Simulator, tracer: Tracer = NULL_TRACER):
        self.sim = sim
        self.tracer = tracer
        self._probe = probe_of(tracer)
        self.links: dict[str, Link] = {}
        self._active: dict[Flow, None] = {}
        #: flows still in their latency phase, not yet admitted
        #: (insertion-ordered set, so tear-down order is deterministic)
        self._latent: dict[Flow, None] = {}
        #: links changed since the last settle (insertion-ordered set)
        self._dirty: dict[Link, None] = {}
        self._flow_seq = 0
        self._admit_seq = 0
        self._link_seq = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_link(self, name: str, bandwidth: float, latency: float = 0.0) -> Link:
        if name in self.links:
            raise NetworkError(f"duplicate link name {name!r}")
        link = Link(name, bandwidth, latency, index=self._link_seq)
        self._link_seq += 1
        self.links[name] = link
        return link

    # ------------------------------------------------------------------
    # link health (transient-fault surface)
    # ------------------------------------------------------------------
    def set_link_up(self, lk: Link, up: bool, reason: str = "link down") -> int:
        """Flap a link down (aborting its in-flight flows with
        :class:`TransientNetworkError`) or back up.  Returns the number
        of flows torn down.  Idempotent."""
        if lk.up == up:
            return 0
        lk.up = up
        torn = 0
        if not up:
            for flow in list(lk.flows):
                flow.abort(f"{reason} ({lk.name})", transient=True)
                torn += 1
        self.tracer.emit(
            self.sim.now, "net.link.up" if up else "net.link.down", link=lk.name,
        )
        self._probe.count(
            "repro_net_link_transitions_total",
            help="Link up/down transitions",
            link=lk.name, to="up" if up else "down",
        )
        return torn

    def set_link_bandwidth(self, link: Link | str, bandwidth: float) -> None:
        """Change a link's current capacity (degradation / recovery); the
        instant's settle re-runs the fair allocation so in-flight flows
        adjust rate.

        ``nominal_bandwidth`` is untouched: pass it back to restore."""
        lk = self.link(link) if isinstance(link, str) else link
        if not bandwidth > 0:
            raise NetworkError(f"bandwidth must be > 0, got {bandwidth}")
        if bandwidth == lk.bandwidth:
            return
        lk.bandwidth = float(bandwidth)
        self.tracer.emit(
            self.sim.now, "net.link.bandwidth", link=lk.name, bandwidth=bandwidth,
            degraded=lk.degraded,
        )
        self._reallocate((lk,))

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def start_flow(
        self,
        path: Iterable[Link],
        size: float,
        label: str | None = None,
    ) -> Flow:
        """Begin transferring ``size`` bytes across the link path.

        Path latencies are summed and charged up front, before the flow
        enters bandwidth contention.  Returns the :class:`Flow` event.
        """
        links = list(path)
        if not links:
            raise NetworkError("flow path must contain at least one link")
        if size < 0:
            raise NetworkError(f"flow size must be >= 0, got {size}")
        self._flow_seq += 1
        flow = Flow(self, links, size, label or f"flow{self._flow_seq}")
        # guard so the disabled path skips building the emit kwargs and
        # the path-name list entirely (emit itself re-checks enabled)
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, "net.flow.start", label=flow.label, size=size,
                path=[lk.name for lk in links],
            )
        if self._probe.enabled:
            self._probe.count(
                "repro_net_flows_total",
                help="Flows started, by terminal link",
                link=links[-1].name,
            )
        total_latency = sum(lk.latency for lk in links)
        if total_latency > 0.0:
            self._latent[flow] = None
            self.sim.schedule(total_latency, self._admit, flow)
        else:
            self._admit(flow)
        return flow

    def _admit(self, flow: Flow) -> None:
        self._latent.pop(flow, None)
        if flow.triggered:  # aborted during the latency phase
            return
        down = [lk.name for lk in flow.path if not lk.up]
        if down:
            self._finish_flow(flow, error=TransientNetworkError(
                f"flow {flow.label}: link {down[0]} is down"
            ))
            return
        if flow.size <= 0.0:
            self._finish_flow(flow)
            return
        flow._anchor_time = self.sim.now
        self._admit_seq += 1
        flow._order = self._admit_seq
        self._active[flow] = None
        for link in flow.path:
            link.flows[flow] = None
        self._reallocate(flow.path)

    def _finish_flow(self, flow: Flow, error: BaseException | None = None) -> None:
        self._latent.pop(flow, None)
        if flow in self._active:
            flow._sync_progress(self.sim.now)
            del self._active[flow]
            for link in flow.path:
                link.flows.pop(flow, None)
        if flow._completion is not None:
            flow._completion.cancel()
            flow._completion = None
        flow.finished_at = self.sim.now
        flow.rate = 0.0
        if error is None:
            flow._anchor_remaining = 0.0
            duration = self.sim.now - flow.started_at
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, "net.flow.done", label=flow.label,
                    size=flow.size, duration=duration,
                )
            if self._probe.enabled:
                terminal = flow.path[-1].name
                self._probe.observe(
                    "repro_net_flow_seconds", duration,
                    help="Flow start-to-delivery time",
                )
                self._probe.count(
                    "repro_net_flow_bytes_total", flow.size,
                    help="Bytes delivered, by terminal link",
                    link=terminal,
                )
            flow.succeed()
        else:
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "net.flow.abort", label=flow.label)
            if self._probe.enabled:
                self._probe.count(
                    "repro_net_flow_aborts_total",
                    help="Flows aborted in flight",
                )
            flow.fail(error)
        self._reallocate(flow.path)

    # ------------------------------------------------------------------
    # max-min fair allocation (progressive filling)
    # ------------------------------------------------------------------
    def _components(self, dirty_links: Iterable[Link]) -> list[list[Flow]]:
        """Flows whose rate can change, split into link-disjoint
        components: one walk of the flow/link bipartite graph from the
        dirty links, each new start opening the next component."""
        components: list[list[Flow]] = []
        seen_links: set[Link] = set()
        seen_flows: set[Flow] = set()
        for start in dirty_links:
            if start in seen_links:
                continue
            seen_links.add(start)
            stack = [start]
            component: list[Flow] = []
            while stack:
                lk = stack.pop()
                for f in lk.flows:
                    if f in seen_flows:
                        continue
                    seen_flows.add(f)
                    component.append(f)
                    for other in f.path:
                        if other not in seen_links:
                            seen_links.add(other)
                            stack.append(other)
            if component:
                components.append(component)
        return components

    def _fill(self, flows: Collection[Flow]) -> dict[Flow, float]:
        """Progressive filling restricted to ``flows``.

        ``flows`` must be closed under link sharing (every flow crossing
        a link used by a member is itself a member), which both callers
        guarantee; max-min fairness is then separable, so the restricted
        solution equals the global one on these flows.
        """
        if len(flows) == 1:
            # Lone flow: every share is residual/1 == the link bandwidth,
            # so it freezes at its path's bottleneck in one round.  Same
            # float the general loop would select (x / 1.0 is exact).
            (f,) = flows
            rate = math.inf
            for lk in f.path:
                bw = lk.bandwidth
                if bw < rate:
                    rate = bw
            return {f: rate}
        unfrozen = dict.fromkeys(flows)
        residual: dict[Link, float] = {}
        count: dict[Link, int] = {}
        for f in unfrozen:
            for lk in f.path:
                if lk in count:
                    count[lk] += 1
                else:
                    count[lk] = 1
                    residual[lk] = lk.bandwidth
        rates: dict[Flow, float] = {}
        while unfrozen:
            # most constrained link among those carrying unfrozen flows;
            # ties break on creation order so results are deterministic
            # (the winner is the (share, index) minimum, independent of
            # scan order)
            best: Link | None = None
            best_share = math.inf
            best_index = -1
            for lk, c in count.items():
                share = residual[lk] / c
                if share < best_share or (
                    share == best_share and lk.index < best_index
                ):
                    best_share = share
                    best = lk
                    best_index = lk.index
            if best is None:  # pragma: no cover - every unfrozen flow carries
                break
            for f in list(best.flows):
                if f not in unfrozen:
                    continue
                rates[f] = best_share
                del unfrozen[f]
                for lk in f.path:
                    c = count[lk] - 1
                    if c:
                        count[lk] = c
                        r = residual[lk] - best_share
                        residual[lk] = r if r > 0.0 else 0.0
                    else:
                        # no unfrozen flow crosses lk any more: drop it
                        # from the scan instead of skipping it each round
                        del count[lk]
                        del residual[lk]
        return rates

    def _reallocate(self, dirty_links: Iterable[Link]) -> None:
        """Mark ``dirty_links`` for the end-of-instant :meth:`_settle`;
        the first mark in an instant registers it with the simulator."""
        dirty = self._dirty
        if not dirty:
            self.sim.at_instant_end(self._settle)
        for lk in dirty_links:
            dirty[lk] = None

    def _settle(self) -> None:
        """One max-min fill for everything that changed this instant,
        then re-anchor and reschedule the flows whose rate moved, in
        admission order, so event-heap sequence numbers do not depend on
        how the flows split into components.  A flow whose rate is
        bitwise unchanged is not touched: its anchor and completion
        event stay valid."""
        dirty = self._dirty
        self._dirty = {}
        rates: dict[Flow, float] = {}
        for component in self._components(dirty):
            rates.update(self._fill(component))
        changed = [f for f, rate in rates.items() if rate != f.rate]
        changed.sort(key=operator.attrgetter("_order"))
        now = self.sim.now
        for flow in changed:
            new_rate = rates[flow]
            flow._sync_progress(now)
            flow.rate = new_rate
            if flow._completion is not None:
                flow._completion.cancel()
                flow._completion = None
            if new_rate > 0.0:
                eta = flow._anchor_remaining / new_rate
                flow._completion = self.sim.schedule(eta, self._complete, flow)

        if self._probe.enabled:
            gauged: dict[Link, None] = dict(dirty)
            for f in rates:
                for lk in f.path:
                    gauged[lk] = None
            for lk in gauged:
                self._probe.gauge_set(
                    "repro_link_utilization", lk.utilization,
                    help="Allocated fraction of link capacity (0..1)",
                    link=lk.name,
                )
                self._probe.gauge_set(
                    "repro_link_active_flows", len(lk.flows),
                    help="Flows contending on the link",
                    link=lk.name,
                )

    def _complete(self, flow: Flow) -> None:
        flow._completion = None
        flow._sync_progress(self.sim.now)
        # Guard against float drift: anything below one byte is done.
        remaining = flow._anchor_remaining
        if remaining <= 1.0 or math.isclose(remaining, 0.0, abs_tol=1e-6):
            self._finish_flow(flow)
        else:  # pragma: no cover - defensive reschedule at the same rate
            flow._completion = self.sim.schedule(
                remaining / flow.rate, self._complete, flow
            )
