"""Exact processor-sharing service via lazy virtual-time servers.

Request service is *fluid*: a replica with ``n`` in-flight requests
gives each 1/n of its capacity.  Scheduling one simulator event per
arrival/departure would be ruinous at millions of requests, so each
:class:`PSServer` instead keeps the classic GPS *virtual time* V with a
lazy anchor ``(t, V, n)``: V advances only when a real event — arrival,
departure, stall, crash — touches the server, by ``(now - t) / n``.  A
request with demand ``s`` arriving at virtual time ``V_a`` departs when
V reaches ``V_a + s``; with the membership frozen that happens at real
time ``t + (f_min - V) * n``.  At a departure V is assigned the finish
value *directly* (no incremental drift), so the whole sweep is a
sequence of IEEE-754 operations fully determined by the event sequence.

The :class:`ServingEngine` merges three ordered feeds and sweeps them
offline in ``advance_to(T)``:

* **status changes** (crash / recover / stall begin / stall end),
  appended by the runtime at simulation time and kept sorted by
  ``(time, rank, server)``;
* **departures**, a global heap of per-server candidates stamped with
  the server's mutation version (stale candidates are skipped);
* **arrivals**, numpy chunks consumed through an index — no per-request
  Python objects ever enter the simulator heap.

Tie-break at equal times is fixed: status < departure < arrival, then
server id.  Cut points — the ``advance_to`` boundaries at chunk ends —
touch no float state, so sweeping the same inputs under any chunking is
bit-identical.  That invariance is the contract the golden serving
digests pin.

Request **cloning** (clone-to-d) dispatches one request to ``d``
distinct live replicas; the first completion wins and cancels the
siblings (first-completion-wins, cancel-on-complete), and a cloned
request is lost only when *every* replica holding it crashes.  When a
``clone_demand`` sampler is supplied, each sibling draws an i.i.d.
demand (server-side variability — the standard redundancy model, under
which cloning trims the tail); without one siblings share the primary
demand and cloning only buys crash protection, at d× offered work.
"""

from __future__ import annotations

import math
from bisect import insort
from heapq import heappop, heappush

import numpy as np

from .arrivals import ArrivalChunk

__all__ = ["PSServer", "ServingEngine"]

_INF = math.inf

#: Status ranks — applied before departures/arrivals at equal times, in
#: this order: a recovering node comes up before a new stall begins, and
#: crash handling precedes everything.
_DOWN, _UP, _STALL_END, _STALL_BEGIN = 0, 1, 2, 3


class PSServer:
    """One processor-sharing replica with a lazy virtual-time anchor."""

    __slots__ = (
        "sid", "vm_id", "t", "V", "n",
        "jobs", "heap", "stalled", "down", "version",
    )

    def __init__(self, sid: int, vm_id: int = -1):
        self.sid = sid
        self.vm_id = vm_id
        self.t = 0.0  # anchor real time
        self.V = 0.0  # virtual time at the anchor
        self.n = 0  # in-flight requests
        #: rid -> (virtual finish, arrival time)
        self.jobs: dict[int, tuple[float, float]] = {}
        #: (virtual finish, rid) min-heap; entries whose rid left
        #: ``jobs`` are stale and skipped lazily
        self.heap: list[tuple[float, int]] = []
        self.stalled = False
        self.down = False
        #: bumped on every mutation; invalidates departure candidates
        self.version = 0

    def advance(self, t: float) -> None:
        """Move the anchor to real time ``t``, advancing V if serving."""
        if t > self.t:
            if self.n and not self.stalled and not self.down:
                self.V += (t - self.t) / self.n
            self.t = t

    def next_finish(self) -> tuple[float, int]:
        """(virtual finish, rid) of the head request; ``(inf, -1)`` idle."""
        heap, jobs = self.heap, self.jobs
        while heap and heap[0][1] not in jobs:
            heappop(heap)
        if not heap:
            return _INF, -1
        return heap[0]

    def departure_time(self) -> float:
        """Real time the head request finishes under current membership."""
        if self.down or self.stalled or not self.n:
            return _INF
        f, _ = self.next_finish()
        if f == _INF:
            return _INF
        dt = (f - self.V) * self.n
        return self.t + (dt if dt > 0.0 else 0.0)


class ServingEngine:
    """Offline sweep over servers, arrivals, departures, and statuses."""

    def __init__(
        self,
        servers: list[PSServer],
        clone: int = 1,
        clone_demand=None,
    ):
        if not servers:
            raise ValueError("need at least one server")
        if clone < 1:
            raise ValueError(f"clone must be >= 1, got {clone}")
        self.servers = list(servers)
        self.clone = min(int(clone), len(self.servers))
        #: optional () -> float sampler for sibling demands
        self._clone_demand = clone_demand
        #: sweep frontier — every event with time <= ``time`` is done
        self.time = 0.0
        # status feed, kept sorted by (time, rank, sid)
        self._status: list[tuple[float, int, int]] = []
        self._status_ptr = 0
        # arrival feed: queued chunks plus a read position
        self._chunks: list[ArrivalChunk] = []
        self._chunk_i = 0
        self._arr_i = 0
        # departure candidates: (time, sid, server version)
        self._cand: list[tuple[float, int, int]] = []
        # cloned requests still racing: rid -> set of sids
        self._racing: dict[int, set[int]] = {}
        # completion buffers, drained by the runtime
        self._done_t: list[float] = []
        self._done_lat: list[float] = []
        self._done_rid: list[int] = []
        self._done_sid: list[int] = []
        # totals
        self.offered = 0
        self.completed = 0
        self.lost = 0  # in-flight requests destroyed by crashes
        self.lost_unrouted = 0  # arrivals that found no live replica

    # ------------------------------------------------------------------
    # feeds
    # ------------------------------------------------------------------
    def feed(self, chunk: ArrivalChunk) -> None:
        """Queue one arrival chunk (consumed by :meth:`advance_to`)."""
        if chunk.n:
            self._chunks.append(chunk)

    def _push_status(self, t: float, rank: int, sids: list[int]) -> None:
        if t < self.time:
            raise ValueError(
                f"status at {t} behind sweep frontier {self.time}"
            )
        status = self._status
        for sid in sorted(sids):
            entry = (t, rank, sid)
            if status and entry < status[-1]:
                # same-timestamp entries may arrive out of rank order;
                # keep the unswept tail sorted
                insort(status, entry, lo=self._status_ptr)
            else:
                status.append(entry)

    def stall_begin(self, t: float, sids: list[int] | None = None) -> None:
        """Freeze service (checkpoint pause barrier) on ``sids``.

        Defaults to every server: the sweep drops the stall on replicas
        that are down *as of time t*, which callers pushing statuses
        ahead of the sweep cannot know yet."""
        self._push_status(
            t, _STALL_BEGIN,
            [s.sid for s in self.servers] if sids is None else sids,
        )

    def stall_end(self, t: float, sids: list[int] | None = None) -> None:
        """Lift the pause; non-stalled servers ignore it."""
        self._push_status(
            t, _STALL_END,
            [s.sid for s in self.servers] if sids is None else sids,
        )

    def set_down(self, t: float, sids: list[int]) -> None:
        """Crash replicas: in-flight requests are shed (lost unless a
        clone sibling survives elsewhere)."""
        self._push_status(t, _DOWN, sids)

    def set_up(self, t: float, sids: list[int]) -> None:
        """Bring recovered replicas back into the routing set, empty."""
        self._push_status(t, _UP, sids)

    # ------------------------------------------------------------------
    # sweep
    # ------------------------------------------------------------------
    def advance_to(self, T: float) -> None:
        """Process every event with time <= ``T`` in deterministic order."""
        if T < self.time:
            raise ValueError(f"cannot sweep backwards: {T} < {self.time}")
        status = self._status
        while True:
            t_status = (
                status[self._status_ptr][0]
                if self._status_ptr < len(status) else _INF
            )
            t_dep, dep_sid = self._peek_departure()
            t_arr = self._peek_arrival()
            t = min(t_status, t_dep, t_arr)
            if t > T or t == _INF:
                break
            if t_status <= t_dep and t_status <= t_arr:
                entry = status[self._status_ptr]
                self._status_ptr += 1
                self._apply_status(entry)
            elif t_dep <= t_arr:
                heappop(self._cand)
                self._depart(t_dep, dep_sid)
            else:
                self._arrive()
        self.time = T

    def next_event_time(self) -> float:
        """Earliest pending event; ``inf`` when only stalled/blocked."""
        t_status = (
            self._status[self._status_ptr][0]
            if self._status_ptr < len(self._status) else _INF
        )
        return min(t_status, self._peek_departure()[0], self._peek_arrival())

    def _peek_departure(self) -> tuple[float, int]:
        cand, servers = self._cand, self.servers
        while cand:
            t, sid, version = cand[0]
            if servers[sid].version == version:
                return t, sid
            heappop(cand)
        return _INF, -1

    def _peek_arrival(self) -> float:
        while self._chunk_i < len(self._chunks):
            chunk = self._chunks[self._chunk_i]
            if self._arr_i < chunk.n:
                return float(chunk.times[self._arr_i])
            self._chunk_i += 1
            self._arr_i = 0
        if self._chunk_i:
            # free fully consumed chunks
            del self._chunks[: self._chunk_i]
            self._chunk_i = 0
        return _INF

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _bump(self, server: PSServer) -> None:
        server.version += 1
        td = server.departure_time()
        if td != _INF:
            heappush(self._cand, (td, server.sid, server.version))

    def _route(self, rid: int) -> list[int]:
        """First ``clone`` live replicas probing forward from rid % R."""
        servers = self.servers
        n = len(servers)
        base = rid % n
        out: list[int] = []
        for k in range(n):
            sid = (base + k) % n
            if not servers[sid].down:
                out.append(sid)
                if len(out) == self.clone:
                    break
        return out

    def _arrive(self) -> None:
        chunk = self._chunks[self._chunk_i]
        i = self._arr_i
        self._arr_i = i + 1
        t = float(chunk.times[i])
        s = float(chunk.service[i])
        rid = chunk.start_id + i
        self.offered += 1
        targets = self._route(rid)
        if not targets:
            self.lost_unrouted += 1
            return
        if len(targets) > 1:
            self._racing[rid] = set(targets)
        for k, sid in enumerate(targets):
            demand = s
            if k and self._clone_demand is not None:
                demand = self._clone_demand()
            server = self.servers[sid]
            server.advance(t)
            f = server.V + demand
            server.jobs[rid] = (f, t)
            heappush(server.heap, (f, rid))
            server.n += 1
            self._bump(server)

    def _depart(self, t: float, sid: int) -> None:
        server = self.servers[sid]
        f, rid = server.next_finish()
        server.t = t
        server.V = f  # land exactly on the finish line — no float drift
        heappop(server.heap)
        _, arrived = server.jobs.pop(rid)
        server.n -= 1
        self._bump(server)
        racing = self._racing.pop(rid, None)
        if racing is not None:
            for other in sorted(racing):
                if other == sid:
                    continue
                sib = self.servers[other]
                if rid not in sib.jobs:
                    continue
                sib.advance(t)  # the clone consumed capacity until now
                del sib.jobs[rid]
                sib.n -= 1
                self._bump(sib)
        self.completed += 1
        self._done_t.append(t)
        self._done_lat.append(t - arrived)
        self._done_rid.append(rid)
        self._done_sid.append(sid)

    def _apply_status(self, entry: tuple[float, int, int]) -> None:
        t, rank, sid = entry
        server = self.servers[sid]
        if rank == _DOWN:
            if server.down:
                return
            server.advance(t)
            server.down = True
            server.stalled = False
            for rid in sorted(server.jobs):
                racing = self._racing.get(rid)
                if racing is not None:
                    racing.discard(sid)
                    if racing:
                        continue  # a sibling still carries it
                    del self._racing[rid]
                self.lost += 1
            server.jobs.clear()
            server.heap.clear()
            server.n = 0
            self._bump(server)
        elif rank == _UP:
            if not server.down:
                return
            server.t = t
            server.down = False
            self._bump(server)
        elif rank == _STALL_END:
            if server.down or not server.stalled:
                return
            server.t = t  # V stayed frozen across the whole stall
            server.stalled = False
            self._bump(server)
        else:  # _STALL_BEGIN
            if server.down or server.stalled:
                return
            server.advance(t)
            server.stalled = True
            self._bump(server)

    # ------------------------------------------------------------------
    # drains and accounting
    # ------------------------------------------------------------------
    def take_completions(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Drain ``(times, latencies, rids, sids)`` since the last drain.

        Completion order is sweep order — time-ordered and
        chunking-invariant — so feeding these straight into sequential
        estimators (P² quantiles) keeps them bit-stable too.
        """
        out = (
            np.asarray(self._done_t, dtype=np.float64),
            np.asarray(self._done_lat, dtype=np.float64),
            np.asarray(self._done_rid, dtype=np.int64),
            np.asarray(self._done_sid, dtype=np.int64),
        )
        self._done_t, self._done_lat = [], []
        self._done_rid, self._done_sid = [], []
        return out

    @property
    def outstanding(self) -> int:
        """Requests offered but not yet completed or lost."""
        return self.offered - self.completed - self.lost - self.lost_unrouted
