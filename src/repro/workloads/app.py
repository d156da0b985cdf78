"""End-to-end checkpointed job execution.

:class:`CheckpointedJob` runs a gang-scheduled HPC job of ``work``
fault-free seconds on a virtual cluster under a checkpoint protocol
(diskful baseline or any diskless architecture) and a failure injector,
and reports the realized completion time — the *system-level* Monte
Carlo that corroborates the Section V model end to end.

Semantics (matching the model):

* progress accrues only during work phases; checkpoint cycles block
  (store-and-forward, as the model charges them — see
  :mod:`repro.model.overhead`);
* a failure rolls the job back to the progress recorded at the last
  *committed* checkpoint; the crashed node's VMs are rebuilt per the
  protocol; repair returns the node to service after
  ``repair_time``;
* an initial checkpoint is taken at job start (epoch 0), so the job is
  always recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..checkpoint.base import Unrecoverable
from ..cluster.cluster import VirtualCluster
from ..core.recovery import RecoveryDriver
from ..failures.injector import FailureEvent, FailureInjector
from ..sim import Interrupt, NULL_TRACER, Tracer

__all__ = ["CheckpointedJob", "JobResult"]


@dataclass
class JobResult:
    """Outcome of one job execution."""

    completed: bool
    wall_time: float = 0.0
    work_seconds: float = 0.0
    n_checkpoints: int = 0
    n_failures: int = 0
    n_recoveries: int = 0
    lost_work: float = 0.0
    checkpoint_time: float = 0.0
    recovery_time: float = 0.0
    failure_reason: str | None = None

    @property
    def time_ratio(self) -> float:
        """wall_time / work — comparable to the model's E[T]/T."""
        if self.work_seconds <= 0:
            return float("nan")
        return self.wall_time / self.work_seconds


class CheckpointedJob:
    """Run a job under a checkpoint protocol with failure injection.

    Parameters
    ----------
    cluster, checkpointer:
        The cluster and a protocol exposing ``run_cycle()`` /
        ``recover(node_id)`` process methods (DiskfulCheckpointer or
        DisklessCheckpointer).
    work:
        Fault-free execution length in seconds.
    interval:
        Checkpoint interval in work-seconds, or an
        :class:`~repro.checkpoint.adaptive.AdaptivePolicy` for online
        cost-benefit scheduling (Section II-B1): after each work step
        the policy decides skip-or-take from the elapsed time and the
        estimated dirty set.
    injector:
        Optional :class:`FailureInjector`; the job wires itself as a
        subscriber, crashes nodes, schedules repairs, and recovers.
    repair_time:
        Node downtime after a crash before it rejoins (empty).
    overlap:
        When True, the job resumes useful work the moment the capture
        barrier lifts and the exchange/XOR (or NAS transfer) completes
        in the background — the *latency-mode* execution diskless
        checkpointing enables (overhead is paid, latency is hidden; a
        failure before the background commit rolls back one extra
        interval).  At most one checkpoint is outstanding, matching the
        2x-memory rule of Section II-B2.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        checkpointer,
        work: float,
        interval: float,
        injector: FailureInjector | None = None,
        repair_time: float = 30.0,
        overlap: bool = False,
        tracer: Tracer = NULL_TRACER,
    ):
        from ..checkpoint.adaptive import AdaptivePolicy

        if work <= 0:
            raise ValueError(f"work must be > 0, got {work}")
        self.adaptive: AdaptivePolicy | None = None
        if isinstance(interval, AdaptivePolicy):
            self.adaptive = interval
            interval = max(interval.min_interval, 1.0)
        elif interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.cluster = cluster
        self.checkpointer = checkpointer
        self.work = float(work)
        self.interval = float(interval)
        self.injector = injector
        self.repair_time = float(repair_time)
        self.overlap = bool(overlap)
        self.tracer = tracer
        self.result = JobResult(completed=False, work_seconds=work)
        self._main = None
        self.recovery = RecoveryDriver(checkpointer)
        self._committed_progress = 0.0
        self._outstanding = None  # (cycle Process, progress at capture)
        self._in_cycle = False
        if injector is not None:
            injector.subscribe(self._on_failure)

    # ------------------------------------------------------------------
    def _on_failure(self, ev: FailureEvent) -> None:
        if self._main is not None and not self._main.alive:
            return  # job already finished; later trace events are moot
        node = self.cluster.node(ev.node_id)
        if not node.alive:
            return  # already down; repair pending
        self.cluster.kill_node(ev.node_id)
        self.result.n_failures += 1
        self.cluster.sim.schedule(self.repair_time, self._repair, ev.node_id)
        # a running drain takes the node; otherwise the interrupted job
        # runs one
        if self.recovery.hand_over(ev.node_id) and self._main is not None:
            self._main.interrupt(ev)

    def _repair(self, node_id: int) -> None:
        self.cluster.repair_node(node_id)
        # shrink the degraded window: re-home parity in the background
        # right away instead of waiting for the next checkpoint boundary
        # (the re-encode traffic overlaps useful work, like any RAID
        # rebuild); a running cycle defers it
        self.recovery.heal(defer=self._in_cycle)

    # ------------------------------------------------------------------
    def start(self):
        """Spawn the job as a process; returns the Process (yieldable)."""
        self._main = self.cluster.sim.process(self._run())
        return self._main

    def _run(self):
        t_start = self.cluster.sim.now
        try:
            yield from self._execute()
        except Unrecoverable as exc:
            # e.g. a double failure in one group under XOR parity: the
            # job is lost
            self.result.failure_reason = str(exc)
            return self._finish(t_start, completed=False)
        return self._finish(t_start, completed=True)

    def _roll_back(self, progress: float, wasted: float = 0.0):
        """Process: a failure interrupted the job.  The work since the
        last commit is lost; recover, and resume from that commit."""
        self.result.lost_work += wasted + (progress - self._committed_progress)
        progress = self._committed_progress
        self._outstanding = None
        yield from self.recovery.drain(self._recovered)
        return progress

    def _recovered(self, node_id: int, recovery):
        t0 = self.cluster.sim.now
        yield from recovery
        self.result.n_recoveries += 1
        self.result.recovery_time += self.cluster.sim.now - t0

    def _execute(self):
        sim = self.cluster.sim
        progress = 0.0
        self._committed_progress = 0.0

        # initial checkpoint so the job is recoverable from t=0
        while True:
            try:
                t0 = sim.now
                yield from self.checkpointer.run_cycle()
                self.result.n_checkpoints += 1
                self.result.checkpoint_time += sim.now - t0
                break
            except Interrupt:
                yield from self.recovery.drain(self._recovered)

        last_ckpt_progress = progress
        while progress < self.work:
            # ---- work phase ----
            if self.adaptive is not None:
                chunk = self._adaptive_chunk(progress, last_ckpt_progress)
            else:
                chunk = self.interval
            chunk = min(chunk, self.work - progress)
            t0 = sim.now
            try:
                yield sim.timeout(chunk)
                progress += chunk
            except Interrupt:
                progress = yield from self._roll_back(progress, sim.now - t0)
                last_ckpt_progress = progress
                continue
            if progress >= self.work:
                break
            if self.adaptive is not None and not self._adaptive_should_take(
                progress, last_ckpt_progress
            ):
                continue
            # ---- checkpoint phase ----
            t0 = sim.now
            try:
                yield from self.recovery.settle()
                self._in_cycle = True
                try:
                    if self.overlap:
                        yield from self._checkpoint_overlapped(progress)
                    else:
                        r = yield from self.checkpointer.run_cycle()
                        if r.committed:
                            self.result.n_checkpoints += 1
                            self._committed_progress = progress
                finally:
                    self._in_cycle = False
                self.result.checkpoint_time += sim.now - t0
                last_ckpt_progress = progress
            except Interrupt:
                progress = yield from self._roll_back(progress)
                last_ckpt_progress = progress

    def _estimated_dirty_bytes(self, since_progress: float, progress: float) -> float:
        elapsed = progress - since_progress
        return sum(
            min(vm.dirty_rate * elapsed, vm.memory_bytes)
            for vm in self.cluster.all_vms
        )

    def _adaptive_chunk(self, progress: float, last_ckpt: float) -> float:
        """Work-step size in adaptive mode: a fraction of the policy's
        current horizon so the skip/take test re-evaluates often."""
        assert self.adaptive is not None
        elapsed = progress - last_ckpt
        dirty = self._estimated_dirty_bytes(last_ckpt, progress)
        # probe: if we should already take, step minimally to reach the
        # checkpoint phase; else step a quarter of the Young horizon
        if self.adaptive.should_checkpoint(max(elapsed, 1e-9), dirty):
            return max(self.adaptive.min_interval / 4.0, 1.0)
        horizon = self.adaptive.young_equivalent(
            max(self.adaptive.overhead_of(dirty), 1e-6)
        )
        return max(horizon / 4.0, self.adaptive.min_interval, 1.0)

    def _adaptive_should_take(self, progress: float, last_ckpt: float) -> bool:
        assert self.adaptive is not None
        elapsed = progress - last_ckpt
        dirty = self._estimated_dirty_bytes(last_ckpt, progress)
        return self.adaptive.should_checkpoint(elapsed, dirty)

    def _checkpoint_overlapped(self, progress: float):
        """Process fragment: start a background cycle, return once the
        capture barrier lifts.  Waits first for the previous outstanding
        cycle to commit (one in flight at a time)."""
        sim = self.cluster.sim
        if self._outstanding is not None:
            prev_proc, _ = self._outstanding
            self._outstanding = None
            if prev_proc.alive:
                yield prev_proc
        pause_done = sim.event()
        proc = sim.process(self.checkpointer.run_cycle(pause_done=pause_done))
        captured_at = progress

        def on_done(ev) -> None:
            if ev.ok and ev.value is not None and getattr(ev.value, "committed", False):
                if captured_at > self._committed_progress:
                    self._committed_progress = captured_at
                self.result.n_checkpoints += 1

        proc.subscribe(on_done)
        self._outstanding = (proc, captured_at)
        yield pause_done

    def _finish(self, t_start: float, completed: bool) -> JobResult:
        self.result.completed = completed
        self.result.wall_time = self.cluster.sim.now - t_start
        self.tracer.emit(
            self.cluster.sim.now, "job.finished", completed=completed,
            wall=self.result.wall_time, failures=self.result.n_failures,
        )
        return self.result
