"""Parallel, resumable execution of campaign tasks.

The runner fans independent :class:`~repro.campaign.spec.Task` units out
across a :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs=1``
runs inline with no pool).  Four invariants make ``--jobs N`` safe:

* **Seed discipline** — every task carries its own master seed, derived
  from parameter values at expansion time; workers never share or
  advance a common stream, so parallel results are bit-identical to
  serial ones.
* **Failure isolation** — task functions run inside a catch-all in the
  worker; an exception marks that task failed and the sweep continues.
* **JSON values** — a value :func:`json.dumps` rejects fails *its*
  task, so a fresh run returns what the store will serve back.
* **Deterministic collection** — results are gathered and persisted in
  task-list order regardless of completion order, so stores, aggregated
  tables, and floating-point merges never depend on scheduling.

With a :class:`~repro.campaign.store.ResultStore` attached, completed
tasks are looked up by content hash first (``resume=True``), so
re-running a half-finished sweep executes only the missing tasks; each
result is persisted as it is collected, so an interrupted run keeps them.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..telemetry import NULL_PROBE, Probe
from .spec import Task
from .store import ResultStore
from .tasks import get_kind

__all__ = [
    "TaskRun",
    "CampaignResult",
    "CampaignRunner",
    "execute_task",
    "execute_task_batch",
]


def execute_task(task_dict: dict) -> dict:
    """Run one task in the current process; never raises.

    Top-level (hence picklable) worker entry point.  Returns
    ``{"ok": bool, "value": dict|None, "error": str|None, "elapsed": s}``.
    A value that is not JSON-serializable fails here, not in the store.
    """
    start = time.perf_counter()
    try:
        task = Task.from_dict(task_dict)
        kind = get_kind(task.kind)
        value = kind.fn(task.params, task.seed)
        json.dumps(value)
        return {
            "ok": True,
            "value": value,
            "error": None,
            "elapsed": time.perf_counter() - start,
        }
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return {
            "ok": False,
            "value": None,
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed": time.perf_counter() - start,
        }


def execute_task_batch(task_dicts: list[dict]) -> list[dict]:
    """Run a contiguous batch of tasks in the current process.

    One pool submission per *batch* instead of per task: pickling and
    future bookkeeping cost ~ms per submission, which dominates when
    individual tasks run in tens of ms (the fig. 5 sweep's regime) and
    made ``--jobs 4`` slower than serial.  Each task still executes
    through :func:`execute_task`, so isolation and per-task seeding are
    unchanged.
    """
    return [execute_task(td) for td in task_dicts]


@dataclass(frozen=True)
class TaskRun:
    """Outcome of one task within a campaign run."""

    task: Task
    value: dict | None
    error: str | None = None
    cached: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CampaignResult:
    """All task outcomes of one run, in task-list order."""

    runs: list[TaskRun] = field(default_factory=list)
    jobs: int = 1
    wall_time: float = 0.0

    @property
    def n_total(self) -> int:
        return len(self.runs)

    @property
    def n_cached(self) -> int:
        return sum(r.cached for r in self.runs)

    @property
    def n_executed(self) -> int:
        return sum(not r.cached for r in self.runs)

    @property
    def n_failed(self) -> int:
        return sum(not r.ok for r in self.runs)

    def values(self, kind: str | None = None) -> list[dict]:
        """Successful task values in task order."""
        return [
            r.value for r in self.runs
            if r.ok and (kind is None or r.task.kind == kind)
        ]

    def failures(self) -> list[TaskRun]:
        return [r for r in self.runs if not r.ok]

    def raise_if_all_failed(self) -> None:
        """A sweep with no survivor has nothing to aggregate."""
        if self.runs and self.n_failed == self.n_total:
            first = self.failures()[0].error
            raise RuntimeError(f"every campaign task failed; first error: {first}")

    def summary_table(self, title: str = "campaign") -> str:
        from ..analysis import render_table

        return render_table(
            ["tasks", "executed", "cached", "failed", "jobs", "wall clock"],
            [[
                self.n_total,
                self.n_executed,
                self.n_cached,
                self.n_failed,
                self.jobs,
                f"{self.wall_time:.2f}s",
            ]],
            title=title,
        )


class CampaignRunner:
    """Execute tasks with optional parallelism and result caching.

    ``jobs=1`` runs inline (no subprocess); ``jobs>1`` uses a process
    pool.  ``store`` is a :class:`ResultStore`, a directory path to open
    one at, or ``None`` to disable caching; with a store, completed
    tasks are served from it when ``resume`` and each executed task is
    persisted as soon as it is collected.
    """

    def __init__(
        self,
        store: ResultStore | str | os.PathLike | None = None,
        jobs: int = 1,
        resume: bool = True,
        probe: Probe | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.jobs = jobs
        self.resume = resume
        self.probe = probe if probe is not None else NULL_PROBE

    @staticmethod
    def _chunk(pending: list[int], jobs: int) -> list[list[int]]:
        """Contiguous batches, ~4 per worker to keep the pool load-balanced."""
        size = max(1, math.ceil(len(pending) / (jobs * 4)))
        return [pending[i:i + size] for i in range(0, len(pending), size)]

    def _execute(self, tasks: Sequence[Task], pending: list[int]) -> Iterator:
        """``(index, raw result)`` of each pending task, lazily, in order."""
        if self.jobs == 1 or not pending:
            for i in pending:
                yield i, execute_task(tasks[i].to_dict())
            return
        batches = self._chunk(pending, self.jobs)
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = [
                pool.submit(
                    execute_task_batch, [tasks[i].to_dict() for i in batch]
                )
                for batch in batches
            ]
            for batch, future in zip(batches, futures):
                yield from zip(batch, future.result())

    def run(self, tasks: Sequence[Task]) -> CampaignResult:
        start = time.perf_counter()
        probe = self.probe
        span = probe.span_begin(
            "campaign.run", 0.0, track="campaign",
            n_tasks=len(tasks), jobs=self.jobs,
        )
        runs: list[TaskRun | None] = [None] * len(tasks)

        pending: list[int] = []
        for i, task in enumerate(tasks):
            rec = None
            if self.store is not None and self.resume:
                rec = self.store.get(task.key)
            if rec is not None:
                runs[i] = TaskRun(
                    task=task,
                    value=rec["value"],
                    cached=True,
                    elapsed=float(rec.get("elapsed", 0.0)),
                )
            else:
                pending.append(i)

        # pending ascends and results arrive in submission order, so the
        # store grows in task-list order and survives a later task's crash
        for i, raw in self._execute(tasks, pending):
            run = runs[i] = TaskRun(
                task=tasks[i],
                value=raw["value"],
                error=raw["error"],
                elapsed=raw["elapsed"],
            )
            if self.store is not None and run.ok:
                self.store.put(run.task, run.value, run.elapsed)

        wall = time.perf_counter() - start
        if probe.enabled:
            busy = 0.0
            for r in runs:
                state = "cached" if r.cached else ("executed" if r.ok else "failed")
                probe.count(
                    "repro_campaign_tasks_total",
                    help="Campaign tasks, by kind and outcome",
                    kind=r.task.kind, state=state,
                )
                if not r.cached:
                    busy += r.elapsed
                    probe.observe(
                        "repro_campaign_task_seconds", r.elapsed,
                        help="Per-task execution time, by kind",
                        kind=r.task.kind,
                    )
            probe.gauge_set(
                "repro_campaign_workers", self.jobs,
                help="Worker processes in the last campaign run",
            )
            probe.gauge_set(
                "repro_campaign_worker_utilization",
                busy / (self.jobs * wall) if wall > 0 else 0.0,
                help="Busy fraction of the worker pool (task CPU / jobs*wall)",
            )
        probe.span_end(span, wall, n_pending=len(pending))
        return CampaignResult(runs=runs, jobs=self.jobs, wall_time=wall)
