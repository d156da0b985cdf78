"""High-level experiment harness.

The benches, examples, and CLI all run variations of two experiments:
*paired job comparisons* (several checkpointing methods over identical
failure traces) and *epoch microbenchmarks* (one cycle of each
architecture on an equivalent cluster).  This module is the single
implementation both lean on.  A paired study runs one campaign cell per
(method, trace seed) through :func:`repro.campaign.run_study_campaign`::

    from repro.campaign import run_study_campaign

    outcome, _ = run_study_campaign(
        methods=[{"name": "dvdc"}, {"name": "diskful"}],
        work=4 * 3600, interval=600, node_mtbf=6 * 3600, seeds=10,
    )
    print(outcome.summary_table())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analysis.stats import summarize
from .analysis.tables import format_seconds, render_table
from .checkpoint.base import CheckpointCycleResult
from .checkpoint.diskful import DiskfulCheckpointer
from .checkpoint.strategies import ForkedCapture, IncrementalCapture
from .core.architectures import checkpoint_node, dvdc, first_shot
from .failures.distributions import Exponential
from .failures.injector import FailureInjector, FailureSchedule
from .sim import NULL_TRACER, Tracer
from .telemetry import NULL_PROBE, probe_of
from .workloads.app import CheckpointedJob, JobResult
from .workloads.generators import scaled_scenario

__all__ = ["METHOD_NAMES", "MethodSpec", "JobOutcome", "StudyOutcome",
           "build_epoch_cell", "build_job_cell", "run_job_cell"]

METHOD_NAMES = ("dvdc", "diskful", "dvdc_rdp", "checkpoint_node", "first_shot")

#: Fewest nodes each method runs on: RDP's two parity homes off the
#: members, the checkpoint server or parity node beside a data node.
_MIN_NODES = {"dvdc_rdp": 4, "checkpoint_node": 2, "first_shot": 2}


@dataclass(frozen=True)
class MethodSpec:
    """One checkpointing configuration to compare.

    ``name`` ∈ :data:`METHOD_NAMES`.  ``incremental`` uses dirty-page
    capture where the method supports it (dvdc, diskful); ``overlap``
    runs the job in latency-hiding mode.  ``label`` defaults to a
    description of the flags.
    """

    name: str
    incremental: bool = True
    overlap: bool = False
    label: str | None = None

    def __post_init__(self) -> None:
        if self.name not in METHOD_NAMES:
            raise ValueError(
                f"unknown method {self.name!r}; pick from {METHOD_NAMES}"
            )

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        bits = [self.name]
        if not self.incremental:
            bits.append("full")
        if self.overlap:
            bits.append("overlap")
        return "+".join(bits)

    def build(
        self,
        n_nodes: int,
        vms_per_node: int,
        *,
        seed: int = 0,
        tracer: Tracer = NULL_TRACER,
        image_pages: int = 64,
        page_size: int = 256,
    ):
        """The ``n_nodes`` cluster this method runs on, and its checkpointer.

        ``checkpoint_node`` keeps the last node free for the checkpoint
        server; ``first_shot`` runs one VM on each other node and keeps
        the last free for parity.  Sizes reach here from campaign spec
        files, so bad ones are rejected by field name.  A
        :class:`~repro.telemetry.Probe` as ``tracer`` also observes the
        simulator's events.
        """
        # before first_shot's shaping replaces it with 1
        if vms_per_node < 1:
            raise ValueError(f"vms_per_node must be >= 1, got {vms_per_node}")
        low = _MIN_NODES.get(self.name, 1)
        if n_nodes < low:
            raise ValueError(f"{self.name} needs >= {low} nodes, got {n_nodes}")
        sc = scaled_scenario(
            n_nodes, 1 if self.name == "first_shot" else vms_per_node,
            seed=seed, image_pages=image_pages, page_size=page_size,
            spares=int(self.name in ("checkpoint_node", "first_shot")),
            tracer=tracer,
        )
        if probe_of(tracer) is not NULL_PROBE:
            sc.sim.attach_probe(tracer)
        cluster = sc.cluster
        strategy = IncrementalCapture() if self.incremental else ForkedCapture()
        if self.name == "dvdc":
            return sc, dvdc(cluster, strategy=strategy, tracer=tracer)
        if self.name == "diskful":
            return sc, DiskfulCheckpointer(cluster, strategy=strategy, tracer=tracer)
        if self.name == "dvdc_rdp":
            return sc, dvdc(cluster, strategy=strategy, scheme="rdp",
                            group_size=n_nodes - 2, tracer=tracer)
        if self.name == "checkpoint_node":
            return sc, checkpoint_node(cluster, node_id=n_nodes - 1, tracer=tracer)
        return sc, first_shot(cluster, tracer=tracer)


@dataclass
class JobOutcome:
    """One (method, seed) cell of a study."""

    method: str
    seed: int
    result: JobResult


@dataclass
class StudyOutcome:
    """All cells plus aggregation helpers."""

    cells: list[JobOutcome] = field(default_factory=list)
    work: float = 0.0

    def for_method(self, method: str) -> list[JobResult]:
        return [c.result for c in self.cells if c.method == method]

    def completion_rate(self, method: str) -> float:
        rs = self.for_method(method)
        return sum(r.completed for r in rs) / len(rs) if rs else float("nan")

    def summary_table(self) -> str:
        """Per-method means over the *paired* seeds, those every method
        completed, so a method that loses runs is not averaged over its
        survivors alone.  Each method's lost runs get a column, and the
        seeds left out of the means are named under the table."""
        methods = sorted({c.method for c in self.cells})
        seeds = sorted({c.seed for c in self.cells})
        done = {(c.method, c.seed) for c in self.cells if c.result.completed}
        paired = {s for s in seeds if all((m, s) in done for m in methods)}
        rows = []
        for m in methods:
            rs = [c.result for c in self.cells if c.method == m and c.seed in paired]
            ratios = [r.time_ratio for r in rs]
            rows.append([
                m,
                f"{self.completion_rate(m) * 100:.0f}%",
                sum(not r.completed for r in self.for_method(m)),
                f"{np.mean(ratios):.3f}" if ratios else "-",
                f"{summarize(ratios).std:.3f}" if len(ratios) > 1 else "-",
                format_seconds(float(np.mean([r.checkpoint_time for r in rs])))
                if rs else "-",
                format_seconds(float(np.mean([r.lost_work for r in rs])))
                if rs else "-",
            ])
        table = render_table(
            ["method", "completed", "lost runs", "mean T/T_ideal", "sd",
             "mean ckpt time", "mean lost work"],
            rows,
            title=f"paired study over {len(paired)} of {len(seeds)} "
                  "shared failure traces (seeds every method completed)",
        )
        dropped = [s for s in seeds if s not in paired]
        if dropped:
            table += ("\n  dropped from the means (a method lost the run): "
                      f"seed{'s' if len(dropped) > 1 else ''} "
                      + ", ".join(map(str, dropped)))
        return table


def build_epoch_cell(spec: MethodSpec, n_nodes: int, vms_per_node: int,
                     **build) -> Callable[[], CheckpointCycleResult]:
    """Build ``spec``'s cluster (``build``: :meth:`MethodSpec.build`'s
    keywords) and return the call that runs one checkpoint epoch on it
    to its cycle result.  A cluster shape no layout fits raises here,
    before any event runs."""
    sc, ck = spec.build(n_nodes, vms_per_node, **build)
    return lambda: sc.sim.run_process(ck.run_cycle())


def run_job_cell(spec: MethodSpec, seed: int, **cell) -> JobOutcome:
    """Run one cell of a paired job study: ``build_job_cell(...)()``."""
    return build_job_cell(spec, seed, **cell)()


def build_job_cell(
    spec: MethodSpec,
    seed: int,
    *,
    work: float,
    interval: float,
    node_mtbf: float,
    repair_time: float,
    n_nodes: int,
    vms_per_node: int,
    tracer: Tracer = NULL_TRACER,
) -> Callable[[], JobOutcome]:
    """Build one (method, trace seed) cell of a paired job study and
    return the call that runs it.

    ``seed`` draws one failure schedule; every method replays it
    exactly (common random numbers), so cross-method differences are
    pure protocol cost.  A cluster shape no layout fits raises here,
    before any event runs.
    """
    sc, ck = spec.build(
        n_nodes, vms_per_node, seed=seed, tracer=tracer,
        image_pages=32, page_size=128,
    )
    rng = sc.rngs.stream("failure-trace")
    schedule = FailureSchedule.draw(
        rng, Exponential(1.0 / node_mtbf), n_nodes,
        horizon=work * 10, repair_time=repair_time,
    )
    injector = FailureInjector(sc.sim, n_nodes, schedule=schedule, tracer=tracer)
    job = CheckpointedJob(
        sc.cluster, ck, work=work, interval=interval,
        injector=injector, repair_time=repair_time, overlap=spec.overlap,
    )

    def run() -> JobOutcome:
        injector.start()
        sc.sim.run_process(job.start(), until=work * 100)
        return JobOutcome(method=spec.display, seed=seed, result=job.result)

    return run
