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

import numpy as np

from .analysis.stats import summarize
from .analysis.tables import format_seconds, render_table
from .checkpoint.diskful import DiskfulCheckpointer
from .checkpoint.strategies import ForkedCapture, IncrementalCapture
from .core.architectures import checkpoint_node, dvdc, first_shot
from .failures.distributions import Exponential
from .failures.injector import FailureInjector, FailureSchedule
from .sim import NULL_TRACER, Tracer
from .workloads.app import CheckpointedJob, JobResult
from .workloads.generators import scaled_scenario

__all__ = ["MethodSpec", "JobOutcome", "StudyOutcome", "run_job_cell"]

#: Named method constructors: name -> (factory(cluster, incremental) -> ckpt)
_METHOD_NAMES = ("dvdc", "diskful", "dvdc_rdp", "checkpoint_node", "first_shot")


@dataclass(frozen=True)
class MethodSpec:
    """One checkpointing configuration to compare.

    ``name`` ∈ {dvdc, diskful, dvdc_rdp, checkpoint_node, first_shot}.
    ``incremental`` uses dirty-page capture where the method supports it
    (dvdc, diskful); ``overlap`` runs the job in latency-hiding mode.
    ``label`` defaults to a description of the flags.
    """

    name: str
    incremental: bool = True
    overlap: bool = False
    label: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _METHOD_NAMES:
            raise ValueError(
                f"unknown method {self.name!r}; pick from {_METHOD_NAMES}"
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

    def build(self, cluster, tracer: Tracer = NULL_TRACER):
        """Instantiate the checkpointer on a cluster.

        Mutates the cluster where the architecture demands it (vacating
        the parity node, thinning to one VM per node).
        """
        strategy = IncrementalCapture() if self.incremental else ForkedCapture()
        if self.name == "dvdc":
            return dvdc(cluster, strategy=strategy, tracer=tracer)
        if self.name == "diskful":
            return DiskfulCheckpointer(cluster, strategy=strategy, tracer=tracer)
        if self.name == "dvdc_rdp":
            return dvdc(
                cluster, strategy=strategy, scheme="rdp",
                group_size=max(1, cluster.n_nodes - 2), tracer=tracer,
            )
        if self.name == "checkpoint_node":
            node = cluster.n_nodes - 1
            for vm in list(cluster.vms_on(node)):
                cluster.node(node).evict(vm)
                del cluster.vms[vm.vm_id]
            return checkpoint_node(cluster, node_id=node, tracer=tracer)
        # first_shot: thin to one VM per node, freeing the last node
        for node_id in range(cluster.n_nodes):
            vms = cluster.vms_on(node_id)
            drop = vms[1:] if node_id < cluster.n_nodes - 1 else vms
            for vm in drop:
                cluster.node(node_id).evict(vm)
                del cluster.vms[vm.vm_id]
        return first_shot(cluster, tracer=tracer)


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
        methods = sorted({c.method for c in self.cells})
        rows = []
        for m in methods:
            rs = self.for_method(m)
            done = [r for r in rs if r.completed]
            ratios = [r.time_ratio for r in done]
            rows.append([
                m,
                f"{self.completion_rate(m) * 100:.0f}%",
                f"{np.mean(ratios):.3f}" if ratios else "-",
                f"{summarize(ratios).std:.3f}" if len(ratios) > 1 else "-",
                format_seconds(float(np.mean([r.checkpoint_time for r in done])))
                if done else "-",
                format_seconds(float(np.mean([r.lost_work for r in done])))
                if done else "-",
            ])
        return render_table(
            ["method", "completed", "mean T/T_ideal", "sd", "mean ckpt time",
             "mean lost work"],
            rows,
            title=f"paired study over {len({c.seed for c in self.cells})} "
                  "shared failure traces",
        )


def run_job_cell(
    spec: MethodSpec,
    seed: int,
    *,
    work: float,
    interval: float,
    node_mtbf: float,
    repair_time: float,
    n_nodes: int,
    vms_per_node: int,
) -> JobOutcome:
    """One (method, trace seed) cell of a paired job study.

    ``seed`` draws one failure schedule; every method replays it
    exactly (common random numbers), so cross-method differences are
    pure protocol cost.
    """
    # RDP needs room for two parity homes off the member nodes
    if spec.name == "dvdc_rdp" and n_nodes < 4:
        raise ValueError("dvdc_rdp needs >= 4 nodes")
    sc = scaled_scenario(
        n_nodes, vms_per_node, seed=seed, image_pages=32, page_size=128
    )
    rng = sc.rngs.stream("failure-trace")
    schedule = FailureSchedule.draw(
        rng, Exponential(1.0 / node_mtbf), n_nodes,
        horizon=work * 10, repair_time=repair_time,
    )
    injector = FailureInjector(sc.sim, n_nodes, schedule=schedule)
    ck = spec.build(sc.cluster)
    job = CheckpointedJob(
        sc.cluster, ck, work=work, interval=interval,
        injector=injector, repair_time=repair_time, overlap=spec.overlap,
    )
    injector.start()
    proc = job.start()
    sc.sim.run(until=work * 100)
    if proc.ok is False:
        raise proc.value
    return JobOutcome(method=spec.display, seed=seed, result=job.result)
