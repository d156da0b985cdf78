"""Paired serving studies: what does each protection policy cost a user?

One *cell* = (policy, trace seed): a cluster of PS replicas serving one
seeded open-loop arrival trace under one protection policy.  All
policies at the same trace seed share identical arrival, service, and
failure traces (common random numbers), so cross-policy latency
differences are pure protocol cost — the same CRN discipline
:func:`~repro.experiments.run_job_cell` applies to batch jobs.

The default policy set is the ISSUE's comparison square:

* ``baseline`` — no protection: crashes shed in-flight requests and
  lose everything not yet served (replicas cold-start empty).
* ``checkpoint`` — DVDC diskless checkpointing at a fixed interval:
  pause barriers periodically freeze every replica (tail inflation),
  crashes recover by rollback.
* ``checkpoint_sla`` — same, plus the SLA controller steering the
  interval against a p99 target.
* ``clone2`` — request cloning to 2 replicas, first-completion-wins:
  the PS-redundancy alternative to checkpointing for *serving* state.

Cells run serially, or as ``serving_cell`` campaign tasks (parallel,
resumable, bit-identical across ``--jobs`` — pinned by the golden
determinism suite).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ..analysis.tables import render_table
from ..checkpoint.strategies import IncrementalCapture
from ..core.architectures import dvdc
from ..failures.distributions import Exponential
from ..failures.injector import FailureInjector, FailureSchedule
from ..sim import NULL_TRACER, Tracer
from ..workloads.generators import scaled_scenario
from .arrivals import ArrivalConfig, OpenLoopArrivals
from .controller import SLAController
from .runtime import ServingRuntime

__all__ = [
    "ServingPolicy",
    "ServingLoad",
    "DEFAULT_POLICIES",
    "policies_named",
    "ServingStudyOutcome",
    "build_serving_cell",
    "run_serving_cell",
    "run_serving_study",
    "serving_sweep",
]


@dataclass(frozen=True)
class ServingPolicy:
    """One protection configuration to compare."""

    name: str
    checkpoint: bool = False
    clone: int = 1
    sla: bool = False
    interval: float = 5.0

    def __post_init__(self) -> None:
        if self.clone < 1:
            raise ValueError(f"clone must be >= 1, got {self.clone}")
        if self.sla and not self.checkpoint:
            raise ValueError("sla control needs checkpoint=True")
        if not self.interval > 0:  # NaN included
            raise ValueError(f"interval must be > 0, got {self.interval}")


#: The comparison square.  Checkpoint policies start at an aggressive
#: 1 s interval (tight RPO): fixed-interval pays for it in p99, the SLA
#: variant starts identically but relaxes the cadence when p99 breaches
#: the SLO — the delta between the two rows is the controller's win.
DEFAULT_POLICIES: tuple[ServingPolicy, ...] = (
    ServingPolicy("baseline"),
    ServingPolicy("checkpoint", checkpoint=True, interval=1.0),
    ServingPolicy("checkpoint_sla", checkpoint=True, sla=True, interval=1.0),
    ServingPolicy("clone2", clone=2),
)

_POLICY_BY_NAME = {p.name: p for p in DEFAULT_POLICIES}


def policies_named(names: list[str]) -> list[ServingPolicy]:
    """Resolve policy names against the default set."""
    out = []
    for name in names:
        if name not in _POLICY_BY_NAME:
            raise ValueError(
                f"unknown policy {name!r}; pick from "
                f"{sorted(_POLICY_BY_NAME)}"
            )
        out.append(_POLICY_BY_NAME[name])
    return out


@dataclass(frozen=True)
class ServingLoad:
    """Shared cluster + traffic shape of one study (policy-independent).

    Defaults put ~60% utilization on 8 replicas with ~40 ms pause
    windows per checkpoint cycle — enough headroom that the system is
    stable, and enough load that pause windows show up in p99.
    """

    rate: float = 240.0
    n_requests: int = 60_000
    service_mean: float = 0.02
    service_dist: str = "exponential"
    chunk_requests: int = 16_384
    n_nodes: int = 4
    vms_per_node: int = 2
    #: serving VMs are small (128 MiB): checkpoint cycles then complete
    #: in O(100ms)-seconds, so a per-seconds cadence is sustainable
    vm_memory: float = float(128 << 20)
    node_mtbf: float = 0.0  # 0 = no crash injection
    repair_time: float = 20.0
    slo_p99: float = 0.25
    group_size: int | None = None

    def arrival_config(self) -> ArrivalConfig:
        return ArrivalConfig(
            rate=self.rate,
            n_requests=self.n_requests,
            service_mean=self.service_mean,
            service_dist=self.service_dist,
            chunk_requests=self.chunk_requests,
        )


def run_serving_cell(
    policy: ServingPolicy,
    load: ServingLoad,
    seed: int,
    tracer: Tracer = NULL_TRACER,
) -> dict:
    """Run one (policy, trace seed) cell; returns the JSON-able report.

    The scenario, arrival streams, and failure schedule derive from
    ``seed`` alone, so every policy at the same seed faces the same
    world.
    """
    return build_serving_cell(policy, load, seed, tracer)()


def build_serving_cell(
    policy: ServingPolicy,
    load: ServingLoad,
    seed: int,
    tracer: Tracer = NULL_TRACER,
) -> Callable[[], dict]:
    """Build one cell and return the call that runs it to its report.

    A cluster shape no layout fits raises here, before any event runs,
    so a caller can tell a bad shape from a failure during the run.
    """
    sc = scaled_scenario(
        load.n_nodes, load.vms_per_node, vm_memory=load.vm_memory,
        seed=seed, image_pages=16, page_size=64, tracer=tracer,
    )
    arrivals = OpenLoopArrivals(load.arrival_config(), sc.rngs)
    ck = None
    if policy.checkpoint:
        # incremental capture: epoch 0 ships full images (one slow
        # warm-up cycle), every later epoch only the dirty pages — the
        # cadence the SLA controller actually gets to steer
        ck = dvdc(
            sc.cluster, group_size=load.group_size,
            strategy=IncrementalCapture(), tracer=tracer,
        )
    injector = None
    if load.node_mtbf > 0:
        schedule = FailureSchedule.draw(
            sc.rngs.stream("failure-trace"),
            Exponential(1.0 / load.node_mtbf),
            load.n_nodes,
            horizon=load.n_requests / load.rate * 10,
            repair_time=load.repair_time,
        )
        injector = FailureInjector(
            sc.sim, load.n_nodes, schedule=schedule, tracer=tracer
        )
    runtime = ServingRuntime(
        sc, arrivals,
        checkpointer=ck,
        injector=injector,
        repair_time=load.repair_time,
        clone=policy.clone,
        interval=policy.interval,
        tracer=tracer,
        policy=policy.name,
    )
    if policy.sla:
        runtime.controller = SLAController(
            runtime, load.slo_p99,
            min_interval=max(policy.interval / 8.0, 0.5),
            max_interval=policy.interval * 16.0,
            tracer=tracer,
        )

    def run() -> dict:
        if injector is not None:
            injector.start()
        runtime.start()
        sc.sim.run(until=load.n_requests / load.rate * 50.0 + 1000.0)
        report = runtime.report()
        report["policy"] = policy.name
        report["trace_seed"] = seed
        return report

    return run


@dataclass
class ServingStudyOutcome:
    """All cells of a serving study plus presentation helpers."""

    cells: list[dict]
    load: ServingLoad

    def for_policy(self, name: str) -> list[dict]:
        return [c for c in self.cells if c["policy"] == name]

    def mean_quantile(self, name: str, q: str) -> float:
        vals = [
            c["latency"][q] for c in self.for_policy(name)
            if c.get("latency")
        ]
        return float(np.mean(vals)) if vals else float("nan")

    def summary_table(self) -> str:
        policies: list[str] = []
        for c in self.cells:
            if c["policy"] not in policies:
                policies.append(c["policy"])
        rows = []
        for name in policies:
            cells = self.for_policy(name)
            lost = sum(c["lost"] + c["lost_unrouted"] for c in cells)
            offered = sum(c["offered"] for c in cells)
            pauses = float(np.mean([c["pause_seconds"] for c in cells]))
            rows.append([
                name,
                str(offered),
                f"{self.mean_quantile(name, 'p50') * 1e3:.1f}",
                f"{self.mean_quantile(name, 'p95') * 1e3:.1f}",
                f"{self.mean_quantile(name, 'p99') * 1e3:.1f}",
                f"{self.mean_quantile(name, 'p999') * 1e3:.1f}",
                f"{lost / offered * 100:.2f}%" if offered else "-",
                f"{pauses:.2f}",
                str(sum(c["failures"] for c in cells)),
                str(sum(c["recoveries"] for c in cells)),
                str(sum(c["salvaged"] for c in cells)),
            ])
        seeds = len({c["trace_seed"] for c in self.cells})
        return render_table(
            ["policy", "offered", "p50 ms", "p95 ms", "p99 ms",
             "p999 ms", "lost", "pause s", "failures", "recovered",
             "salvaged"],
            rows,
            title=f"serving study over {seeds} shared arrival+failure "
                  "trace(s)",
        )


def serving_sweep(
    policies: list[ServingPolicy],
    load: ServingLoad,
    seeds: int = 3,
    name: str = "serving",
):
    """The study as a campaign sweep of ``serving_cell`` tasks."""
    from ..campaign.spec import Sweep

    return Sweep(
        name=name,
        kind="serving_cell",
        base={"load": asdict(load)},
        grid={
            "policy": [asdict(p) for p in policies],
            "trace_seed": list(range(seeds)),
        },
        seeded=False,
    )


def run_serving_study(
    policies: list[ServingPolicy] | None = None,
    load: ServingLoad | None = None,
    seeds: int = 3,
    jobs: int = 1,
    store=None,
    resume: bool = True,
) -> tuple[ServingStudyOutcome, "object"]:
    """Execute a paired serving study through the campaign runner.

    Returns ``(ServingStudyOutcome, CampaignResult)``.  ``jobs > 1``
    parallelizes across cells with bit-identical results (each cell is
    a deterministic function of its parameters).
    """
    from ..campaign import CampaignRunner

    policies = list(policies) if policies else list(DEFAULT_POLICIES)
    load = load or ServingLoad()
    sweep = serving_sweep(policies, load, seeds=seeds)
    result = CampaignRunner(store=store, jobs=jobs, resume=resume).run(
        sweep.expand()
    )
    result.raise_if_all_failed()
    # task order is policy-major, seed-minor: the sweep crosses its axes
    # in sorted name order (``policy`` before ``trace_seed``)
    cells = result.values("serving_cell")
    return ServingStudyOutcome(cells=cells, load=load), result
