"""Prebuilt campaigns for the repo's simulated artifacts.

Each ``*_sweep``/``*_tasks`` builder returns the task units of one
artifact; each ``run_*_campaign`` helper executes them through a
:class:`~repro.campaign.runner.CampaignRunner` and hands back both the
reassembled artifact and the :class:`CampaignResult` (counts, wall
clock).  The CLI subcommands, the campaign-backed benches, and
``examples/campaign_sweep.py`` all run through these, so there is one
definition of each campaign.
"""

from __future__ import annotations

from ..model import chunk_sizes
from ..sim.rng import derive_seed
from ..telemetry import Probe
from .runner import CampaignRunner
from .spec import Sweep, Task
from .store import ResultStore

__all__ = [
    "validate_tasks",
    "study_sweep",
    "run_validate_campaign",
    "run_study_campaign",
]

#: Default MTBF grid of the ``validate`` command, hours.
VALIDATE_MTBF_HOURS = (0.5, 1.0, 2.0, 4.0)


def validate_tasks(
    T: float = 8 * 3600.0,
    T_ov: float = 120.0,
    T_r: float = 60.0,
    runs: int = 4000,
    seed: int = 0,
    mtbf_hours: tuple[float, ...] = VALIDATE_MTBF_HOURS,
    cases: list[tuple[float, float]] | None = None,
    chunk_runs: int = 512,
) -> tuple[list[dict], list[Task]]:
    """The VAL-MC grid as chunked Monte-Carlo tasks.

    Returns ``(cases, tasks)``: one case per grid point — with a
    per-case master seed derived from ``seed`` — and the flat task list
    (cases crossed with chunk indices).  By default the grid is
    ``mtbf_hours`` with the serial ``validate`` command's interval
    choice; pass explicit ``cases`` as ``(lam, N)`` pairs to pin both.
    """
    if cases is None:
        pairs = []
        for mtbf_h in mtbf_hours:
            lam = 1.0 / (mtbf_h * 3600.0)
            pairs.append((lam, max(60.0, (2 * T_ov / lam) ** 0.5)))
    else:
        pairs = [(float(lam), float(N)) for lam, N in cases]
    cases = []
    tasks = []
    for lam, N in pairs:
        mtbf_h = 1.0 / lam / 3600.0
        case = {
            "mtbf_h": mtbf_h,
            "lam": lam,
            "N": N,
            "master_seed": derive_seed(
                seed, f"validate/case/{lam!r}/{N!r}"
            ),
        }
        cases.append(case)
        for index in range(len(chunk_sizes(runs, chunk_runs))):
            tasks.append(Task(
                kind="mc_chunk",
                params={
                    "lam": lam,
                    "T": T,
                    "N": N,
                    "T_ov": T_ov,
                    "T_r": T_r,
                    "n_runs": runs,
                    "chunk_runs": chunk_runs,
                    "chunk_index": index,
                    "final_checkpoint": True,
                    "master_seed": case["master_seed"],
                },
            ))
    return cases, tasks


def study_sweep(
    methods: list[dict],
    work: float = 4 * 3600.0,
    interval: float = 600.0,
    node_mtbf: float = 6 * 3600.0,
    repair_time: float = 30.0,
    seeds: int = 5,
    n_nodes: int = 4,
    vms_per_node: int = 3,
    name: str = "study",
) -> Sweep:
    """A paired job study as one campaign cell per (method, trace seed).

    ``methods`` are dicts with the :class:`repro.experiments.MethodSpec`
    fields (``name``, optional ``incremental``/``overlap``/``label``).
    """
    if not methods:
        raise ValueError("need at least one method")
    if seeds < 1:
        raise ValueError(f"need at least one seed, got {seeds}")
    return Sweep(
        name=name,
        kind="study_cell",
        base={
            "work": work,
            "interval": interval,
            "node_mtbf": node_mtbf,
            "repair_time": repair_time,
            "n_nodes": n_nodes,
            "vms_per_node": vms_per_node,
        },
        grid={
            "method": methods,
            "trace_seed": list(range(seeds)),
        },
        seeded=False,
    )


def run_validate_campaign(
    jobs: int = 1,
    store: ResultStore | str | None = None,
    resume: bool = True,
    probe: Probe | None = None,
    **task_kwargs,
):
    """Execute the VAL-MC grid.

    Returns ``(rows, CampaignResult)`` where each row is the case dict
    plus its merged ``estimate`` (:class:`MonteCarloEstimate`).
    """
    from .aggregate import mc_estimate_from_values

    cases, tasks = validate_tasks(**task_kwargs)
    result = CampaignRunner(store, jobs, resume, probe).run(tasks)
    result.raise_if_all_failed()
    rows = []
    for case in cases:
        values = [
            r.value for r in result.runs
            if r.ok and r.task.kind == "mc_chunk"
            and r.task.params.get("master_seed") == case["master_seed"]
        ]
        rows.append({**case, "estimate": mc_estimate_from_values(values)})
    return rows, result


def run_study_campaign(
    jobs: int = 1,
    store: ResultStore | str | None = None,
    resume: bool = True,
    probe: Probe | None = None,
    **sweep_kwargs,
):
    """Execute a paired study; returns ``(StudyOutcome, CampaignResult)``."""
    from .aggregate import study_outcome_from_values

    sweep = study_sweep(**sweep_kwargs)
    result = CampaignRunner(store, jobs, resume, probe).run(sweep.expand())
    result.raise_if_all_failed()
    outcome = study_outcome_from_values(
        result.values("study_cell"), work=sweep.base["work"]
    )
    return outcome, result
