"""Parallel, resumable experiment-campaign orchestration.

The subsystem that turns the repo's serial parameter loops into
independent task units with deterministic seeding, fans them across
cores, caches completed results content-addressed on disk, and feeds
them back into the existing analysis tables::

    from repro.campaign import CampaignRunner, validate_tasks

    cases, tasks = validate_tasks()
    runner = CampaignRunner(store="campaign_store", jobs=4)
    result = runner.run(tasks)                 # resumable: hits are free

Task values are JSON values, so a cached result equals a fresh one.
See ``docs/campaigns.md`` for the spec format, seeding guarantees,
store layout, and resume semantics.
"""

from .aggregate import (
    mc_estimate_from_values,
    study_outcome_from_values,
)
from .presets import (
    run_study_campaign,
    run_validate_campaign,
    study_sweep,
    validate_tasks,
)
from .runner import (
    CampaignResult,
    CampaignRunner,
    TaskRun,
    execute_task,
    execute_task_batch,
)
from .spec import Sweep, Task, canonical_json, task_key
from .store import ResultStore
from .tasks import TaskKind, get_kind, register_task

__all__ = [
    "Task",
    "Sweep",
    "canonical_json",
    "task_key",
    "ResultStore",
    "CampaignRunner",
    "CampaignResult",
    "TaskRun",
    "execute_task",
    "execute_task_batch",
    "TaskKind",
    "register_task",
    "get_kind",
    "validate_tasks",
    "study_sweep",
    "run_validate_campaign",
    "run_study_campaign",
    "mc_estimate_from_values",
    "study_outcome_from_values",
]
