"""Workloads: checkpointed jobs, dirty-page processes, scenario factories."""

from .app import CheckpointedJob, JobResult
from .dirtypages import HotColdDirty, drive_vm
from .generators import Scenario, paper_scenario, scaled_scenario

__all__ = [
    "CheckpointedJob",
    "JobResult",
    "HotColdDirty",
    "drive_vm",
    "Scenario",
    "paper_scenario",
    "scaled_scenario",
]
