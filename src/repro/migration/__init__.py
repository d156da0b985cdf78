"""Live-migration substrate: pre-copy, downtime, page-hash dedup."""

from .downtime import PAPER_BASE_OVERHEAD, DowntimeModel
from .pagehash import DedupPlan, PageHashIndex, hash_pages, plan_dedup_transfer
from .precopy import PrecopyModel, PrecopyResult, live_migrate

__all__ = [
    "DowntimeModel",
    "PAPER_BASE_OVERHEAD",
    "PrecopyModel",
    "PrecopyResult",
    "live_migrate",
    "PageHashIndex",
    "DedupPlan",
    "plan_dedup_transfer",
    "hash_pages",
]
