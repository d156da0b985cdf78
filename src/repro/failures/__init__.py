"""Failure modeling: distributions, domains, and schedule replay."""

from .domains import FailureDomainMap, racks
from .distributions import (
    Bathtub,
    Exponential,
    FailureDistribution,
    LogNormal,
    Weibull,
)
from .injector import FailureEvent, FailureInjector, FailureSchedule
from .mtbf import PAPER_LAMBDA, PAPER_MTBF_SECONDS

__all__ = [
    "FailureDistribution",
    "Exponential",
    "Weibull",
    "LogNormal",
    "Bathtub",
    "FailureDomainMap",
    "racks",
    "FailureEvent",
    "FailureInjector",
    "FailureSchedule",
    "PAPER_LAMBDA",
    "PAPER_MTBF_SECONDS",
]
