"""SLA-driven checkpoint control: trade protection cadence for tail latency.

The controller closes the loop the ISSUE names: it watches per-window
latency quantiles and turns the one knob checkpointing exposes to the
serving path — the checkpoint interval, i.e. how often the coordinated
pause barrier freezes every replica.  When the observed p99 breaches
the SLO it *relaxes* the cadence (longer interval, fewer pause windows,
less tail inflation); when p99 sits comfortably under the SLO it
*tightens* it back (shorter interval, less lost work per crash).  Both
moves are multiplicative and clamped to ``[min_interval,
max_interval]``, the classic AIMD-flavored shape that cannot oscillate
out of bounds.

The target is anything with a mutable ``interval`` attribute read once
per cycle — :class:`~repro.serving.runtime.ServingRuntime`.

Window quantiles are computed exactly (``np.quantile`` over that
window's latency array), not from the cumulative P² estimate: control
needs a *responsive* signal, and cumulative estimators stop moving
after enough history.  The P² snapshots remain the cheap always-on
export; the controller sees each window fresh.
"""

from __future__ import annotations

import numpy as np

from ..sim import NULL_TRACER, Tracer
from ..telemetry import probe_of

__all__ = ["SLAController"]


class SLAController:
    """Adapt a checkpoint interval to hold p99 latency under an SLO."""

    def __init__(
        self,
        target,
        slo_p99: float,
        *,
        min_interval: float = 10.0,
        max_interval: float = 3600.0,
        relax: float = 1.6,
        tighten: float = 0.85,
        headroom: float = 0.6,
        quantile: float = 0.99,
        tracer: Tracer = NULL_TRACER,
    ):
        if slo_p99 <= 0:
            raise ValueError(f"slo_p99 must be > 0, got {slo_p99}")
        if not min_interval <= max_interval:
            raise ValueError(
                f"min_interval {min_interval} > max_interval {max_interval}"
            )
        if relax <= 1.0 or not 0.0 < tighten < 1.0:
            raise ValueError("need relax > 1 and 0 < tighten < 1")
        self.target = target
        self.slo_p99 = float(slo_p99)
        self.min_interval = float(min_interval)
        self.max_interval = float(max_interval)
        self.relax = float(relax)
        self.tighten = float(tighten)
        self.headroom = float(headroom)
        self.quantile = float(quantile)
        self.tracer = tracer
        self.probe = probe_of(tracer)
        self.windows = 0
        self.breaches = 0
        #: (time, window p99, old interval, new interval) per adjustment
        self.actions: list[tuple[float, float, float, float]] = []

    def update(self, now: float, latencies: np.ndarray) -> None:
        """Observe one window of per-request latencies; maybe adjust."""
        arr = np.asarray(latencies, dtype=np.float64)
        if arr.size == 0:
            return
        self.windows += 1
        p = float(np.quantile(arr, self.quantile))
        old = float(self.target.interval)
        if p > self.slo_p99:
            self.breaches += 1
            new = min(old * self.relax, self.max_interval)
        elif p < self.slo_p99 * self.headroom:
            new = max(old * self.tighten, self.min_interval)
        else:
            new = old
        if new != old:
            self.target.interval = new
            self.actions.append((now, p, old, new))
            self.tracer.emit(
                now, "sla.adjust", p99=p, slo=self.slo_p99,
                interval=new, previous=old,
            )
            self.probe.count(
                "repro_sla_adjustments_total",
                help="SLA controller checkpoint-interval changes",
                direction="relax" if new > old else "tighten",
            )
        self.probe.gauge_set(
            "repro_sla_checkpoint_interval_seconds",
            float(self.target.interval),
            help="Checkpoint interval as steered by the SLA controller",
        )

    @property
    def breach_rate(self) -> float:
        return self.breaches / self.windows if self.windows else 0.0

    def summary(self) -> dict:
        return {
            "slo_p99": self.slo_p99,
            "windows": self.windows,
            "breaches": self.breaches,
            "breach_rate": self.breach_rate,
            "adjustments": len(self.actions),
            "interval_final": float(self.target.interval),
        }
