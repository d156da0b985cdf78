"""Labeled metric series: counters, gauges, histograms.

A :class:`MetricsRegistry` owns *metric families*; a family plus a set
of label values identifies one *series*.  The three family kinds mirror
Prometheus semantics:

* :class:`Counter` — monotone accumulator (events fired, bytes moved);
* :class:`Gauge` — instantaneous value (queue depth, utilization), with
  a tracked observed maximum for post-run summaries;
* :class:`Histogram` — fixed-bucket distribution (Prometheus
  ``le``-style cumulative buckets) **plus** streaming P² quantile
  estimators (Jain & Chlamtac 1985) for q50/q90/q99, so per-run latency
  summaries need no sample retention.

Everything is plain Python with no locks: the simulator is
single-threaded and campaign workers aggregate into their own
registries.  Export lives in :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import math
import re
from typing import Iterator

import numpy as np

__all__ = [
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "P2Quantile",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
]


class MetricError(ValueError):
    """Misuse of the metrics layer: bad names, kind clashes, bad values."""


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Log-spaced seconds buckets covering microsecond blips to multi-minute
#: recoveries — a sane default for every latency histogram in the repo.
DEFAULT_BUCKETS = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5,
    1.0, 5.0, 10.0, 30.0, 60.0, 300.0, 900.0,
)

#: Quantiles every histogram tracks with streaming P² estimators.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm.

    Keeps five markers whose heights approximate the q-quantile without
    storing samples.  Exact for the first five observations; the classic
    piecewise-parabolic update thereafter.  Deterministic given the
    observation sequence.
    """

    __slots__ = ("q", "_h", "_pos", "_desired", "_incr", "_n")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise MetricError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._h: list[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._incr = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        self._n = 0

    def add(self, x: float) -> None:
        self._n += 1
        h = self._h
        if len(h) < 5:
            h.append(x)
            h.sort()
            return
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._incr[i]
        for i in (1, 2, 3):
            d = self._desired[i] - self._pos[i]
            if (d >= 1.0 and self._pos[i + 1] - self._pos[i] > 1.0) or (
                d <= -1.0 and self._pos[i - 1] - self._pos[i] < -1.0
            ):
                step = 1.0 if d > 0 else -1.0
                cand = self._parabolic(i, step)
                if h[i - 1] < cand < h[i + 1]:
                    h[i] = cand
                else:
                    h[i] = self._linear(i, step)
                self._pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._h, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._h, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """Current estimate; NaN before any observation."""
        if not self._h:
            return math.nan
        if self._n <= 5:
            s = sorted(self._h[: self._n])
            idx = min(len(s) - 1, max(0, math.ceil(self.q * len(s)) - 1))
            return s[idx]
        return self._h[2]


class Counter:
    """Monotone accumulator series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise MetricError(f"counter increment must be >= 0, got {n}")
        self.value += n


class Gauge:
    """Instantaneous value series; remembers the maximum it ever held."""

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = -math.inf

    def set(self, v: float) -> None:
        self.value = float(v)
        if v > self.max_value:
            self.max_value = float(v)


class Histogram:
    """Fixed cumulative buckets + streaming quantiles + sum/count."""

    __slots__ = (
        "buckets", "counts", "sum", "count", "min", "max",
        "_quantiles", "_bounds",
    )

    def __init__(
        self,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"duplicate bucket bounds: {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._quantiles = {q: P2Quantile(q) for q in quantiles}
        self._bounds = np.asarray(bounds, dtype=np.float64)

    def observe(self, v: float) -> None:
        v = float(v)
        if math.isnan(v):
            raise MetricError("cannot observe NaN")
        self.sum += v
        self.count += 1
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        i = 0
        for bound in self.buckets:
            if v <= bound:
                break
            i += 1
        self.counts[i] += 1
        for est in self._quantiles.values():
            est.add(v)

    def observe_batch(self, values) -> None:
        """Observe a whole array at once (vectorized bucket counting).

        Buckets, count, min/max, and the P² estimators update exactly as
        a sequential :meth:`observe` loop would.  ``sum`` uses numpy's
        pairwise summation, so it can differ from the sequential sum in
        the last float bits — consumers needing bit-identical digests
        should pin the sample arrays or the P² marker state, not the
        histogram sum.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        if np.isnan(arr).any():
            raise MetricError("cannot observe NaN")
        # searchsorted(side="left") = first bound with v <= bound, the
        # same rule as the scalar path's linear scan
        idx = np.searchsorted(self._bounds, arr, side="left")
        for i, c in enumerate(np.bincount(idx, minlength=len(self.counts))):
            if c:
                self.counts[i] += int(c)
        self.sum += float(arr.sum())
        self.count += int(arr.size)
        lo = float(arr.min())
        hi = float(arr.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        for est in self._quantiles.values():
            add = est.add
            for v in arr.tolist():
                add(v)

    def quantiles(self) -> dict[float, float]:
        """All tracked quantile estimates."""
        return {q: est.value for q, est in sorted(self._quantiles.items())}

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(inf, count)``."""
        out = []
        cum = 0
        for bound, c in zip(self.buckets, self.counts):
            cum += c
            out.append((bound, cum))
        out.append((math.inf, self.count))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric with labeled child series.

    ``family.labels(op="read")`` returns (creating on first use) the
    series for that label set; calling ``inc``/``set``/``observe`` on
    the family itself addresses the label-less default series.
    """

    def __init__(self, name: str, kind: str, help: str = "", **kind_kwargs):
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        if kind not in _KINDS:
            raise MetricError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self._kind_kwargs = kind_kwargs
        self._series: dict[tuple[tuple[str, str], ...], object] = {}

    def labels(self, **labels: object):
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        series = self._series.get(key)
        if series is None:
            for k, _ in key:
                if not _LABEL_RE.match(k):
                    raise MetricError(f"invalid label name {k!r}")
            series = _KINDS[self.kind](**self._kind_kwargs)
            self._series[key] = series
        return series

    def series(self) -> Iterator[tuple[dict[str, str], object]]:
        """All ``(labels, series)`` pairs in sorted label order."""
        for key in sorted(self._series):
            yield dict(key), self._series[key]

    def __len__(self) -> int:
        return len(self._series)


class MetricsRegistry:
    """All metric families of one run, keyed by name.

    Registration is idempotent: asking for an existing name returns the
    existing family (so instrumentation sites don't need to coordinate),
    but re-registering under a different kind raises.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _register(self, name: str, kind: str, help: str, **kw) -> MetricFamily:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind:
                raise MetricError(
                    f"metric {name!r} already registered as {fam.kind}, "
                    f"requested {kind}"
                )
            return fam
        fam = MetricFamily(name, kind, help, **kw)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._register(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._register(name, "gauge", help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        quantiles: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        kw = {}
        if buckets is not None:
            kw["buckets"] = tuple(buckets)
        if quantiles is not None:
            kw["quantiles"] = tuple(quantiles)
        return self._register(name, "histogram", help, **kw)

    def families(self) -> list[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def snapshot(self) -> dict:
        """JSON-able dump of every series (used by the JSONL exporter)."""
        out: dict = {}
        for fam in self.families():
            entries = []
            for labels, series in fam.series():
                if fam.kind == "counter":
                    entries.append({"labels": labels, "value": series.value})
                elif fam.kind == "gauge":
                    entries.append({
                        "labels": labels,
                        "value": series.value,
                        "max": None if math.isinf(series.max_value)
                        else series.max_value,
                    })
                else:
                    entries.append({
                        "labels": labels,
                        "count": series.count,
                        "sum": series.sum,
                        "min": None if math.isinf(series.min) else series.min,
                        "max": None if math.isinf(series.max) else series.max,
                        "quantiles": {
                            str(q): (None if math.isnan(v) else v)
                            for q, v in series.quantiles().items()
                        },
                        "buckets": [
                            ["+Inf" if math.isinf(le) else le, c]
                            for le, c in series.cumulative_buckets()
                        ],
                    })
            out[fam.name] = {"kind": fam.kind, "help": fam.help,
                             "series": entries}
        return out
