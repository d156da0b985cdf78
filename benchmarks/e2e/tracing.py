"""Spans, a CPU-time layer sampler and GC pause accounting.

Everything here observes the program from the benchmark's own files:
nothing under ``src/`` is instrumented.  Three instruments:

* :class:`Spans` — in-memory ``{name, start, end, parent, pass_id}``
  records around the calls the harness makes into the stack.  Always on
  (a few hundred records per pass): the phase times the end-to-end
  metrics divide by come from it.  Self time is duration minus children.
* :class:`LayerSampler` — ``ITIMER_PROF`` at 1 ms.  Each sample charges
  the ``time.process_time()`` delta since the previous sample to the
  innermost ``repro/<package>/`` frame (self) and to every distinct
  package on the stack (inclusive).  Python delivers signals between
  bytecodes, so a long numpy call is charged in full to the package
  that made it.  Only on in traced passes.
* :class:`GcWatch` — ``gc.callbacks`` pause seconds and gen-2 count.
  Only on in traced passes.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import time
from contextlib import contextmanager
from statistics import median

#: Layers reported as ``<layer>.self_s`` / ``<layer>.incl_s``: the
#: packages under ``src/repro`` the workloads reach, plus ``harness``
#: (the benchmark's own frames and ``repro.perf``, the repo's scenario
#: builders and digests).  A sample in any other ``repro`` package is
#: kept under that package's name and shows as the gap between the
#: layers' sum and ``trace.sampled_cpu_s``.
LAYERS = (
    "sim", "network", "cluster", "checkpoint", "core", "coding", "geo",
    "failures", "serving", "audit", "workloads", "telemetry", "resilience",
    "controlplane", "harness",
)
_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str | None:
    """Layer owning ``filename``; ``None`` for stdlib/numpy frames."""
    pos = filename.rfind(_REPRO)
    if pos >= 0:
        package, sep, _ = filename[pos + len(_REPRO):].partition(os.sep)
        if not sep:
            return "repro"  # a top-level module such as repro/cli.py
        return "harness" if package == "perf" else package
    if filename.startswith(_HERE):
        return "harness"
    return None


class Spans:
    """Append-only span log with a parent stack."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, pass_id]`` per span
        self.records: list[list] = []
        self._stack: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.records)
        record = [name, time.perf_counter(), 0.0, parent, self.pass_id]
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's durations."""
        own = [r[2] - r[1] for r in self.records]
        for r in self.records:
            if r[3] >= 0:
                own[r[3]] -= r[2] - r[1]
        return own

    def total(self, name: str, pass_id: int) -> float:
        return sum(
            r[2] - r[1] for r in self.records if r[0] == name and r[4] == pass_id
        )

    def typical(self, pass_ids: list[int]) -> dict[str, float]:
        """Inclusive seconds per span name in the *typical* pass.

        Passes of one run do the same steps in the same order (same
        seed, same inputs), so span *j* of every pass is the same piece
        of work.  The typical pass takes, for each position *j*, the
        median self time over ``pass_ids``; a name's inclusive time is
        the sum over the positions at or under a span of that name.
        Medians over many short steps shrug off a burst of machine noise
        that a median over whole passes would absorb.
        """
        own = self.self_times()
        paths: list[tuple[str, ...]] = []
        for r in self.records:
            paths.append((paths[r[3]] if r[3] >= 0 else ()) + (r[0],))
        by_pass = {
            p: [i for i, r in enumerate(self.records) if r[4] == p]
            for p in pass_ids
        }
        shapes = {tuple(paths[i] for i in idx) for idx in by_pass.values()}
        if len(shapes) != 1:
            raise ValueError("passes of one run recorded different span sequences")
        out: dict[str, float] = {}
        for position, path in enumerate(shapes.pop()):
            step = median(own[idx[position]] for idx in by_pass.values())
            for name in set(path):
                out[name] = out.get(name, 0.0) + step
        return out

    def dump(self, path: str, extra: dict | None = None) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = [
            {"name": r[0], "start": r[1], "end": r[2], "parent": r[3],
             "repeat_id": r[4]}
            for r in self.records
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, **(extra or {})}, fh)


class LayerSampler:
    """CPU-time-weighted stack sampler bucketed by layer."""

    def __init__(self, interval: float = 1e-3, classify=layer_of) -> None:
        self.interval = interval
        self._classify = classify
        self._cache: dict[str, str | None] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.samples = 0
        self.cpu_s = 0.0
        self._last = 0.0
        self._old_handler = None

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGPROF, self._on_sample)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler or signal.SIG_DFL)

    def _on_sample(self, _signum, frame) -> None:
        now = time.process_time()
        delta = now - self._last
        self._last = now
        cache = self._cache
        innermost = None
        seen = set()
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = cache[filename]
            except KeyError:
                layer = cache[filename] = self._classify(filename)
            if layer is not None:
                if innermost is None:
                    innermost = layer
                seen.add(layer)
            frame = frame.f_back
        if innermost is None:
            innermost = "harness"
            seen.add(innermost)
        self.samples += 1
        self.cpu_s += delta
        self.self_s[innermost] = self.self_s.get(innermost, 0.0) + delta
        incl = self.incl_s
        for layer in seen:
            incl[layer] = incl.get(layer, 0.0) + delta


class GcWatch:
    """Collector pause time and generation-2 sweeps via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2_collections = 0
        self._t0 = 0.0

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            if info["generation"] == 2:
                self.gen2_collections += 1
