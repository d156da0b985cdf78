"""The canonical DVDC scale scenario: builder, epoch driver, digests.

The DVDC layer over :func:`repro.workloads.scaled_scenario`, shared by
every study that needs "a DVDC cluster running incremental checkpoint
epochs":

* :func:`build_scale_scenario` (flat fabric) and
  :func:`repro.geo.study.build_geo_scenario` (multi-site fabric) both
  call :func:`build_scenario` with their own ``ClusterSpec`` and
  checkpointer arguments;
* :func:`run_epochs` is the one dirty → ``run_cycle`` → drain loop the
  golden tests, the campaign task kinds and the geo study drive;
* :func:`scenario_digests` hashes everything a perf change must not
  move, which is how ``tests/golden/`` and ``benchmarks/e2e/`` prove the
  optimized and reference paths bit-identical.

Each epoch every VM dirties a few pages from its own named RNG stream,
then one coordinated cycle captures deltas, exchanges them to parity
nodes, folds parity, and commits.  Nothing here reads the host clock
except :func:`heap_cancel_bench` (an e2e layer probe); wall-clock
measurement lives in ``benchmarks/e2e/`` only.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from ..checkpoint.strategies import IncrementalCapture
from ..cluster.cluster import ClusterSpec
from ..core.architectures import dvdc
from ..sim import NULL_TRACER, Simulator, Tracer
from ..sim.rng import RngRegistry
from ..workloads.generators import scaled_scenario

__all__ = [
    "ScaleConfig",
    "build_scenario",
    "build_scale_scenario",
    "run_epochs",
    "scenario_digests",
    "heap_cancel_bench",
]


@dataclass(frozen=True)
class ScaleConfig:
    """Parameters of one scale-scenario run."""

    n_nodes: int
    vms_per_node: int = 4
    group_size: int = 4
    epochs: int = 3
    seed: int = 0
    image_pages: int = 16
    page_size: int = 64
    dirty_pages_per_vm: int = 4
    trace: bool = False


def build_scenario(cfg, spec: ClusterSpec, tracer: Tracer | None = None,
                   **checkpointer):
    """Construct ``(sim, cluster, checkpointer, rngs, tracer)`` on ``spec``.

    ``cfg`` supplies ``seed``, ``trace``, ``vms_per_node``, ``image_pages``,
    ``page_size``, ``epochs`` and ``dirty_pages_per_vm``; ``checkpointer``
    is forwarded to :func:`~repro.core.architectures.dvdc` (group size,
    scheme, domains).  ``tracer`` overrides the default (``Tracer()``
    when ``cfg.trace``, else the null tracer) — the golden tests pass a
    telemetry ``Probe`` here to export span timelines of the exact same
    scenario.
    """
    # configs reach here from campaign spec files, so bad counts are
    # rejected by field name (the builder checks the image sizes):
    # negative counts would run zero epochs or die in numpy
    for name in ("epochs", "dirty_pages_per_vm"):
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(cfg, name)}")
    if tracer is None:
        tracer = Tracer() if cfg.trace else NULL_TRACER
    sc = scaled_scenario(
        spec, cfg.vms_per_node, vm_memory=1e9, seed=cfg.seed,
        image_pages=cfg.image_pages, page_size=cfg.page_size, tracer=tracer,
    )
    ckpt = dvdc(
        sc.cluster, strategy=IncrementalCapture(), tracer=tracer, **checkpointer
    )
    return sc.sim, sc.cluster, ckpt, sc.rngs, tracer


def build_scale_scenario(cfg: ScaleConfig, tracer: Tracer | None = None):
    """The flat-fabric scenario: ``(sim, cluster, checkpointer, rngs, tracer)``."""
    spec = ClusterSpec(n_nodes=cfg.n_nodes)
    return build_scenario(cfg, spec, tracer, group_size=cfg.group_size)


def _dirty_epoch(cluster, rngs: RngRegistry, cfg) -> None:
    for vm in cluster.all_vms:
        rng = rngs.stream(f"dirty/vm{vm.vm_id}")
        idx = rng.integers(0, cfg.image_pages, size=cfg.dirty_pages_per_vm)
        vm.image.touch_pages(idx, rng)


def run_epochs(sim, cluster, ckpt, rngs, cfg, epochs: int | None = None) -> None:
    """The epoch driver: ``epochs`` (default ``cfg.epochs``) rounds of
    every VM dirtying pages, then one coordinated cycle run to
    completion."""
    for _ in range(cfg.epochs if epochs is None else epochs):
        _dirty_epoch(cluster, rngs, cfg)
        sim.run_process(ckpt.run_cycle())


# ----------------------------------------------------------------------
# bit-exactness digests
# ----------------------------------------------------------------------
def _hash() -> "hashlib._Hash":
    return hashlib.sha256()


def scenario_digests(sim, cluster, ckpt, rngs: RngRegistry | None = None,
                     tracer: Tracer | None = None) -> dict[str, str]:
    """SHA-256 digests of everything the perf work must not change.

    Keys: ``checkpoints`` (committed payload bytes), ``parity`` (parity
    block bytes + checksums), ``flows`` (completion times from the trace,
    when tracing was on), ``cycles`` (per-epoch latency/overhead floats),
    ``clock`` (final sim time + event count), ``rng`` (bit-generator
    states of every named stream).  Floats are hashed via ``float.hex``
    so the digests are exact, not round-trip-formatted.
    """
    out: dict[str, str] = {}

    h = _hash()
    for node in cluster.nodes:
        for vm_id in sorted(node.checkpoint_store):
            img = node.checkpoint_store[vm_id]
            h.update(f"ckpt {vm_id} {img.epoch} {img.kind.value}|".encode())
            if isinstance(img.payload, np.ndarray):
                h.update(img.payload.tobytes())
    out["checkpoints"] = h.hexdigest()

    h = _hash()
    for node in cluster.nodes:
        for group_id in sorted(node.parity_store):
            blk = node.parity_store[group_id]
            h.update(
                f"parity {group_id} {blk.epoch} {blk.checksum} "
                f"{sorted(blk.member_checksums.items())}|".encode()
            )
            if blk.data is not None:
                h.update(blk.data.tobytes())
    out["parity"] = h.hexdigest()

    if tracer is not None and tracer.records:
        h = _hash()
        for r in tracer.select(prefix="net.flow."):
            h.update(f"{r.kind} {r.time.hex()} {sorted(r.data.items())}|".encode())
        out["flows"] = h.hexdigest()

    h = _hash()
    for res in ckpt.history:
        h.update(
            f"cycle {res.epoch} {res.committed} {res.latency.hex()} "
            f"{res.overhead.hex()} {float(res.network_bytes).hex()}|".encode()
        )
    out["cycles"] = h.hexdigest()

    h = _hash()
    h.update(f"{sim.now.hex()} {sim.event_count}".encode())
    out["clock"] = h.hexdigest()

    if rngs is not None:
        h = _hash()
        state = rngs.__getstate__()
        h.update(json.dumps(state, sort_keys=True, default=str).encode())
        out["rng"] = h.hexdigest()
    return out


# ----------------------------------------------------------------------
# event-heap microbenchmark
# ----------------------------------------------------------------------
def heap_cancel_bench(n_events: int, cancel_fraction: float = 0.9,
                      seed: int = 0) -> dict:
    """Cancel-heavy schedule against one :class:`Simulator` heap.

    Emulates the fuzzer/allocator pattern — schedule, cancel most,
    reschedule — and reports wall time, peak heap size, and compaction
    count.  With lazy-deletion compaction the peak heap stays within a
    constant factor of the *live* event count, keeping each operation
    O(log live); without it the heap grows with total cancellations.
    """
    rng = np.random.default_rng(seed)
    sim = Simulator()
    live: list = []
    peak_heap = 0
    executed = 0
    t0 = time.perf_counter()
    delays = rng.random(n_events)
    cancels = rng.random(n_events) < cancel_fraction
    for i in range(n_events):
        h = sim.schedule(float(delays[i]), _noop)
        if cancels[i]:
            h.cancel()
        else:
            live.append(h)
        if len(live) >= 64:
            # drain a batch so the live set stays bounded, like a real run
            sim.run(max_events=32)
            executed += 32
            live = [x for x in live if not x.fired]
        peak_heap = max(peak_heap, sim.heap_size)
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "n_events": n_events,
        "cancel_fraction": cancel_fraction,
        "wall_seconds": wall,
        "ops_per_sec": n_events / wall if wall > 0 else 0.0,
        "peak_heap": peak_heap,
        "compactions": sim.compactions,
        "executed": sim.event_count,
    }


def _noop() -> None:
    pass
