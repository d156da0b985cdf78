"""Registered task kinds — the functions campaign workers execute.

A task kind is a top-level (hence picklable) function ``fn(params,
seed) -> dict`` plus a ``version`` tag.  The tag is part of every task's
content hash: bump it when the function's semantics change and cached
results for that kind — and only that kind — are invalidated.

The returned dict is a **JSON value** — str keys; str, int, float, bool,
``None``, list and dict leaves — such that ``json.loads(json.dumps(v))
== v``.  That is the layer's one data contract: it is what lets the
store serve a cached task back equal to a fresh one, and a value
``json.dumps`` rejects fails its task.  Bulk data (page arrays) travels
as a digest, never as bytes.

Built-in kinds:

``mc_chunk``
    One deterministically seeded chunk of the Section V Monte-Carlo
    (:func:`repro.model.montecarlo.simulate_completion_times_chunk`),
    returning mergeable moments rather than raw samples.
``study_cell``
    One (method, trace seed) cell of a paired job study, running the
    full cluster simulation and returning the ``JobResult`` fields.
``serving_cell``
    One (policy, trace seed) cell of a paired serving study: an
    open-loop request stream served from the cluster under one
    protection policy, returning latency quantiles and loss accounting
    plus a bit-exact completion digest.
``geo_cell``
    One (policy, seed) cell of the geo placement study: a multi-site
    cluster losing a whole site, returning survival, rollback and WAN
    accounting plus its flow digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "TaskKind",
    "register_task",
    "get_kind",
    "run_mc_chunk",
    "run_study_cell",
    "run_serving_cell_task",
]


@dataclass(frozen=True)
class TaskKind:
    """A registered task function with its code-version tag."""

    name: str
    fn: Callable[[dict, int | None], dict]
    version: str


_REGISTRY: dict[str, TaskKind] = {}


def register_task(name: str, version: str = "1"):
    """Decorator registering ``fn(params, seed) -> JSON dict`` as a kind."""

    def deco(fn):
        if name in _REGISTRY:
            raise ValueError(f"task kind {name!r} already registered")
        _REGISTRY[name] = TaskKind(name=name, fn=fn, version=str(version))
        return fn

    return deco


def get_kind(name: str) -> TaskKind:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown task kind {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# Built-in kinds


@register_task("mc_chunk", version="1")
def run_mc_chunk(params: dict, seed: int | None) -> dict:
    """One chunk of the segment-game Monte-Carlo, as mergeable moments.

    params: lam, T, N (null = no checkpointing), T_ov, T_r, n_runs,
    chunk_runs, chunk_index, final_checkpoint, master_seed.  The chunk
    seed is derived from ``master_seed`` + ``chunk_index`` exactly as
    :func:`simulate_completion_times_chunked` does, so campaign output
    merges bit-identically with the serial chunked estimator.
    """
    from ..model import chunk_moments, chunk_sizes, simulate_completion_times_chunk

    index = int(params["chunk_index"])
    sizes = chunk_sizes(
        int(params["n_runs"]), int(params.get("chunk_runs", 512))
    )
    if not 0 <= index < len(sizes):
        raise ValueError(f"chunk_index {index} out of range (of {len(sizes)})")
    N = params.get("N")
    samples = simulate_completion_times_chunk(
        int(params["master_seed"]),
        index,
        sizes[index],
        float(params["lam"]),
        float(params["T"]),
        None if N is None else float(N),
        float(params.get("T_ov", 0.0)),
        float(params.get("T_r", 0.0)),
        bool(params.get("final_checkpoint", True)),
    )
    return {"chunk_index": index, **chunk_moments(samples)}


@register_task("study_cell", version="2")
def run_study_cell(params: dict, seed: int | None) -> dict:
    """One (method, trace seed) cell of a paired job study.

    params: method {name, incremental, overlap, label}, trace_seed,
    work, interval, node_mtbf, repair_time, n_nodes, vms_per_node.
    """
    from dataclasses import asdict

    from ..experiments import MethodSpec, run_job_cell

    m = params["method"]
    spec = MethodSpec(
        name=m["name"],
        incremental=bool(m.get("incremental", True)),
        overlap=bool(m.get("overlap", False)),
        label=m.get("label"),
    )
    outcome = run_job_cell(
        spec, int(params["trace_seed"]),
        work=float(params["work"]),
        interval=float(params["interval"]),
        node_mtbf=float(params["node_mtbf"]),
        repair_time=float(params.get("repair_time", 30.0)),
        n_nodes=int(params.get("n_nodes", 4)),
        vms_per_node=int(params.get("vms_per_node", 3)),
    )
    return {
        "method": outcome.method,
        "trace_seed": outcome.seed,
        "result": asdict(outcome.result),
    }


@register_task("serving_cell", version="3")
def run_serving_cell_task(params: dict, seed: int | None) -> dict:
    """One (policy, trace seed) cell of a paired serving study.

    params: policy (:class:`repro.serving.ServingPolicy` fields), load
    (:class:`repro.serving.ServingLoad` fields), trace_seed.  The cell
    is a deterministic function of its parameters — identical under any
    ``--jobs``, which the golden serving digests pin.
    """
    from ..serving.study import ServingLoad, ServingPolicy, run_serving_cell

    return run_serving_cell(
        ServingPolicy(**params["policy"]),
        ServingLoad(**params["load"]),
        int(params["trace_seed"]),
    )


@register_task("geo_cell", version="1")
def run_geo_cell(params: dict, seed: int | None) -> dict:
    """One (policy, seed) cell of the geo placement study.

    params: any :class:`~repro.geo.GeoConfig` field.  Trace is forced on
    so the flow digest is populated; the geo golden determinism tests
    run the full policy matrix under ``--jobs 1`` and ``--jobs 4`` and
    require byte-identical results.
    """
    from ..geo.study import GeoConfig, run_geo_point

    cfg = GeoConfig(**{**params, "trace": True})
    result = run_geo_point(cfg, collect_digests=True)
    result["sim_time"] = result["sim_time"].hex()
    return result
