"""Golden-trace determinism: the optimized hot paths change *nothing*.

A fixed 64-node DVDC scale scenario (2 incremental-checkpoint epochs,
seed 0 — see :mod:`repro.perf.scale`) is digested and pinned in
``tests/golden/scale64.json``: committed checkpoints, parity blocks +
checksums, flow-completion trace, per-cycle latencies, final sim clock,
RNG bit-generator states, and the SHA-256 of the Chrome-trace export.
``flow_records`` pins the same ``net.flow.*`` records order-insensitively
(:func:`flow_records_digest`): every time, label, size and duration as a
multiset, so a change that only reorders same-time records moves the
ordered ``flows`` digest but not this one.

The tests prove the digests are byte-stable across

* the component-scoped settle vs one global max-min fill (the
  ``GlobalFillNetwork`` oracle, the "reference" cases),
* campaign execution with ``--jobs 1`` vs ``--jobs 4``,

and that all of them equal the pinned golden values, so any perf change
that perturbs a checkpoint byte, a parity bit, a completion time, or an
RNG draw fails here with the exact digest that moved.

Regenerate the golden file after an *intentional* behavior change with::

    PYTHONPATH=src python tests/test_golden_determinism.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import global_fill_spec
from repro.geo.study import GeoConfig, build_geo_scenario
from repro.perf import ScaleConfig, build_scale_scenario, run_epochs, scenario_digests
from repro.perf.scale import _dirty_epoch, build_scenario
from repro.telemetry import Probe
from repro.telemetry.export import chrome_trace
from repro.workloads import scaled_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "scale64.json"
#: The pinned scenario.  Changing any field invalidates the golden file.
GOLDEN_CFG = dict(n_nodes=64, epochs=2, seed=0)


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def flow_records_digest(tracer) -> str:
    """SHA-256 of the sorted ``(kind, time.hex(), sorted data)`` lines of
    the ``net.flow.*`` trace records: blind to emission order only."""
    lines = sorted(
        f"{r.kind} {r.time.hex()} {sorted(r.data.items())}"
        for r in tracer.select(prefix="net.flow.")
    )
    return hashlib.sha256("|".join(lines).encode()).hexdigest()


def _run_digests(allocator: str = "incremental") -> dict:
    """The golden scenario's digests; ``allocator="reference"`` runs it
    on the global-fill oracle fabric."""
    cfg = ScaleConfig(**GOLDEN_CFG, trace=True)
    if allocator == "reference":
        sim, cluster, ckpt, rngs, tracer = build_scenario(
            cfg, global_fill_spec(cfg.n_nodes), group_size=cfg.group_size
        )
    else:
        sim, cluster, ckpt, rngs, tracer = build_scale_scenario(cfg)
    run_epochs(sim, cluster, ckpt, rngs, cfg)
    return {
        "events": sim.event_count,
        "sim_time": sim.now,
        "digests": scenario_digests(sim, cluster, ckpt, rngs, tracer),
        "flow_records": flow_records_digest(tracer),
    }


def _chrome_trace_bytes() -> bytes:
    """The Chrome-trace export of the golden scenario, sim-clock, as the
    exact bytes ``write_chrome_trace`` would put on disk."""
    cfg = ScaleConfig(**GOLDEN_CFG, trace=True)
    probe = Probe()
    sim, cluster, ckpt, rngs, _ = build_scale_scenario(cfg, tracer=probe)
    run_epochs(sim, cluster, ckpt, rngs, cfg)
    doc = chrome_trace(probe.spans, clock="sim")
    return (json.dumps(doc, indent=1) + "\n").encode("utf-8")


def _generate_golden() -> dict:
    result = _run_digests()
    return {
        "_regen": "PYTHONPATH=src python tests/test_golden_determinism.py --regen",
        "config": GOLDEN_CFG,
        "events": result["events"],
        "sim_time": result["sim_time"].hex(),
        "digests": result["digests"],
        "flow_records": result["flow_records"],
        "chrome_trace_sha256": hashlib.sha256(_chrome_trace_bytes()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# pinned digests
# ---------------------------------------------------------------------------
def test_golden_file_matches_config():
    assert _golden()["config"] == GOLDEN_CFG


def test_incremental_run_matches_golden():
    golden = _golden()
    result = _run_digests()
    assert result["events"] == golden["events"]
    assert result["sim_time"].hex() == golden["sim_time"]
    assert result["digests"] == golden["digests"]


@pytest.mark.parametrize("allocator", ["incremental", "reference"])
def test_flow_records_match_golden_in_any_order(allocator):
    """Every flow record's time and payload is pinned as a multiset, so
    a change that only reorders same-time completions (and so moves the
    ordered ``flows`` digest) is proven to have moved nothing else."""
    assert _run_digests(allocator)["flow_records"] == _golden()["flow_records"]


@pytest.mark.parametrize("allocator", ["reference"])
def test_optimization_paths_match_golden(allocator):
    """One global fill per settle (the oracle) reproduces the pinned
    component-scoped run."""
    golden = _golden()
    result = _run_digests(allocator=allocator)
    assert result["events"] == golden["events"]
    assert result["digests"] == golden["digests"]


@pytest.mark.parametrize("k", [1, 3, 7])
def test_chunked_runs_match_one_run(k):
    """Driving the golden scenario in ``run(max_events=k)`` chunks, as
    the e2e harness does, changes no digest: work the engine defers to
    the end of a simulated instant must not depend on where a caller's
    ``run()`` happens to return."""
    cfg = ScaleConfig(**GOLDEN_CFG, trace=True)
    sim, cluster, ckpt, rngs, tracer = build_scale_scenario(cfg)
    for _ in range(cfg.epochs):
        _dirty_epoch(cluster, rngs, cfg)
        cycle = sim.process(ckpt.run_cycle())
        while True:
            before = sim.event_count
            sim.run(max_events=k)
            if sim.event_count - before < k:
                break
        assert cycle.ok
    golden = _golden()
    assert sim.event_count == golden["events"]
    assert sim.now.hex() == golden["sim_time"]
    assert scenario_digests(sim, cluster, ckpt, rngs, tracer) == golden["digests"]
    assert flow_records_digest(tracer) == golden["flow_records"]


def test_chrome_trace_byte_stable_and_pinned():
    a = _chrome_trace_bytes()
    b = _chrome_trace_bytes()
    assert a == b, "chrome trace export must be byte-identical run to run"
    assert hashlib.sha256(a).hexdigest() == _golden()["chrome_trace_sha256"]


# ---------------------------------------------------------------------------
# the shared scenario builder and epoch driver
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n_nodes",
    [64, 256,
     pytest.param(4096, marks=pytest.mark.slow),
     pytest.param(10240, marks=pytest.mark.slow)],
)
def test_large_cluster_path_does_the_same_work_per_vm(n_nodes):
    """The scenario completes at every size and its event count is
    exactly affine in the VM count: 4.5 events per VM-epoch plus 5 per
    cycle, so 3 epochs cost ``13.5 * n_vms + 15`` events from 64 to
    10240 nodes."""
    cfg = ScaleConfig(n_nodes=n_nodes, epochs=3)
    sim, cluster, ckpt, rngs, _ = build_scale_scenario(cfg)
    run_epochs(sim, cluster, ckpt, rngs, cfg)
    assert [r.committed for r in ckpt.history] == [True] * cfg.epochs
    assert 2 * sim.event_count == 27 * len(cluster.vms) + 30


_IMAGE_FIELDS = (("image_pages", 0), ("page_size", 0))
_CONFIG_FIELDS = _IMAGE_FIELDS + (("epochs", -1), ("dirty_pages_per_vm", -1))


@pytest.mark.parametrize(
    "build,fields",
    [(lambda **bad: build_scale_scenario(replace(ScaleConfig(n_nodes=8), **bad)),
      _CONFIG_FIELDS),
     (lambda **bad: build_geo_scenario(replace(GeoConfig(), **bad)),
      _CONFIG_FIELDS),
     (lambda **bad: scaled_scenario(2, 1, **bad), _IMAGE_FIELDS)],
    ids=["scale", "geo", "scaled"],
)
def test_scenario_rejects_empty_images_by_field_name(build, fields):
    """Both configs arrive from ``repro campaign --spec`` JSON; 0 pages
    used to die deep in the builder with an AttributeError on None, a
    negative epoch count quietly ran zero epochs, and a negative dirty
    page count died in numpy's "negative dimensions are not allowed"."""
    for field, bad in fields:
        with pytest.raises(ValueError, match=field):
            build(**{field: bad})


def test_scenario_runs_pages_shorter_than_the_dirty_stamp():
    """``page_size`` under the 8-byte dirty stamp is a legal config that
    a ``repro campaign --spec`` sweep reaches; it used to crash
    ``touch_pages`` with a numpy shape mismatch on the first epoch."""
    cfg = ScaleConfig(n_nodes=8, epochs=2, page_size=4)
    sim, cluster, ckpt, rngs, _ = build_scale_scenario(cfg)
    run_epochs(sim, cluster, ckpt, rngs, cfg)
    assert [r.committed for r in ckpt.history] == [True] * cfg.epochs


# ---------------------------------------------------------------------------
# campaign --jobs byte-stability
# ---------------------------------------------------------------------------
#: the golden scenario as a one-site geo cell, which the geo layer
#: keeps bit-identical to the flat fabric (``test_properties_geo.py``)
GOLDEN_GEO_CELL = dict(
    GOLDEN_CFG, n_sites=1, racks_per_site=1, policy="local-parity",
    vms_per_node=4, group_size=4, image_pages=16, page_size=64,
    dirty_pages_per_vm=4,
)


def _campaign_digests(jobs: int) -> list[dict]:
    from repro.campaign import CampaignRunner, Task

    # two distinct cells: a one-site fabric has no WAN link, so its
    # bandwidth moves no digest
    tasks = [
        Task(kind="geo_cell", params={**GOLDEN_GEO_CELL, "wan_bandwidth": bw})
        for bw in (125e6, 250e6)
    ]
    result = CampaignRunner(jobs=jobs).run(tasks)
    assert result.n_failed == 0, [r.error for r in result.failures()]
    return [run.value for run in result.runs]


def test_campaign_jobs_1_vs_4_byte_stable():
    """Worker fan-out must not perturb a single bit of the scenario."""
    golden = _golden()
    serial = _campaign_digests(jobs=1)
    parallel = _campaign_digests(jobs=4)
    assert serial == parallel
    for value in serial:
        assert value["wan_bytes"] == 0.0
        digests = {k: v for k, v in value["digests"].items() if k != "geo"}
        assert digests == golden["digests"]
        assert value["sim_time"] == golden["sim_time"]


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/test_golden_determinism.py --regen")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_generate_golden(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
