"""Coordinator transparency: the control plane changes *nothing*.

The determinism contract of :mod:`repro.controlplane` says the
coordinator draws no random numbers and moves no network bytes of its
own in the fault-free path.  This pins it: the 64-node golden scale
scenario (``tests/golden/scale64.json``) run *through*
``ControlPlane.checkpoint()`` — keepalive daemons live, monitor
sweeping, protocol lock held — produces byte-identical checkpoints,
parity blocks, flow completions, cycle latencies, and RNG states to the
coordinator-free reference run.  Only the clock digest is exempt: the
keepalive timeouts add heap events, which is exactly the overhead an
always-on daemon is allowed to have.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.controlplane import ControlPlane
from repro.perf import ScaleConfig, build_scale_scenario
from repro.perf.scale import _dirty_epoch, scenario_digests

GOLDEN_PATH = Path(__file__).parent / "golden" / "scale64.json"
GOLDEN_CFG = dict(n_nodes=64, epochs=2, seed=0)
#: every digest but the clock (keepalive events inflate the event count)
TRANSPARENT_KEYS = ("checkpoints", "parity", "flows", "cycles", "rng")


def _managed_run():
    cfg = ScaleConfig(**GOLDEN_CFG, trace=True)
    sim, cluster, ckpt, rngs, tracer = build_scale_scenario(cfg)
    cp = ControlPlane(cluster, ckpt).start()

    def epochs():
        for _ in range(cfg.epochs):
            _dirty_epoch(cluster, rngs, cfg)
            yield from cp.checkpoint()
        cp.stop()

    sim.run_process(epochs())
    return cp, scenario_digests(sim, cluster, ckpt, rngs, tracer)


def test_controlplane_run_matches_coordinator_free_golden():
    golden = json.loads(GOLDEN_PATH.read_text())["digests"]
    cp, digests = _managed_run()
    for key in TRANSPARENT_KEYS:
        assert digests[key] == golden[key], (
            f"digest {key!r} moved: the coordinator perturbed a "
            "fault-free run"
        )


def test_the_daemons_were_actually_live():
    """Guard against vacuous transparency: the run above must really
    have had every node enrolled and zero interventions."""
    cp, _ = _managed_run()
    assert len(cp.registry.last_seen) == GOLDEN_CFG["n_nodes"]
    assert not cp.fenced and not cp.maintenance
    assert cp.ck.committed_epoch == GOLDEN_CFG["epochs"] - 1
    assert not [r for r in cp.tracer.records if r.kind == "controlplane.fence"]
