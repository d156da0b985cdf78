"""Geo golden determinism: the multi-site layer is bit-pinned.

A fixed 3-site / 64-node geo scenario (2 incremental epochs, seed 0,
worst-site kill — see :mod:`repro.geo.study`) is digested under each
placement policy and pinned in ``tests/golden/geo.json``: committed
checkpoints, parity, flows, cycles, clock, RNG states, plus the geo
extras (WAN bytes, survival verdict, rollback window, per-epoch
committed-image checksums).  ``flow_records`` pins the ``net.flow.*``
records order-insensitively, as in ``scale64.json``.

The tests prove each policy's digests are byte-stable run to run,
identical under campaign ``--jobs 1`` vs ``--jobs 4``, and equal to the
pinned golden values — so any change that perturbs a checkpoint byte, a
WAN transfer, or a salvage decision fails here with the digest that
moved.

Regenerate after an *intentional* behavior change with::

    PYTHONPATH=src python tests/test_geo_golden.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.geo import POLICIES, GeoConfig, run_geo_point
from repro.geo import study
from test_golden_determinism import flow_records_digest

GOLDEN_PATH = Path(__file__).parent / "golden" / "geo.json"
#: The pinned scenario.  Changing any field invalidates the golden file.
GOLDEN_CFG = dict(n_nodes=64, n_sites=3, epochs=2, seed=0, kill_site=-1)


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _cell(policy: str) -> dict:
    """One pinned cell, plus the order-insensitive digest of its flow
    records (the builder is wrapped to get at the cell's tracer)."""
    cfg = GeoConfig(**GOLDEN_CFG, policy=policy, trace=True)
    built = []

    def build(*args, **kwargs):
        built.append(study_build(*args, **kwargs))
        return built[-1]

    study_build = study.build_geo_scenario
    with mock.patch.object(study, "build_geo_scenario", build):
        r = run_geo_point(cfg, collect_digests=True)
    r["flow_records"] = flow_records_digest(built[0][-1])
    return r


def _generate_golden() -> dict:
    out = {
        "_regen": "PYTHONPATH=src python tests/test_geo_golden.py --regen",
        "config": GOLDEN_CFG,
        "policies": {},
    }
    for policy in POLICIES:
        r = _cell(policy)
        out["policies"][policy] = {
            "events": r["events"],
            "sim_time": r["sim_time"].hex(),
            "survived": r["survived"],
            "beyond_tolerance": r["beyond_tolerance"],
            "rollback_epochs": r["rollback_epochs"],
            "digests": r["digests"],
            "flow_records": r["flow_records"],
        }
    return out


def test_golden_file_matches_config():
    assert _golden()["config"] == GOLDEN_CFG


@pytest.mark.parametrize("policy", POLICIES)
def test_policy_run_matches_golden(policy):
    golden = _golden()["policies"][policy]
    r = _cell(policy)
    assert r["events"] == golden["events"]
    assert r["sim_time"].hex() == golden["sim_time"]
    assert r["survived"] == golden["survived"]
    assert r["beyond_tolerance"] == golden["beyond_tolerance"]
    assert r["rollback_epochs"] == golden["rollback_epochs"]
    assert r["digests"] == golden["digests"]
    assert r["flow_records"] == golden["flow_records"]


def test_golden_survival_matrix():
    """The acceptance matrix, straight off the pinned file: a full-site
    outage kills local-parity and is survived by both geo policies."""
    g = _golden()["policies"]
    assert not g["local-parity"]["survived"]
    assert g["local-parity"]["beyond_tolerance"]
    assert g["geo-spread"]["survived"]
    assert not g["geo-spread"]["beyond_tolerance"]
    assert g["remus-async"]["survived"]
    assert g["remus-async"]["beyond_tolerance"]
    assert g["remus-async"]["rollback_epochs"] == 1


# ---------------------------------------------------------------------------
# campaign --jobs byte-stability
# ---------------------------------------------------------------------------
def _campaign_digests(jobs: int) -> list[dict]:
    from repro.campaign import CampaignRunner, Task

    tasks = [
        Task(kind="geo_cell", params={**GOLDEN_CFG, "policy": policy})
        for policy in POLICIES
    ]
    result = CampaignRunner(jobs=jobs).run(tasks)
    assert result.n_failed == 0, [r.error for r in result.failures()]
    return [run.value for run in result.runs]


def test_campaign_jobs_1_vs_4_byte_stable():
    """Worker fan-out must not perturb a single bit of any policy cell."""
    golden = _golden()["policies"]
    serial = _campaign_digests(jobs=1)
    parallel = _campaign_digests(jobs=4)
    assert serial == parallel
    for value in serial:
        pinned = golden[value["policy"]]
        assert value["digests"] == pinned["digests"]
        assert value["sim_time"] == pinned["sim_time"]
        assert value["events"] == pinned["events"]


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/test_geo_golden.py --regen")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_generate_golden(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
