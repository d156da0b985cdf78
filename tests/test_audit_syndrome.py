"""The strict audit's recoverability check decodes once per group shape.

``check_single_failure_recoverable`` runs a syndrome check (re-encode the
members, compare the stored shards) on every group and the full
erasure-pattern decode once per shape ``(k, member lengths, shard
lengths)`` per call, plus on every group whose syndrome fails.  These
tests pin three things:

* its findings equal the exhaustive per-group decode's (the oracle in
  ``conftest.py``) element for element, on clean and corrupted committed
  states under every scheme of the coding matrix;
* a codec that decodes one erasure pattern wrongly is caught on every
  call, so no verified shape outlives the call that verified it;
* the decode count: one shape's worth of patterns per shape, not per
  group.
"""

from itertools import combinations

import numpy as np
import pytest

from conftest import exhaustive_recoverable
from repro.audit import FuzzConfig, audit_cluster, check_single_failure_recoverable
from repro.audit.fuzzer import _build
from repro.coding import shard_key
from repro.geo import GeoConfig, build_geo_scenario
from repro.perf.scale import run_epochs
from repro.sim import NULL_TRACER

SCHEMES = ["xor", "rdp", "rs-8-2", "rs-4-3", "rep-3"]
CORRUPTIONS = ["clean", "shard-byte", "member-byte", "truncated-shard", "short-member"]


def _committed(scheme: str, heterogeneous: bool, seed: int = 0):
    """Six nodes, three VMs each, one committed epoch."""
    sim, cluster, ck, *_ = _build(
        FuzzConfig(scheme=scheme, n_nodes=6, heterogeneous=heterogeneous),
        seed, NULL_TRACER,
    )
    sim.run_process(ck.run_cycle())
    return cluster, ck


def _blocks(cluster, g):
    return [
        cluster.node(p).parity_store[shard_key(g.group_id, j)]
        for j, p in enumerate(g.parity_nodes)
    ]


def _images(cluster, g):
    return [
        cluster.hypervisor(cluster.vm(v).node_id).committed(v)
        for v in g.member_vm_ids
    ]


def _shape(cluster, g):
    return (
        len(g.member_vm_ids),
        tuple(img.payload_flat().shape[0] for img in _images(cluster, g)),
        tuple(b.data.shape[0] for b in _blocks(cluster, g)),
    )


def _victim(cluster, layout):
    """The last group that shares its shape with an earlier group (so a
    skip that ignored the syndrome would hide its corruption), else the
    last group."""
    seen, pick = set(), layout.groups[-1]
    for g in layout.groups:
        shape = _shape(cluster, g)
        if shape in seen:
            pick = g
        seen.add(shape)
    return pick


def _corrupt(cluster, g, how: str) -> None:
    block, img = _blocks(cluster, g)[0], _images(cluster, g)[0]
    if how == "shard-byte":
        block.data[5] ^= 0x5A
    elif how == "member-byte":
        img.payload_flat()[3] ^= 0xFF
    elif how == "truncated-shard":
        block.data = block.data[:-1].copy()
    elif how == "short-member":  # drops written bytes, not only zero tail
        img.payload = img.payload_flat()[: img.payload_flat().shape[0] // 4].copy()


def _patterns(k: int, coding) -> int:
    """Erasure patterns the audit decodes for one group of ``k``."""
    t, m = coding.tolerance, coding.n_shards
    n = sum(
        1 for r in range(1, t + 1)
        for combo in combinations(range(k + m), r)
        if any(slot < k for slot in combo)
    )
    return min(n, 1024)


def _count_reconstructs(monkeypatch, coding) -> list:
    calls: list = []
    real = coding.reconstruct

    def spy(members, shards, nbytes=None):
        calls.append(None)
        return real(members, shards, nbytes=nbytes)

    monkeypatch.setattr(coding, "reconstruct", spy)
    return calls


class TestSameFindingsAsExhaustiveDecode:
    @pytest.mark.parametrize("how", CORRUPTIONS)
    @pytest.mark.parametrize("heterogeneous", [False, True])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_committed_state(self, scheme, heterogeneous, how):
        cluster, ck = _committed(scheme, heterogeneous)
        _corrupt(cluster, _victim(cluster, ck.layout), how)
        got = check_single_failure_recoverable(
            cluster, ck.layout, strict=True, scheme=ck.scheme
        )
        assert got == exhaustive_recoverable(cluster, ck.layout, ck.scheme)
        report = audit_cluster(
            cluster, ck.layout, ck.committed_epoch, strict=True, scheme=ck.scheme
        )
        assert report.ok == (how == "clean")

    def test_geo_spread_after_site_loss_recovery_and_heal(self):
        cfg = GeoConfig(
            n_nodes=30, n_sites=10, racks_per_site=1, vms_per_node=2,
            policy="geo-spread", scheme="rs-8-2", image_pages=16,
            page_size=64, dirty_pages_per_vm=4,
        )
        sim, cluster, ck, _rep, geo, rngs, _ = build_geo_scenario(cfg)
        run_epochs(sim, cluster, ck, rngs, cfg, epochs=1)
        dead = geo.nodes_in_site(3)
        cluster.topology.set_site_wan_up(3, False, reason="site outage")
        for node_id in dead:
            cluster.kill_node(node_id)
        sim.run_process(ck.recover(dead[0]))
        for node_id in dead:
            cluster.repair_node(node_id)
        cluster.topology.set_site_wan_up(3, True, reason="site repaired")
        sim.run_process(ck.heal())
        run_epochs(sim, cluster, ck, rngs, cfg, epochs=1)
        report = audit_cluster(
            cluster, ck.layout, ck.committed_epoch, strict=True,
            scheme=ck.scheme, domains=geo.domain_map("site"),
        )
        assert report.ok, [str(v) for v in report.fatal]
        got = check_single_failure_recoverable(
            cluster, ck.layout, strict=True, scheme=ck.scheme
        )
        assert got == exhaustive_recoverable(cluster, ck.layout, ck.scheme) == []
        assert len(ck.layout.groups) > len(
            {_shape(cluster, g) for g in ck.layout.groups}
        ), "every group its own shape: the per-shape skip went unexercised"


class TestCodecFaultCaughtOnEveryCall:
    @pytest.mark.parametrize("scheme, name", [
        ("xor", "single-failure-recoverable"),
        ("rdp", "erasure-recoverable"),
        ("rs-8-2", "erasure-recoverable"),
        ("rs-4-3", "erasure-recoverable"),
        ("rep-3", "erasure-recoverable"),
    ])
    def test_wrong_decode_of_one_pattern(self, monkeypatch, scheme, name):
        cluster, ck = _committed(scheme, heterogeneous=False)

        def audit():
            return audit_cluster(
                cluster, ck.layout, ck.committed_epoch, strict=True,
                scheme=ck.scheme,
            )

        assert audit().ok  # clean syndrome, every shape verified once
        real = ck.scheme.reconstruct

        def faulty(members, shards, nbytes=None):
            """Wrong bytes for pattern (0,) alone: member 0 lost, every
            shard present."""
            rebuilt = real(members, shards, nbytes=nbytes)
            if members[0] is None and all(s is not None for s in shards) and (
                sum(m is None for m in members) == 1
            ):
                rebuilt[0] = rebuilt[0].copy()
                rebuilt[0][0] ^= 1
            return rebuilt

        monkeypatch.setattr(ck.scheme, "reconstruct", faulty)
        for _ in range(2):
            report = audit()
            assert {v.invariant for v in report.fatal} == {name}
            assert report.fatal and all(v.severity == "fatal" for v in report.fatal)
            assert report.violations == exhaustive_recoverable(
                cluster, ck.layout, ck.scheme
            )


class TestOneDecodePerShape:
    def test_one_shape_decodes_once(self, monkeypatch):
        cluster, ck = _committed("rs-4-3", heterogeneous=False)
        groups = ck.layout.groups
        assert len({_shape(cluster, g) for g in groups}) == 1 and len(groups) > 1
        calls = _count_reconstructs(monkeypatch, ck.scheme)
        assert check_single_failure_recoverable(
            cluster, ck.layout, strict=True, scheme=ck.scheme
        ) == []
        assert len(calls) == _patterns(len(groups[0].member_vm_ids), ck.scheme)

    def test_two_shapes_decode_twice(self, monkeypatch):
        """Stretch half the groups' members to twice their length and
        re-encode their shards: a clean state of two same-``k`` shapes."""
        cluster, ck = _committed("rs-4-3", heterogeneous=False)
        groups = ck.layout.groups
        for g in groups[len(groups) // 2:]:
            images = _images(cluster, g)
            for img in images:
                img.payload = np.tile(img.payload_flat(), 2)
            shards = ck.scheme.encode([img.payload_flat() for img in images])
            for block, data in zip(_blocks(cluster, g), shards):
                block.data = data
        assert len({_shape(cluster, g) for g in groups}) == 2
        calls = _count_reconstructs(monkeypatch, ck.scheme)
        assert check_single_failure_recoverable(
            cluster, ck.layout, strict=True, scheme=ck.scheme
        ) == []
        assert len(calls) == 2 * _patterns(len(groups[0].member_vm_ids), ck.scheme)

    @pytest.mark.parametrize("scheme", ["rs-8-2", "rep-3"])
    def test_mixed_size_groups_each_decode(self, monkeypatch, scheme):
        cluster, ck = _committed(scheme, heterogeneous=True)
        groups = ck.layout.groups
        assert len({_shape(cluster, g) for g in groups}) == len(groups)
        calls = _count_reconstructs(monkeypatch, ck.scheme)
        assert check_single_failure_recoverable(
            cluster, ck.layout, strict=True, scheme=ck.scheme
        ) == []
        assert len(calls) == sum(
            _patterns(len(g.member_vm_ids), ck.scheme) for g in groups
        )
