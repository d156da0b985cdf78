"""Property tests for the geo layer (hypothesis + differential A/B).

Three properties lock the georedundancy machinery down:

* the domain-spread invariant (no two elements of a group in one site)
  survives every recovery and re-home the protocol performs;
* WAN links conserve capacity under max-min reallocation — flows share
  the bottleneck exactly and reclaim it the instant a peer finishes;
* a single-site :class:`~repro.geo.GeoTopology` adds zero links and is
  bit-identical to the plain switched fabric (differential A/B against
  :mod:`repro.perf.scale`), so the geo layer is free when unused.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import validate_layout
from repro.geo import GeoConfig, GeoSpec, GeoTopology, run_geo_point
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# 1. domain-spread invariant after every recovery / re-home
# ---------------------------------------------------------------------------
class TestDomainSpreadInvariant:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), node=st.integers(0, 11))
    def test_single_node_recovery_keeps_domains_orthogonal(self, seed, node):
        """With every other site healthy, domain-aware restore placement
        must land the rebuilt member back in a free domain — the layout
        re-validates with no respread needed."""
        from repro.geo.study import build_geo_scenario

        cfg = GeoConfig(
            n_nodes=12, n_sites=3, policy="geo-spread", epochs=1, seed=seed,
        )
        sim, cluster, ck, _rep, geo, rngs, _tr = build_geo_scenario(cfg)
        domains = geo.domain_map("site")

        def drive():
            yield from ck.run_cycle()
            cluster.kill_node(node)
            yield from ck.recover(node)
            cluster.repair_node(node)
            yield from ck.heal()

        proc = sim.process(drive())
        sim.run()
        assert proc.ok, proc.value
        report = validate_layout(
            ck.layout, cluster, tolerance=ck.scheme.tolerance, domains=domains
        )
        assert report.errors == [], report.errors

    @pytest.mark.parametrize("kill_site", [0, 1, 2])
    def test_full_site_recovery_respreads_to_orthogonal(self, kill_site):
        """A whole-site outage legally degrades placement; after repair +
        respread + heal the strict domain-aware audit must pass again."""
        r = run_geo_point(GeoConfig(
            n_nodes=12, n_sites=3, policy="geo-spread", epochs=2,
            kill_site=kill_site,
        ))
        assert r["survived"] and not r["data_lost"]
        assert r["strict_audit_ok"], r["audit_violations"]

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_respread_survives_any_seed(self, seed):
        r = run_geo_point(GeoConfig(
            n_nodes=12, n_sites=3, policy="geo-spread", epochs=2,
            seed=seed, kill_site=-1,
        ))
        assert r["survived"], r
        assert r["strict_audit_ok"], r["audit_violations"]


# ---------------------------------------------------------------------------
# 2. WAN capacity conservation under max-min reallocation
# ---------------------------------------------------------------------------
class TestWanMaxMin:
    B = 10e6  # WAN uplink bandwidth

    def _topo(self, sim, n_sites=2):
        geo = GeoSpec(
            n_nodes=4 * n_sites, n_sites=n_sites,
            wan_bandwidth=self.B, wan_latency=0.0,
        )
        # node links far above the WAN so the uplink is the bottleneck
        return geo, GeoTopology(sim, geo, node_bandwidth=1e12, latency=0.0)

    def test_staggered_flows_reallocate_exactly(self):
        """Sizes S, 2S, 3S through one uplink: max-min predicts completion
        at 3S/B, 5S/B, 6S/B — equal shares, instant reallocation, no
        capacity lost or invented."""
        sim = Simulator()
        geo, topo = self._topo(sim)
        S = 1e6
        done = {}

        def xfer(i, size):
            yield topo.transfer(i, 4 + i, size, label=f"p{i}")
            done[i] = sim.now

        for i, size in enumerate((S, 2 * S, 3 * S)):
            sim.process(xfer(i, size))
        sim.run()
        expect = {0: 3 * S / self.B, 1: 5 * S / self.B, 2: 6 * S / self.B}
        for i, t in expect.items():
            assert done[i] == pytest.approx(t, rel=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(
        sizes=st.lists(
            st.floats(min_value=1e5, max_value=5e7,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=6,
        )
    )
    def test_always_backlogged_uplink_wastes_nothing(self, sizes):
        """However the flows are shaped, a saturated uplink's makespan is
        exactly total_bytes / bandwidth: rates always sum to capacity
        (conservation) and free capacity is reassigned immediately."""
        sim = Simulator()
        geo, topo = self._topo(sim)

        def xfer(i, size):
            yield topo.transfer(i % 4, 4 + (i % 4), size, label=f"q{i}")

        for i, size in enumerate(sizes):
            sim.process(xfer(i, size))
        sim.run()
        assert sim.now == pytest.approx(sum(sizes) / self.B, rel=1e-9)

    def test_wan_partition_tears_admitted_flows(self):
        sim = Simulator()
        geo, topo = self._topo(sim)
        flows = [topo.transfer(0, 5, 1e9, label="torn")]
        sim.run(until=1.0)
        torn = topo.set_site_wan_up(0, False, reason="test")
        assert torn == 1
        assert not topo.wan_tx[0].up and not topo.wan_rx[0].up
        sim.run()
        assert flows[0].ok is False


# ---------------------------------------------------------------------------
# 3. single-site differential A/B: the geo layer is bit-transparent
# ---------------------------------------------------------------------------
class TestSingleSiteBitTransparent:
    def test_zero_wan_links_and_identical_link_table(self):
        from repro.network import SwitchedTopology

        sim_a, sim_b = Simulator(), Simulator()
        geo = GeoSpec(n_nodes=8, n_sites=1, racks_per_site=2)
        a = SwitchedTopology(sim_a, 8)
        b = GeoTopology(sim_b, geo)
        assert [(l.name, l.index) for l in a.network.links.values()] == \
               [(l.name, l.index) for l in b.network.links.values()]

    def test_single_site_run_bit_identical_to_scale_path(self):
        """The same scenario through :mod:`repro.perf.scale` (plain
        fabric) and through a 1-site geo build must agree on every
        digest: checkpoints, parity, flows, cycle timings, clock, RNG."""
        from repro.perf import (
            ScaleConfig, build_scale_scenario, run_epochs, scenario_digests,
        )

        cfg = ScaleConfig(n_nodes=12, epochs=2, seed=3, trace=True)
        sim, cluster, ckpt, rngs, tracer = build_scale_scenario(cfg)
        run_epochs(sim, cluster, ckpt, rngs, cfg)
        scale = {
            "events": sim.event_count, "sim_time": sim.now,
            "digests": scenario_digests(sim, cluster, ckpt, rngs, tracer),
        }
        geo = run_geo_point(
            GeoConfig(
                n_nodes=12, n_sites=1, racks_per_site=1, policy="local-parity",
                vms_per_node=4, group_size=4, epochs=2, seed=3,
                image_pages=16, page_size=64, dirty_pages_per_vm=4,
                kill_site=None, trace=True,
            ),
            collect_digests=True,
        )
        assert geo["wan_bytes"] == 0.0
        stripped = {k: v for k, v in geo["digests"].items() if k != "geo"}
        assert stripped == scale["digests"]
        assert geo["sim_time"] == scale["sim_time"]
        assert geo["events"] == scale["events"]
