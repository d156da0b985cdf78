"""Hierarchical multi-site topologies: node → rack → pod → site.

PVC's cluster-architecture documentation treats georedundancy as a
first-class layout: a cluster spans sites connected by WAN links of
high latency and low bandwidth, and racks/pods within a site share
power and switching.  This module models that hierarchy on top of the
flat :class:`~repro.network.topology.SwitchedTopology`:

* :class:`GeoSpec` — the static hierarchy: contiguous near-equal
  partition of nodes into sites, racks within sites, pods grouping
  racks.  Every level projects to a
  :class:`~repro.failures.domains.FailureDomainMap`, so the existing
  domain-aware placement, correlated schedules, and layout audits apply
  unchanged at any level.
* :class:`GeoTopology` — a :class:`SwitchedTopology` whose cross-site
  paths traverse per-site WAN uplinks (``site{j}.wan.tx`` /
  ``site{j}.wan.rx``) with independent up/down state.  **A single-site
  spec adds zero links**, so the network — link creation order, link
  indices, max-min allocation, every float — is bit-identical to the
  non-geo path; the differential A/B test in
  ``tests/test_properties_geo.py`` pins that.

The cluster facade stays import-free of this module:
:func:`geo_cluster_spec` packages a :class:`GeoSpec` into a
:class:`~repro.cluster.cluster.ClusterSpec` via its ``topology_factory``
seam.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cluster import ClusterSpec
from ..failures.domains import FailureDomainMap
from ..network.link import NetworkError
from ..network.topology import (
    DEFAULT_LATENCY,
    DEFAULT_NAS_BANDWIDTH,
    GBE_BANDWIDTH,
    SwitchedTopology,
)
from ..sim import NULL_TRACER, Simulator, Tracer
from ..telemetry import probe_of

__all__ = [
    "GEO_LEVELS",
    "GeoSpec",
    "GeoTopology",
    "geo_cluster_spec",
    "DEFAULT_WAN_BANDWIDTH",
    "DEFAULT_WAN_LATENCY",
]

#: hierarchy levels a :class:`GeoSpec` can project to a domain map
GEO_LEVELS = ("node", "rack", "pod", "site")

#: Inter-site uplink bandwidth default, bytes/second (~100 Mb/s leased
#: line — an order of magnitude under the 1 GbE intra-site NICs).
DEFAULT_WAN_BANDWIDTH = 12.5e6
#: One-way inter-site latency default, seconds (metro-to-metro WAN).
DEFAULT_WAN_LATENCY = 20e-3


def _partition(total: int, parts: int) -> list[int]:
    """Near-equal contiguous partition sizes (first ``total % parts``
    parts get one extra element — ``np.array_split`` order)."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


@dataclass(frozen=True)
class GeoSpec:
    """Static node → rack → pod → site hierarchy of a cluster.

    Nodes are partitioned contiguously and near-equally into
    ``n_sites`` sites; each site's nodes into ``racks_per_site`` racks;
    each site's racks into ``pods_per_site`` pods.  All ids are dense
    (0..k-1 at every level), so each level is directly a valid
    :class:`~repro.failures.domains.FailureDomainMap`.
    """

    n_nodes: int
    n_sites: int = 1
    racks_per_site: int = 1
    pods_per_site: int = 1
    wan_bandwidth: float = DEFAULT_WAN_BANDWIDTH
    wan_latency: float = DEFAULT_WAN_LATENCY

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"need >= 1 node, got {self.n_nodes}")
        if self.n_sites < 1:
            raise ValueError(f"need >= 1 site, got {self.n_sites}")
        if self.n_sites > self.n_nodes:
            raise ValueError(
                f"{self.n_sites} sites need at least that many nodes, "
                f"got {self.n_nodes}"
            )
        if self.racks_per_site < 1:
            raise ValueError("racks_per_site must be >= 1")
        if not (1 <= self.pods_per_site <= self.racks_per_site):
            raise ValueError(
                f"pods_per_site must be in 1..racks_per_site "
                f"({self.racks_per_site}), got {self.pods_per_site}"
            )
        min_site = min(_partition(self.n_nodes, self.n_sites))
        if self.racks_per_site > min_site:
            raise ValueError(
                f"racks_per_site {self.racks_per_site} exceeds the smallest "
                f"site's {min_site} node(s) — some rack would be empty"
            )
        if self.wan_bandwidth <= 0:
            raise ValueError("wan_bandwidth must be > 0")
        if self.wan_latency < 0:
            raise ValueError("wan_latency must be >= 0")
        # precompute assignments once (frozen dataclass: set via object)
        site, rack, pod = [], [], []
        node = 0
        for s, site_size in enumerate(_partition(self.n_nodes, self.n_sites)):
            rack_sizes = _partition(site_size, self.racks_per_site)
            for local_rack, rack_size in enumerate(rack_sizes):
                local_pod = local_rack * self.pods_per_site // self.racks_per_site
                for _ in range(rack_size):
                    site.append(s)
                    rack.append(s * self.racks_per_site + local_rack)
                    pod.append(s * self.pods_per_site + local_pod)
                    node += 1
        object.__setattr__(self, "_site", tuple(site))
        object.__setattr__(self, "_rack", tuple(rack))
        object.__setattr__(self, "_pod", tuple(pod))

    # -- lookup --------------------------------------------------------
    def site_of(self, node_id: int) -> int:
        return self._site[node_id]

    def nodes_in_site(self, site: int) -> list[int]:
        if not (0 <= site < self.n_sites):
            raise ValueError(f"site {site} out of range 0..{self.n_sites - 1}")
        return [n for n in range(self.n_nodes) if self._site[n] == site]

    def domain_map(self, level: str = "site") -> FailureDomainMap:
        """The hierarchy level as a dense failure-domain map.

        ``"node"`` is the identity map (each node its own domain) —
        handy for differential tests where domain-aware code must
        reduce to the node-orthogonal behavior.
        """
        if level == "node":
            return FailureDomainMap(tuple(range(self.n_nodes)))
        if level == "rack":
            return FailureDomainMap(self._rack)
        if level == "pod":
            return FailureDomainMap(self._pod)
        if level == "site":
            return FailureDomainMap(self._site)
        raise ValueError(f"unknown level {level!r}; one of {GEO_LEVELS}")


class GeoTopology(SwitchedTopology):
    """Multi-site switch fabric with per-site WAN uplinks.

    Intra-site paths are exactly the flat switched fabric.  A
    cross-site flow additionally traverses the source site's WAN egress
    and the destination site's WAN ingress — two shared low-bandwidth
    links where all inter-site traffic of a site pair contends, each
    charged half the one-way ``wan_latency``.  NAS paths are the flat
    fabric's: no geo scenario checkpoints to the NAS.

    With ``geo.n_sites == 1`` no WAN links are created at all: the
    :class:`~repro.network.link.Network` is link-for-link identical to
    a plain :class:`SwitchedTopology`, which keeps the geo layer
    bit-transparent when unused.
    """

    def __init__(
        self,
        sim: Simulator,
        geo: GeoSpec,
        node_bandwidth: float = GBE_BANDWIDTH,
        nas_bandwidth: float = DEFAULT_NAS_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        core_bandwidth: float | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        super().__init__(
            sim, geo.n_nodes, node_bandwidth=node_bandwidth,
            nas_bandwidth=nas_bandwidth, latency=latency,
            core_bandwidth=core_bandwidth, tracer=tracer,
        )
        self.geo = geo
        self._probe = probe_of(tracer)
        self.wan_tx: list = []
        self.wan_rx: list = []
        if geo.n_sites > 1:
            per_hop = geo.wan_latency / 2.0
            for s in range(geo.n_sites):
                self.wan_tx.append(self.network.add_link(
                    f"site{s}.wan.tx", geo.wan_bandwidth, per_hop
                ))
                self.wan_rx.append(self.network.add_link(
                    f"site{s}.wan.rx", geo.wan_bandwidth, per_hop
                ))
        #: bytes handed to cross-site flows (requested, not delivered)
        self.wan_bytes = 0.0

    # -- paths ---------------------------------------------------------
    def _wan_hops(self, src_site: int, dst_site: int) -> list:
        return [self.wan_tx[src_site], self.wan_rx[dst_site]]

    def node_to_node(self, src: int, dst: int) -> list:
        path = super().node_to_node(src, dst)
        if self.wan_tx:
            s, d = self.geo.site_of(src), self.geo.site_of(dst)
            if s != d:
                path[1:1] = self._wan_hops(s, d)
        return path

    # -- accounting ----------------------------------------------------
    def transfer(self, src: int, dst: int, size: float, label: str | None = None):
        flow = super().transfer(src, dst, size, label)
        if self.wan_tx and self.geo.site_of(src) != self.geo.site_of(dst):
            self.wan_bytes += size
            self._probe.count(
                "repro_geo_wan_bytes_total", size,
                help="Bytes handed to cross-site WAN flows",
                src_site=self.geo.site_of(src), dst_site=self.geo.site_of(dst),
            )
        return flow

    # -- WAN health (correlated-fault surface) -------------------------
    def set_site_wan_up(self, site: int, up: bool, reason: str = "wan outage") -> int:
        """Flap a site's WAN uplink pair down or up; cross-site flows
        through it fail with a transient error (retryable).  Returns the
        number of flows torn down."""
        self._check_site(site)
        torn = self.network.set_link_up(self.wan_tx[site], up, reason)
        torn += self.network.set_link_up(self.wan_rx[site], up, reason)
        return torn

    def _check_site(self, site: int) -> None:
        if not self.wan_tx:
            raise NetworkError("single-site topology has no WAN links")
        if not (0 <= site < self.geo.n_sites):
            raise NetworkError(
                f"site {site} out of range 0..{self.geo.n_sites - 1}"
            )


def geo_cluster_spec(geo: GeoSpec, **spec_kwargs) -> ClusterSpec:
    """A :class:`~repro.cluster.cluster.ClusterSpec` whose topology is a
    :class:`GeoTopology` over ``geo``.

    ``spec_kwargs`` pass through to :class:`ClusterSpec` (bandwidths,
    latency, ...); ``n_nodes`` is taken from ``geo``.
    """
    spec_kwargs.pop("n_nodes", None)

    def factory(sim: Simulator, spec: ClusterSpec, tracer: Tracer):
        return GeoTopology(
            sim, geo,
            node_bandwidth=spec.node_bandwidth,
            nas_bandwidth=spec.nas_bandwidth,
            latency=spec.latency,
            tracer=tracer,
        )

    return ClusterSpec(
        n_nodes=geo.n_nodes, topology_factory=factory, **spec_kwargs
    )
