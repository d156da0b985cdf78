"""Multi-site georedundancy: hierarchical topologies, whole-site
outages, and cross-site checkpoint placement policies.

The paper's scheme protects against independent *node* loss inside one
cluster; this package extends the reproduction to the failure mode that
actually dominates real deployments — correlated domain outages (a rack
PDU, a site-wide power or network event) — and to the placement
policies that survive them:

- :mod:`~repro.geo.topology` — node → rack → pod → site hierarchy over
  :class:`~repro.network.SwitchedTopology`, with modeled WAN links
  (high latency, low bandwidth, independently partitionable).
- :mod:`~repro.geo.remus` — asynchronous remote full-copy protection
  (the Remus pattern) with an explicit, measured lag window.
- :mod:`~repro.geo.study` — the three-policy survival study
  (``local-parity`` / ``geo-spread`` / ``remus-async``) behind
  ``repro geo``.

A single-site :class:`~repro.geo.topology.GeoTopology` is bit-identical
to the plain switched fabric — the geo layer is free when unused.
"""

from .remus import RemoteCopy, RemusAsyncReplicator, RemusSalvageReport
from .study import (
    POLICIES,
    GeoConfig,
    build_geo_point,
    build_geo_scenario,
    run_geo_point,
    run_geo_study,
)
from .topology import (
    DEFAULT_WAN_BANDWIDTH,
    DEFAULT_WAN_LATENCY,
    GEO_LEVELS,
    GeoSpec,
    GeoTopology,
    geo_cluster_spec,
)

__all__ = [
    "GEO_LEVELS",
    "DEFAULT_WAN_BANDWIDTH",
    "DEFAULT_WAN_LATENCY",
    "GeoSpec",
    "GeoTopology",
    "geo_cluster_spec",
    "RemoteCopy",
    "RemusAsyncReplicator",
    "RemusSalvageReport",
    "POLICIES",
    "GeoConfig",
    "build_geo_point",
    "build_geo_scenario",
    "run_geo_point",
    "run_geo_study",
]
