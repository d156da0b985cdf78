"""The geo placement study: three policies against a site outage.

One seeded scenario — a multi-site cluster running incremental DVDC
epochs — run under each cross-site placement policy:

``local-parity``
    The status quo: orthogonal groups over *nodes*, sites ignored.
    Cheapest (all parity traffic stays LAN-local by accident of
    placement) and the paper's baseline — but a site outage takes
    members *and* their parity homes together, so it loses data.
``geo-spread``
    Groups constrained to pairwise-distinct *sites*
    (``build_orthogonal_layout(domains=...)`` + domain-aware recovery
    placement): a full-site loss costs each group at most one element,
    within the coding scheme's tolerance.  Every checkpoint exchange
    crosses the WAN.
``remus-async``
    Local parity at LAN speed plus an asynchronous remote full copy per
    VM (:class:`~repro.geo.remus.RemusAsyncReplicator`).  A site outage
    beyond local tolerance is salvaged from the remote copies at the
    cost of the replication lag window (epochs not yet shipped).

:func:`run_geo_point` runs one (policy, seed) cell end to end — epochs,
optional site kill, recovery/salvage, repair, heal, strict audit —
and returns survival plus bit-exactness digests.  The ``geo_cell``
campaign task kind wraps it; ``repro geo study`` fans it out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..cluster.checksum import block_checksum
from ..cluster.vm import VMState
from ..coding import get_scheme
from ..core.placement import group_losses_if_node_fails
from ..core.recovery import respread_groups  # kept importable from here
from ..perf.scale import build_scenario, run_epochs, scenario_digests
from ..sim import Tracer
from .remus import RemusAsyncReplicator
from .topology import (
    DEFAULT_WAN_BANDWIDTH,
    DEFAULT_WAN_LATENCY,
    GeoSpec,
    geo_cluster_spec,
)

__all__ = [
    "POLICIES",
    "GeoConfig",
    "build_geo_point",
    "build_geo_scenario",
    "respread_groups",
    "run_geo_point",
    "run_geo_study",
]

POLICIES = ("local-parity", "geo-spread", "remus-async")


@dataclass(frozen=True)
class GeoConfig:
    """Parameters of one geo-study cell."""

    n_nodes: int = 12
    n_sites: int = 3
    racks_per_site: int = 2
    policy: str = "local-parity"
    vms_per_node: int = 1
    epochs: int = 2
    seed: int = 0
    scheme: str = "xor"
    group_size: int | None = None
    image_pages: int = 8
    page_size: int = 64
    dirty_pages_per_vm: int = 2
    wan_bandwidth: float = DEFAULT_WAN_BANDWIDTH
    wan_latency: float = DEFAULT_WAN_LATENCY
    #: site to kill after the last commit; ``None`` = fault-free run,
    #: ``-1`` = the site whose loss hurts the layout most (computed)
    kill_site: int | None = None
    #: final epochs remus-async has NOT yet shipped when the site dies
    #: (its lag window, in epochs); 0 = fully caught up
    lag_epochs: int = 1
    trace: bool = False

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lag_epochs < 0 or self.lag_epochs > self.epochs:
            raise ValueError("lag_epochs must be in 0..epochs")

    def geo_spec(self) -> GeoSpec:
        return GeoSpec(
            n_nodes=self.n_nodes,
            n_sites=self.n_sites,
            racks_per_site=self.racks_per_site,
            wan_bandwidth=self.wan_bandwidth,
            wan_latency=self.wan_latency,
        )


def build_geo_scenario(cfg: GeoConfig, tracer: Tracer | None = None):
    """Construct ``(sim, cluster, ck, replicator, geo, rngs, tracer)``.

    :func:`repro.perf.scale.build_scenario` — same placement engine,
    same named RNG streams, same VM shape as the flat scale scenario —
    on a :class:`~repro.geo.topology.GeoTopology` fabric, with the
    layout built per ``cfg.policy``.
    """
    geo = cfg.geo_spec()
    scheme = get_scheme(cfg.scheme)
    # one group size for every policy, so storage/traffic are comparable:
    # the geo-spread-feasible k = n_sites - m
    group_size = (
        cfg.group_size
        if cfg.group_size is not None
        else max(1, cfg.n_sites - scheme.n_shards)
    )
    sim, cluster, ck, rngs, tracer = build_scenario(
        cfg, geo_cluster_spec(geo), tracer,
        group_size=group_size, scheme=scheme,
        domains=geo.domain_map("site") if cfg.policy == "geo-spread" else None,
    )
    replicator = None
    if cfg.policy == "remus-async":
        replicator = RemusAsyncReplicator(cluster, geo, ck, tracer=tracer)
        for vm_id in sorted(cluster.vms):
            replicator.standby_node(vm_id)  # fixed assignment up front
    return sim, cluster, ck, replicator, geo, rngs, tracer


def _committed_checksums(cluster) -> dict[int, int]:
    out: dict[int, int] = {}
    for node in cluster.nodes:
        for vm_id, img in node.checkpoint_store.items():
            if isinstance(img.payload, np.ndarray):
                out[vm_id] = block_checksum(img.payload_flat())
    return dict(sorted(out.items()))


def _worst_kill_site(ck, cluster, geo: GeoSpec) -> int:
    """The site whose loss costs the worst-placed group the most
    elements (ties to the lowest site id) — where ``kill_site=-1`` aims."""
    best = (0, 0)
    for site in range(geo.n_sites):
        losses = group_losses_if_node_fails(
            ck.layout, cluster, set(geo.nodes_in_site(site))
        )
        worst = max(losses.values(), default=0)
        if worst > best[1]:
            best = (site, worst)
    return best[0]


def run_geo_point(cfg: GeoConfig, collect_digests: bool = False) -> dict:
    """Run one geo-study cell end to end.

    Fault-free epochs, then (when ``kill_site`` is set) a correlated
    full-site outage with WAN partition, recovery or remote salvage,
    repair, heal (domain re-spread of members, then shard re-homes), a
    fresh converging cycle, and a strict audit.  Survival is judged
    bit-exactly: every VM's committed image must match the checksum
    logged when its restored epoch committed.
    """
    return build_geo_point(cfg, collect_digests)()


def build_geo_point(cfg: GeoConfig, collect_digests: bool = False) -> Callable[[], dict]:
    """Build one cell and return the call that runs it (see
    :func:`run_geo_point`).  A cluster shape no layout fits raises here,
    before any event runs."""
    built = build_geo_scenario(cfg)
    return lambda: _run_geo_point(cfg, built, collect_digests)


def _run_geo_point(cfg: GeoConfig, built: tuple, collect_digests: bool) -> dict:
    sim, cluster, ck, replicator, geo, rngs, tracer = built

    epoch_log: dict[int, dict[int, int]] = {}
    replicate_until = cfg.epochs - cfg.lag_epochs
    for e in range(cfg.epochs):
        run_epochs(sim, cluster, ck, rngs, cfg, epochs=1)
        epoch_log[ck.committed_epoch] = _committed_checksums(cluster)
        if replicator is not None and (e + 1) <= replicate_until:
            sim.run_process(replicator.replicate_epoch())

    result: dict = {
        "policy": cfg.policy,
        "seed": cfg.seed,
        "n_nodes": cfg.n_nodes,
        "n_sites": cfg.n_sites,
        "scheme": cfg.scheme,
        "epochs": cfg.epochs,
        "committed_epoch": ck.committed_epoch,
        "kill_site": None,
        "beyond_tolerance": False,
        "survived": True,
        "data_lost": False,
        "rollback_epochs": 0,
        "salvaged_vms": 0,
        "respread_vms": 0,
    }

    domains = geo.domain_map("site")
    if cfg.kill_site is not None:
        site = (
            _worst_kill_site(ck, cluster, geo)
            if cfg.kill_site == -1
            else cfg.kill_site
        )
        result["kill_site"] = site
        losses = group_losses_if_node_fails(
            ck.layout, cluster, set(geo.nodes_in_site(site))
        )
        beyond = any(n > ck.scheme.tolerance for n in losses.values())
        result["beyond_tolerance"] = beyond
        dead_nodes = geo.nodes_in_site(site)
        if geo.n_sites > 1:
            cluster.topology.set_site_wan_up(site, False, reason="site outage")
        for node_id in dead_nodes:
            cluster.kill_node(node_id)

        restored_epochs: dict[int, int] = {}
        if not beyond:
            sim.run_process(ck.recover(dead_nodes[0]))
            restored_epochs = {
                vm.vm_id: ck.committed_epoch for vm in cluster.all_vms
            }
        elif replicator is not None:
            salvage = sim.run_process(replicator.salvage_cluster())
            result["rollback_epochs"] = salvage.rollback_epochs
            result["salvaged_vms"] = len(salvage.salvaged)
            result["data_lost"] = bool(salvage.unsalvageable)
            restored_epochs = {
                vm.vm_id: ck.committed_epoch for vm in cluster.all_vms
            }
            for vm_id in salvage.salvaged:
                restored_epochs[vm_id] = replicator.copies[vm_id].epoch
        else:
            result["data_lost"] = True
            result["survived"] = False

        if restored_epochs:
            # bit-exact survival check against the epoch log
            ok = True
            committed_now = _committed_checksums(cluster)
            for vm in cluster.all_vms:
                if vm.state == VMState.FAILED or vm.node_id is None:
                    ok = False
                    break
                want = epoch_log.get(restored_epochs[vm.vm_id], {}).get(vm.vm_id)
                if want is not None and committed_now.get(vm.vm_id) != want:
                    ok = False
                    break
            result["survived"] = ok
            result["data_lost"] = result["data_lost"] or not ok

        # repair and converge back to full health
        for node_id in dead_nodes:
            cluster.repair_node(node_id)
        if geo.n_sites > 1:
            cluster.topology.set_site_wan_up(site, True, reason="site repaired")
        if result["survived"]:
            placed = {vm.vm_id: vm.node_id for vm in cluster.all_vms}
            sim.run_process(ck.heal())
            result["respread_vms"] = sum(
                vm.node_id != placed[vm.vm_id] for vm in cluster.all_vms
            )
            run_epochs(sim, cluster, ck, rngs, cfg, epochs=1)
            epoch_log[ck.committed_epoch] = _committed_checksums(cluster)
            if replicator is not None:
                sim.run_process(replicator.replicate_epoch())
            from ..audit import audit_cluster

            audit = audit_cluster(
                cluster, ck.layout, ck.committed_epoch, strict=True,
                context="geo.post_disaster",
                scheme=ck.scheme,
                domains=domains if cfg.policy == "geo-spread" else None,
            )
            result["strict_audit_ok"] = not audit.fatal
            result["audit_violations"] = [str(v) for v in audit.fatal]

    topo = cluster.topology
    result["wan_bytes"] = float(getattr(topo, "wan_bytes", 0.0))
    if replicator is not None:
        result["replication_lag"] = {
            str(k): float(v) for k, v in sorted(replicator.lag_by_epoch.items())
        }
    result["events"] = sim.event_count
    result["sim_time"] = sim.now
    if collect_digests:
        digests = scenario_digests(sim, cluster, ck, rngs, tracer)
        h = hashlib.sha256()
        h.update(float(result["wan_bytes"]).hex().encode())
        h.update(
            f"|{result['survived']}|{result['data_lost']}"
            f"|{result['rollback_epochs']}|{result['salvaged_vms']}".encode()
        )
        for epoch, sums in sorted(epoch_log.items()):
            h.update(f"|e{epoch}:{sorted(sums.items())}".encode())
        digests["geo"] = h.hexdigest()
        result["digests"] = digests
    return result


def run_geo_study(
    cfg: GeoConfig,
    policies=POLICIES,
    seeds=(0,),
    jobs: int = 1,
    store=None,
    resume: bool = True,
) -> tuple[dict, "object"]:
    """Fan the (policy × seed) matrix out through the campaign layer.

    Returns ``(study, CampaignResult)``: the config, the successful cells
    and per-policy survival under the site kill.  Serial and parallel
    runs are bit-identical (one deterministic ``geo_cell`` task a cell).
    """
    from ..campaign import CampaignRunner, Task

    tasks = []
    for policy in policies:
        for seed in seeds:
            cell = replace(cfg, policy=policy, seed=seed)
            params = {f: getattr(cell, f) for f in cell.__dataclass_fields__}
            tasks.append(Task(kind="geo_cell", params=params))
    result = CampaignRunner(store=store, jobs=jobs, resume=resume).run(tasks)
    result.raise_if_all_failed()
    cells = result.values("geo_cell")
    by_policy: dict[str, list[dict]] = {}
    for cell in cells:
        by_policy.setdefault(cell["policy"], []).append(cell)
    summary = {}
    for policy, rows in sorted(by_policy.items()):
        summary[policy] = {
            "cells": len(rows),
            "survived": sum(1 for r in rows if r["survived"]),
            "data_lost": sum(1 for r in rows if r["data_lost"]),
            "beyond_tolerance": sum(1 for r in rows if r["beyond_tolerance"]),
            "mean_rollback_epochs": (
                sum(r["rollback_epochs"] for r in rows) / len(rows)
            ),
            "mean_wan_bytes": sum(r["wan_bytes"] for r in rows) / len(rows),
        }
    return {"config": cfg.__dict__ | {}, "cells": cells, "summary": summary}, result
