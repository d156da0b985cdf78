#!/usr/bin/env python
"""Live migration and page-hash dedup — the conclusion's future work.

Shows (a) the pre-copy convergence behaviour live migration exhibits as
the guest's dirty rate approaches the link bandwidth, and (b) the
paper's closing idea: "using page hashes to speed up live migration
when similar VMs reside at the host destination" — quantified with
functional memory images that share a guest OS base.

Run:  python examples/migration_pagehash.py
"""

import numpy as np

from repro import ClusterSpec, VirtualCluster
from repro.analysis import format_bytes, format_seconds, render_table
from repro.cluster import MemoryImage
from repro.migration import (
    PageHashIndex,
    PrecopyModel,
    live_migrate,
    plan_dedup_transfer,
)
from repro.sim import Simulator

GB = 1e9


def precopy_convergence() -> None:
    model = PrecopyModel(bandwidth=125e6, downtime_target_bytes=1e6)
    rows = []
    for dirty_mb in (0, 5, 25, 60, 100, 120, 150):
        r = model.estimate(1 * GB, dirty_mb * 1e6)
        rows.append([
            f"{dirty_mb} MB/s",
            f"{model.rho(dirty_mb * 1e6):.2f}",
            r.rounds,
            format_bytes(r.total_bytes),
            format_seconds(r.total_time),
            format_seconds(r.downtime),
            "yes" if r.converged else "NO (stop-and-copy forced)",
        ])
    print(render_table(
        ["dirty rate", "rho", "rounds", "traffic", "total time",
         "downtime", "converged"],
        rows,
        title="Pre-copy live migration of a 1 GB VM over GbE (Clark et al.)",
    ))
    print()


def simulated_migration() -> None:
    sim = Simulator()
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=2))
    vm = cluster.create_vm(0, 1 * GB, dirty_rate=10e6)
    r = sim.run_process(live_migrate(cluster, vm, 1))
    print(f"simulated migration: vm0 node0->node1 in "
          f"{format_seconds(r.total_time)} ({r.rounds} rounds, "
          f"{format_bytes(r.total_bytes)} moved, downtime "
          f"{format_seconds(r.downtime)})\n")


def pagehash_dedup() -> None:
    rng = np.random.default_rng(42)
    page_size, n_pages = 256, 512

    # a "guest OS base" shared by every VM in the cluster
    os_base = rng.integers(0, 256, (n_pages, page_size), dtype=np.uint8)

    def make_vm_image(unique_fraction: float) -> MemoryImage:
        img = MemoryImage(n_pages, page_size)
        img.pages[:] = os_base
        n_unique = int(n_pages * unique_fraction)
        if n_unique:
            idx = rng.choice(n_pages, n_unique, replace=False)
            img.pages[idx] = rng.integers(
                0, 256, (n_unique, page_size), dtype=np.uint8
            )
        img.clear_dirty()
        return img

    # destination already hosts two similar VMs
    destination_index = PageHashIndex()
    for _ in range(2):
        destination_index.add_image(make_vm_image(unique_fraction=0.3))

    rows = []
    for uniq in (0.1, 0.3, 0.5, 0.8, 1.0):
        source = make_vm_image(unique_fraction=uniq)
        plan = plan_dedup_transfer(source.pages, destination_index)
        raw = source.nbytes
        rows.append([
            f"{uniq * 100:.0f}%",
            format_bytes(raw),
            format_bytes(plan.total_bytes),
            f"{plan.dedup_fraction * 100:.0f}%",
            f"{raw / max(plan.total_bytes, 1):.1f}x",
        ])
    print(render_table(
        ["source unique pages", "raw image", "wire bytes (dedup)",
         "pages satisfied locally", "speedup"],
        rows,
        title="Page-hash dedup migrating onto a host with similar VMs "
              "(conclusion's future work)",
    ))
    print("\nVMs cloned from the same template share most cold pages, so "
          "the destination index satisfies them without network transfer.")


if __name__ == "__main__":
    precopy_convergence()
    simulated_migration()
    pagehash_dedup()
