"""Shared helpers for the benchmark harness.

Every ``bench_*`` module reproduces one paper artifact (figure/table —
see DESIGN.md §3).  Each exposes pytest-benchmark functions that time
the underlying computation AND print the regenerated rows/series, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction
report.  Shape assertions (who wins, by what factor) are checked inside
the benches, so a regression in the reproduction fails the run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, VirtualCluster
from repro.perf import run_process  # noqa: F401 - the benches import it from here
from repro.sim import Simulator


def functional_cluster(
    n_nodes: int, vms_per_node: int, seed: int = 0,
    image_pages: int = 16, page_size: int = 64,
) -> tuple[Simulator, VirtualCluster]:
    """A cluster with small functional VM images for protocol benches."""
    sim = Simulator()
    cluster = VirtualCluster(sim, ClusterSpec(n_nodes=n_nodes))
    rng = np.random.default_rng(seed)
    for i in range(n_nodes * vms_per_node):
        vm = cluster.create_vm(
            i % n_nodes, 1e9, dirty_rate=2e5,
            image_pages=image_pages, page_size=page_size,
        )
        fill = min(512, vm.image.nbytes)
        vm.image.write(0, rng.integers(0, 256, fill, dtype=np.uint8))
        vm.image.clear_dirty()
    return sim, cluster


@pytest.fixture
def report(capsys):
    """Print a reproduction report even under captured output."""

    def _p(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _p
