"""Layer probes: direct calls into one layer at the workloads' shapes.

Each probe times a public function with the calibrated-repetition timer
``repro.perf.scale.coding_throughput_bench`` uses (repeat until one
measurement spans ``MIN_WALL``, then take the median of ``ROUNDS``), so a
per-layer change can be read without running a whole workload.  Which
workload metric each probe should move is tabulated in ``README.md``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from repro.cluster.checksum import block_checksum
from repro.cluster.cluster import ClusterSpec, VirtualCluster
from repro.cluster.memory import MemoryImage, recycle_delta
from repro.cluster.xorsum import xor_reduce_groups
from repro.coding import get_scheme
from repro.controlplane.scheduler import PlacementEngine
from repro.core.groups import layout_dvdc
from repro.geo.topology import GeoSpec, GeoTopology, geo_cluster_spec
from repro.network.topology import SwitchedTopology
from repro.perf.scale import heap_cancel_bench
from repro.serving.arrivals import ArrivalConfig, OpenLoopArrivals
from repro.serving.engine import PSServer, ServingEngine
from repro.sim import Simulator
from repro.sim.rng import RngRegistry

MIN_WALL = 0.02
ROUNDS = 3
IMAGE_PAGES, PAGE_SIZE = 512, 4096          # the payload workloads' 2 MiB
IMAGE_BYTES = IMAGE_PAGES * PAGE_SIZE
MB = 1e6


def seconds_per_call(fn) -> float:
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-9)
    reps = max(1, math.ceil(MIN_WALL / once))
    samples = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def _noop() -> None:
    pass


def _sim_probes() -> dict[str, float]:
    n = 200_000
    delays = np.random.default_rng(0).random(n).tolist()

    def dispatch():
        sim = Simulator()
        for d in delays:
            sim.schedule(d, _noop)
        sim.run()

    return {
        "sim.dispatch_ns_per_event": seconds_per_call(dispatch) / n * 1e9,
        "sim.cancel_ops_per_s": heap_cancel_bench(100_000)["ops_per_sec"],
    }


def _network_probes() -> dict[str, float]:
    n, n_sites = 1024, 10
    stride = n // n_sites  # every flow lands in the next site of the geo fabric

    def us_per_flow(make_topology):
        def fn():
            sim = Simulator()
            topo = make_topology(sim)
            for i in range(n):
                topo.transfer(i, (i + stride) % n, 1e6)
            sim.run()
        return seconds_per_call(fn) / n * 1e6

    geo = GeoSpec(n_nodes=n, n_sites=n_sites, racks_per_site=2)
    return {
        "network.flat_us_per_flow": us_per_flow(lambda sim: SwitchedTopology(sim, n)),
        "network.wan_us_per_flow": us_per_flow(lambda sim: GeoTopology(sim, geo)),
    }


def _cluster_probes() -> dict[str, float]:
    rng = np.random.default_rng(0)
    image = MemoryImage(IMAGE_PAGES, PAGE_SIZE)
    image.write(0, rng.integers(0, 256, IMAGE_BYTES, dtype=np.uint8))
    quarter = rng.permutation(IMAGE_PAGES)[: IMAGE_PAGES // 4]
    dirty_bytes = quarter.size * PAGE_SIZE

    def capture():
        image.touch_pages(quarter)
        recycle_delta(image.capture_delta())

    touch_s = seconds_per_call(lambda: image.touch_pages(quarter, rng))
    members = [[rng.integers(0, 256, IMAGE_BYTES, dtype=np.uint8) for _ in range(4)]]
    return {
        "cluster.touch_MBps": dirty_bytes / touch_s / MB,
        "cluster.capture_MBps": dirty_bytes / seconds_per_call(capture) / MB,
        "cluster.xor_reduce_MBps": 4 * IMAGE_BYTES / seconds_per_call(
            lambda: xor_reduce_groups(members)) / MB,
        "cluster.checksum_MBps": IMAGE_BYTES / seconds_per_call(
            lambda: block_checksum(members[0][0])) / MB,
    }


def _coding_probes() -> dict[str, float]:
    rng = np.random.default_rng(0)
    k = 8
    out = {}
    for label, scheme, erased in (("rs", get_scheme("rs-8-2"), 2),
                                  ("xor", get_scheme("xor"), 1)):
        members = [rng.integers(0, 256, IMAGE_BYTES, dtype=np.uint8) for _ in range(k)]
        shards = scheme.encode(members)
        holes = [None] * erased + members[erased:]
        data = k * IMAGE_BYTES
        out[f"coding.{label}_encode_MBps"] = data / seconds_per_call(
            lambda: scheme.encode(members)) / MB
        out[f"coding.{label}_reconstruct_MBps"] = data / seconds_per_call(
            lambda: scheme.reconstruct(holes, shards, nbytes=IMAGE_BYTES)) / MB
    # the shape the strict audit decodes in site_outage: 64 x 256 B images
    rs = get_scheme("rs-8-2")
    small = [rng.integers(0, 256, 16_384, dtype=np.uint8) for _ in range(k)]
    shards = rs.encode(small)
    holes = [None, None] + small[2:]
    out["coding.rs_reconstruct_small_us"] = seconds_per_call(
        lambda: rs.reconstruct(holes, shards, nbytes=16_384)) * 1e6
    return out


def _vm_cluster(spec: ClusterSpec, n_vms: int) -> VirtualCluster:
    cluster = VirtualCluster(Simulator(), spec)
    for host in PlacementEngine(cluster).spread(n_vms):
        cluster.create_vm(host, 1e9)
    return cluster


def _core_probes() -> dict[str, float]:
    flat = _vm_cluster(ClusterSpec(n_nodes=4096), 16384)
    geo = GeoSpec(n_nodes=120, n_sites=10, racks_per_site=2)
    spread = _vm_cluster(geo_cluster_spec(geo), 240)
    domains = geo.domain_map("site")
    return {
        "core.layout_flat_s": seconds_per_call(lambda: layout_dvdc(flat, 4)),
        "core.layout_geo_s": seconds_per_call(
            lambda: layout_dvdc(spread, 8, n_parity=2, domains=domains)),
    }


def _serving_probes() -> dict[str, float]:
    n = 100_000
    config = ArrivalConfig(rate=2400.0, n_requests=n, service_mean=0.02,
                           chunk_requests=16_384)

    def arrivals():
        for _ in OpenLoopArrivals(config, RngRegistry(0)).chunks():
            pass

    def sweep():
        engine = ServingEngine([PSServer(sid) for sid in range(80)])
        end = 0.0
        for chunk in OpenLoopArrivals(config, RngRegistry(0)).chunks():
            engine.feed(chunk)
            end = chunk.end
        engine.advance_to(end)
        engine.take_completions()

    arrivals_s = seconds_per_call(arrivals)
    return {
        "serving.arrivals_Mreq_per_s": n / arrivals_s / 1e6,
        # the sweep's own share: generating the stream is timed above
        "serving.engine_req_per_s": n / (seconds_per_call(sweep) - arrivals_s),
    }


def run_all() -> dict[str, float]:
    out: dict[str, float] = {}
    for group in (_sim_probes, _network_probes, _cluster_probes,
                  _coding_probes, _core_probes, _serving_probes):
        out.update(group())
    return out
