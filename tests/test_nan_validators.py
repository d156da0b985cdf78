"""NaN is not a positive number: every check on the cycle path says so.

A bound written ``x <= 0`` lets NaN through, because every comparison
with NaN is false; written ``not x > 0`` it does not.  Each parameter
below fed the epoch a NaN that ran silently: a cycle charging no encode
time and reporting NaN seconds per node, a NaN capture pause, a node
whose RAM check could never fire, a serving policy with a NaN cadence.
"""

from __future__ import annotations

import math

import pytest

from repro.checkpoint.base import CaptureSpec
from repro.cluster import ClusterSpec, NodeError, PhysicalNode, VirtualCluster
from repro.core.dvdc import DisklessCheckpointer
from repro.core.groups import GroupLayout
from repro.serving import ServingPolicy
from repro.sim import Simulator

NAN = math.nan


def test_xor_bandwidth():
    cluster = VirtualCluster(Simulator(), ClusterSpec(n_nodes=2))
    with pytest.raises(ValueError, match="xor_bandwidth"):
        DisklessCheckpointer(cluster, GroupLayout([]), xor_bandwidth=NAN)


def test_copy_bandwidth():
    with pytest.raises(ValueError, match="copy_bandwidth"):
        CaptureSpec(copy_bandwidth=NAN)


def test_node_ram():
    with pytest.raises(NodeError, match="ram_bytes"):
        PhysicalNode(0, NAN)


def test_serving_interval():
    with pytest.raises(ValueError, match="interval"):
        ServingPolicy("bad", checkpoint=True, interval=NAN)
