"""The batched commit against one-image commits, and the batched fold.

``repro.cluster.hypervisor.commit_checkpoints`` is the one commit: a
whole epoch goes through it as one batch, and
``Hypervisor.commit_checkpoint`` passes it a single image.  These tests
drive the same commits both ways on twin nodes and require the same
buffers, checksums, page-CRC records and ``(replaced, committed)``
pairs, across mixed geometries, empty deltas, bases without page CRCs
and timing-only images; a bad delta anywhere in a batch must raise
before any VM's buffer is taken.  The XOR fold is checked against a
per-member reference where members of one group dirty the same page.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CheckpointImage,
    CheckpointKind,
    Hypervisor,
    HypervisorError,
    PhysicalNode,
    VirtualMachine,
)
from repro.cluster.checksum import block_checksum, page_crcs
from repro.cluster.hypervisor import commit_checkpoints
from repro.cluster.memory import PageDelta
from repro.cluster.xorsum import xor_fold_groups

N_NODES = 3
GEOMETRIES = [(4, 8), (16, 64), (3, 5), (1, 1)]
#: base: "crcs" (a functional VM, so the base records page CRCs),
#: "bare" (no functional image: the base is hashed whole), "none"
BASES = ["crcs", "bare", "none"]
KINDS = ["delta", "empty", "full", "timing"]


@st.composite
def batches(draw):
    vms = []
    for _ in range(draw(st.integers(1, 8))):
        geometry = draw(st.sampled_from(GEOMETRIES))
        base = draw(st.sampled_from(BASES))
        kind = draw(st.sampled_from(KINDS))
        if base == "none" and kind in ("delta", "empty"):
            kind = "full"  # a delta needs a base to patch
        vms.append((geometry, base, kind))
    return vms, draw(st.integers(0, 2**32 - 1))


def _cluster(vms, seed):
    """Nodes hosting the VMs, each base committed; returns the nodes and
    the epoch-1 images to commit, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    nodes = [PhysicalNode(i, 1e15) for i in range(N_NODES)]
    images = []
    for vm_id, ((n_pages, page_size), base, kind) in enumerate(vms):
        node = nodes[vm_id % N_NODES]
        vm = VirtualMachine(
            vm_id, 1e6, image_pages=None if base == "bare" else n_pages,
            page_size=page_size,
        )
        node.host(vm)
        nbytes = n_pages * page_size
        if base != "none":
            Hypervisor(node).commit_checkpoint(CheckpointImage(
                vm_id, 0, CheckpointKind.FULL, 1e6, 0.0,
                rng.integers(0, 256, nbytes, dtype=np.uint8),
            ))
        if kind in ("delta", "empty"):
            n_dirty = 0 if kind == "empty" else int(rng.integers(1, n_pages + 1))
            idx = np.sort(rng.choice(n_pages, n_dirty, replace=False)).astype(np.int64)
            delta = PageDelta(
                page_size, n_pages, idx,
                rng.integers(0, 256, (n_dirty, page_size), dtype=np.uint8),
            )
            image = CheckpointImage(
                vm_id, 1, CheckpointKind.INCREMENTAL, float(delta.nbytes), 1.0,
                delta, base_epoch=0,
            )
        elif kind == "full":
            image = CheckpointImage(
                vm_id, 1, CheckpointKind.FULL, 1e6, 1.0,
                rng.integers(0, 256, nbytes, dtype=np.uint8),
            )
        else:
            image = CheckpointImage(
                vm_id, 1, CheckpointKind.INCREMENTAL, 5e5, 1.0, base_epoch=0
            )
        images.append((node, image))
    return nodes, images


def _state(nodes):
    """Everything a commit leaves in the stores, comparable with ==."""
    out = {}
    for node in nodes:
        for vm_id, img in node.checkpoint_store.items():
            meta = dict(img.meta)
            crcs = meta.pop("page_crcs", None)
            out[vm_id] = (
                node.node_id, img.epoch, img.kind, img.logical_bytes,
                None if img.payload is None else img.payload_flat().tobytes(),
                None if crcs is None else crcs.tolist(), meta,
            )
    return out


@settings(max_examples=120, deadline=None)
@given(batches())
def test_batched_commit_equals_one_image_commits(case):
    vms, seed = case
    seq_nodes, seq_images = _cluster(vms, seed)
    one_by_one = [
        Hypervisor(node).commit_checkpoint(image) for node, image in seq_images
    ]
    nodes, images = _cluster(vms, seed)
    base_ids = {
        image.vm_id: id(node.checkpoint_store[image.vm_id].payload)
        for node, image in images
        if isinstance(image.payload, PageDelta)
    }
    assert commit_checkpoints(images) == one_by_one
    assert _state(nodes) == _state(seq_nodes)
    for node in nodes:
        for vm_id, img in node.checkpoint_store.items():
            if img.payload is None:
                assert img.meta.get("checksum") is None
                continue
            # every recorded fingerprint is the bytes' own
            assert img.meta["checksum"] == block_checksum(img.payload)
            if "page_crcs" in img.meta:
                vm = node.vms[vm_id]
                assert np.array_equal(
                    img.meta["page_crcs"],
                    page_crcs(img.payload.reshape(vm.image.n_pages, -1)),
                )
            if vm_id in base_ids:  # the merge patched the base in place
                assert id(img.payload) == base_ids[vm_id]


@settings(max_examples=60, deadline=None)
@given(batches(), st.data())
def test_a_bad_delta_anywhere_takes_no_buffer(case, data):
    vms, seed = case
    nodes, images = _cluster(vms, seed)
    patchable = [
        i for i, (node, image) in enumerate(images)
        if node.checkpoint_store.get(image.vm_id) is not None
    ]
    if not patchable:
        return
    k = data.draw(st.sampled_from(patchable))
    node, image = images[k]
    n_pages, page_size = vms[image.vm_id][0]
    bad = data.draw(st.sampled_from(["outside", "geometry"]))
    if bad == "outside":
        delta = PageDelta(
            page_size, n_pages, np.array([n_pages], dtype=np.int64),
            np.ones((1, page_size), np.uint8),
        )
    else:
        delta = PageDelta(
            page_size, n_pages + 1, np.array([0], dtype=np.int64),
            np.ones((1, page_size), np.uint8),
        )
    images[k] = (node, CheckpointImage(
        image.vm_id, 1, CheckpointKind.INCREMENTAL, 1.0, 1.0, delta, base_epoch=0
    ))
    before = _state(nodes)
    held = {
        vm_id: (id(img), id(img.payload))
        for n in nodes for vm_id, img in n.checkpoint_store.items()
    }
    with pytest.raises(HypervisorError, match=f"vm {image.vm_id}"):
        commit_checkpoints(images)
    assert _state(nodes) == before
    assert {
        vm_id: (id(img), id(img.payload))
        for n in nodes for vm_id, img in n.checkpoint_store.items()
    } == held


def test_a_vm_is_committed_once_per_batch():
    node = PhysicalNode(0, 1e15)
    node.host(VirtualMachine(0, 1e6, image_pages=2, page_size=4))
    images = [
        (node, CheckpointImage(0, e, CheckpointKind.FULL, 1e6, 0.0,
                               np.zeros(8, np.uint8)))
        for e in (0, 1)
    ]
    with pytest.raises(HypervisorError, match="vm 0 is committed twice"):
        commit_checkpoints(images)
    assert node.checkpoint_store == {}


def test_a_dead_node_takes_no_buffer():
    nodes, images = _cluster([((4, 8), "crcs", "delta")] * 4, seed=3)
    before = _state(nodes)
    nodes[1].alive = False
    with pytest.raises(RuntimeError, match="node 1 is down"):
        commit_checkpoints(images)
    nodes[1].alive = True
    assert _state(nodes) == before


# ----------------------------------------------------------------------
# the XOR fold
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 12), st.sampled_from([1, 3, 64]),
    st.lists(st.integers(1, 5), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_fold_matches_a_per_member_reference_on_shared_pages(
    n_pages, page_size, sizes, seed
):
    rng = np.random.default_rng(seed)
    nbytes = n_pages * page_size
    prev_rows, group_folds = [], []
    for k in sizes:
        prev_rows.append(rng.integers(0, 256, nbytes, dtype=np.uint8))
        shared = int(rng.integers(0, n_pages))
        folds = []
        for _ in range(k):
            idx = rng.choice(n_pages, int(rng.integers(0, n_pages + 1)), replace=False)
            # every member of the group dirties page `shared`
            idx = np.union1d(idx, [shared]).astype(np.int64)
            folds.append((
                idx, rng.integers(0, 256, nbytes, dtype=np.uint8),
                rng.integers(0, 256, (len(idx), page_size), dtype=np.uint8),
            ))
        group_folds.append(folds)
    got = xor_fold_groups(prev_rows, group_folds, n_pages, page_size)
    for row, prev, folds in zip(got, prev_rows, group_folds):
        want = prev.reshape(n_pages, page_size).copy()
        for idx, base, pages in folds:
            old = base.reshape(n_pages, page_size)
            for page, new in zip(idx, pages):
                want[page] ^= old[page] ^ new
        assert np.array_equal(row, want.reshape(-1))
