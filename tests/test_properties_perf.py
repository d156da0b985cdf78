"""Property tests for the perf-critical primitives.

Seeded (RngRegistry-driven) randomized laws for the pieces the scale
work leans on hardest:

* xorsum algebra — associativity/commutativity, self-inverse, padded
  round-trips;
* the delta folds — the batched XOR fold equal to a naive per-member
  fold, and ``fold_many`` of XOR and RS equal to a whole re-encode;
* fluid-flow conservation — under random flap/abort/degrade schedules,
  delivered bytes match flow sizes, links never leak flows, and the
  component-scoped settle's per-flow trajectory is bit-identical to one
  global fill's (the ``GlobalFillNetwork`` oracle);
* ``MemoryImage.touch_pages`` accounting — ``dirty_page_count`` counts
  *unique* pages (the double-count regression) while RNG consumption
  stays keyed to the raw index list;
* event-heap lazy-deletion compaction — bounded heap, preserved
  execution order, counter hygiene after fire-then-cancel;
* snapshots — a snapshot stays frozen while the image mutates.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import global_fill
from repro.cluster.checksum import block_checksum
from repro.cluster.memory import MemoryImage
from repro.cluster.xorsum import (
    reconstruct_missing_padded,
    xor_fold_groups,
    xor_reduce,
    xor_reduce_padded,
)
from repro.coding import get_scheme
from repro.network.topology import SwitchedTopology
from repro.sim import RngRegistry, Simulator


# ---------------------------------------------------------------------------
# xorsum algebra
# ---------------------------------------------------------------------------
def _buffers(rng, k: int, n: int) -> list[np.ndarray]:
    return [rng.integers(0, 256, size=n, dtype=np.uint8) for _ in range(k)]


@pytest.mark.parametrize("seed", range(5))
def test_xor_reduce_order_independent(rngs: RngRegistry, seed: int):
    rng = rngs.stream(f"assoc/{seed}")
    bufs = _buffers(rng, k=int(rng.integers(2, 7)), n=int(rng.integers(1, 512)))
    expected = xor_reduce(bufs)
    perm = rng.permutation(len(bufs))
    assert np.array_equal(xor_reduce([bufs[i] for i in perm]), expected)
    # fold pairwise: same result as one-shot reduce
    acc = bufs[0]
    for b in bufs[1:]:
        acc = xor_reduce([acc, b])
    assert np.array_equal(acc, expected)


@pytest.mark.parametrize("seed", range(5))
def test_xor_self_inverse(rngs: RngRegistry, seed: int):
    rng = rngs.stream(f"inverse/{seed}")
    n = int(rng.integers(1, 1024))
    a = rng.integers(0, 256, size=n, dtype=np.uint8)
    b = rng.integers(0, 256, size=n, dtype=np.uint8)
    assert np.array_equal(xor_reduce([xor_reduce([a, b]), b]), a)


@pytest.mark.parametrize("seed", range(5))
def test_padded_round_trip(rngs: RngRegistry, seed: int):
    """Any member of a heterogeneous padded group is recoverable, and the
    zero-padding semantics are exactly pad-then-truncate."""
    rng = rngs.stream(f"padded/{seed}")
    k = int(rng.integers(2, 6))
    lengths = [int(rng.integers(1, 300)) for _ in range(k)]
    bufs = [rng.integers(0, 256, size=n, dtype=np.uint8) for n in lengths]
    parity = xor_reduce_padded(bufs)
    longest = max(lengths)
    # parity equals the equal-length reduce over zero-padded members
    padded = [np.pad(b, (0, longest - len(b))) for b in bufs]
    assert np.array_equal(parity, xor_reduce(padded))
    for missing in range(k):
        survivors = [b for i, b in enumerate(bufs) if i != missing]
        got = reconstruct_missing_padded(survivors, parity, lengths[missing])
        assert np.array_equal(got, bufs[missing])


# ---------------------------------------------------------------------------
# the batched XOR delta fold
# ---------------------------------------------------------------------------
def _naive_fold(prev, folds, n_pages_total: int, page_size: int) -> np.ndarray:
    """``parity ^= old[idx] ^ new`` one member and one page at a time."""
    parity = prev.copy().reshape(n_pages_total, page_size)
    for indices, base, pages in folds:
        old = base.reshape(n_pages_total, page_size)
        for page, new in zip(indices, pages):
            parity[page] ^= old[page] ^ new
    return parity.reshape(-1)


def _fold_case(rng, n_pages_total: int, page_size: int):
    """Random groups, pinned to cover the fold's awkward cases: group 0
    has four members and group 1 one (unequal slot counts), group 0's
    first two members both dirty page 3, and its last delta is empty."""
    nbytes = n_pages_total * page_size
    slots = rng.integers(0, 5, size=int(rng.integers(2, 6)))
    slots[0], slots[1] = 4, 1
    prev_rows, group_folds = [], []
    for g, n_slots in enumerate(slots):
        prev_rows.append(rng.integers(0, 256, nbytes, dtype=np.uint8))
        folds = []
        for j in range(n_slots):
            n_dirty = int(rng.integers(0, n_pages_total + 1))
            indices = rng.choice(n_pages_total, n_dirty, replace=False)
            if g == 0 and j < 2:
                indices = np.union1d(indices, [3])
            if g == 0 and j == 3:
                indices = indices[:0]
            indices = np.sort(indices).astype(np.int64)
            base = rng.integers(0, 256, nbytes, dtype=np.uint8)
            pages = rng.integers(0, 256, (len(indices), page_size), dtype=np.uint8)
            folds.append((indices, base, pages))
        group_folds.append(folds)
    return prev_rows, group_folds


@pytest.mark.parametrize("seed", range(5))
def test_xor_fold_groups_matches_naive_fold(rngs: RngRegistry, seed: int):
    rng = rngs.stream(f"fold/{seed}")
    n_pages_total = int(rng.integers(4, 20))
    page_size = int(rng.choice([1, 8, 64]))
    prev_rows, group_folds = _fold_case(rng, n_pages_total, page_size)
    before = [r.copy() for r in prev_rows]
    got = xor_fold_groups(prev_rows, group_folds, n_pages_total, page_size)
    assert got.shape == (len(prev_rows), n_pages_total * page_size)
    for row, prev, folds in zip(got, prev_rows, group_folds):
        assert np.array_equal(row, _naive_fold(prev, folds, n_pages_total, page_size))
    assert all(np.array_equal(a, b) for a, b in zip(prev_rows, before)), \
        "input parity rows must not be mutated"


@pytest.mark.parametrize("seed", range(3))
def test_xor_scheme_fold_many_equals_reencode(rngs: RngRegistry, seed: int):
    """Folding each epoch's deltas into the previous parity gives the
    bytes a whole re-encode of the new members gives — across two page
    geometries in one call (two fold buckets) and with a clean member.
    ``fold_checksum`` derives the folded parity's checksum from the
    previous one and the members' old and new checksums."""
    rng = rngs.stream(f"fold-many/{seed}")
    scheme = get_scheme("xor")
    prev_shards, updates, expected, sums = [], [], [], []
    for n_pages, page_size in [(16, 64), (8, 32), (16, 64)]:
        images = []
        for _ in range(int(rng.integers(2, 5))):
            img = MemoryImage(n_pages, page_size)
            img.write(0, rng.integers(0, 256, img.nbytes, dtype=np.uint8))
            img.clear_dirty()
            images.append(img)
        bases = [img.snapshot() for img in images]
        prev_shards.append(scheme.encode(bases))
        for img in images[1:]:  # images[0] stays clean: an empty delta
            img.touch_pages(rng.integers(0, n_pages, size=5), rng)
        updates.append([(base, img.capture_delta())
                        for base, img in zip(bases, images)])
        expected.append(scheme.encode([img.flat for img in images]))
        sums.append([(block_checksum(base), block_checksum(img.flat))
                     for base, img in zip(bases, images)])
    folded = scheme.fold_many(prev_shards, updates)
    assert len(folded) == len(expected)
    for got, want, prev, deltas in zip(folded, expected, prev_shards, sums):
        assert len(got) == 1 and np.array_equal(got[0], want[0])
        derived = scheme.fold_checksum(block_checksum(prev[0]), deltas)
        assert derived == block_checksum(got[0])
        assert scheme.fold_checksum(None, deltas) is None
        assert scheme.fold_checksum(derived, deltas + [None]) is None


def _scribble(rng, img: MemoryImage, pages) -> None:
    """Overwrite whole pages with fresh random bytes (dirtying them)."""
    for page in pages:
        img.write(
            int(page) * img.page_size,
            rng.integers(0, 256, img.page_size, dtype=np.uint8),
        )


#: (n_pages, page_size) per member of each group: k_hint members, then
#: mixed lengths with an odd page size and a 1-page image, then odd byte
#: counts throughout (the pair tables' tail byte)
_RS_FOLD_GROUPS = [
    [(16, 64)] * 8,
    [(16, 64), (4, 64), (1, 64), (9, 33), (2, 64)],
    [(3, 7), (1, 5), (5, 7), (2, 7)],
]


@pytest.mark.parametrize("spec", ["rs-8-2", "rs-4-3"])
@pytest.mark.parametrize("seed", range(3))
def test_rs_fold_many_equals_reencode(rngs: RngRegistry, spec: str, seed: int):
    """``shards ⊕ C·Δ`` is bit-identical to re-encoding the new members,
    whatever the member count against ``k_hint``.  In every group member
    0 has an empty delta, member 1 dirties every page and member 2 also
    dirties page 0; group 1's last member is unchanged (``None``)."""
    rng = rngs.stream(f"rs-fold/{spec}/{seed}")
    scheme = get_scheme(spec)
    prev_shards, updates, expected = [], [], []
    for g, geometries in enumerate(_RS_FOLD_GROUPS):
        images = []
        for n_pages, page_size in geometries:
            img = MemoryImage(n_pages, page_size)
            img.write(0, rng.integers(0, 256, img.nbytes, dtype=np.uint8))
            img.clear_dirty()
            images.append(img)
        bases = [img.snapshot() for img in images]
        prev_shards.append(scheme.encode(bases))
        group = []
        for i, img in enumerate(images):
            if g == 1 and i == len(images) - 1:
                group.append(None)
                continue
            if i == 0:
                pages = []
            elif i == 1:
                pages = range(img.n_pages)
            else:
                n_dirty = int(rng.integers(0, img.n_pages + 1))
                pages = rng.choice(img.n_pages, n_dirty, replace=False)
                if i == 2:
                    pages = np.union1d(pages, [0])
            _scribble(rng, img, pages)
            group.append((bases[i], img.capture_delta()))
        updates.append(group)
        expected.append(scheme.encode([img.flat for img in images]))
    before = [[s.copy() for s in shards] for shards in prev_shards]
    folded = scheme.fold_many(prev_shards, updates)
    assert len(folded) == len(expected)
    for got, want in zip(folded, expected):
        assert len(got) == scheme.n_shards
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # GF(256) products' CRCs do not follow from the members': hashed whole
    assert scheme.fold_checksum(0, [(1, 2)]) is None
    for shards, saved in zip(prev_shards, before):
        assert all(np.array_equal(a, b) for a, b in zip(shards, saved)), \
            "input shards must not be mutated"


# ---------------------------------------------------------------------------
# flow conservation under random fault schedules
# ---------------------------------------------------------------------------
def _run_flow_schedule(allocator: str, seed: int):
    """Drive a random flow + fault schedule; returns per-flow records.

    The schedule (flows, flaps, drops, degradations) is derived from the
    seed *before* running, so both allocators see the same stimulus;
    ``"reference"`` settles by global fill.
    """
    registry = RngRegistry(seed)
    rng = registry.stream("flow-schedule")
    sim = Simulator()
    n_nodes = 6
    topo = SwitchedTopology(sim, n_nodes)
    if allocator == "reference":
        global_fill(topo)
    flows = []

    def start(src, dst, size, label):
        flows.append(topo.transfer(src, dst, size, label=label))

    def start_nas(src, size, label):
        flows.append(topo.transfer_to_nas(src, size, label=label))

    n_flows = 40
    for i in range(n_flows):
        t = float(rng.uniform(0.0, 2.0))
        size = float(rng.integers(1, 50)) * 1e6
        src = int(rng.integers(0, n_nodes))
        if rng.random() < 0.3:
            sim.at(t, start_nas, src, size, f"nas{i}")
        else:
            dst = int(rng.integers(0, n_nodes))
            sim.at(t, start, src, dst, size, f"f{i}")
    for j in range(10):
        t = float(rng.uniform(0.1, 2.5))
        node = int(rng.integers(0, n_nodes))
        kind = rng.random()
        if kind < 0.4:  # flap down, back up shortly after
            sim.at(t, topo.set_node_links_up, node, False)
            sim.at(t + float(rng.uniform(0.05, 0.5)),
                   topo.set_node_links_up, node, True)
        elif kind < 0.7:  # lossy blip
            sim.at(t, topo.drop_node_flows, node)
        else:  # straggler NIC, later restored
            factor = float(rng.uniform(0.25, 0.9))
            sim.at(t, topo.scale_node_bandwidth, node, factor)
            sim.at(t + float(rng.uniform(0.2, 1.0)),
                   topo.scale_node_bandwidth, node, 1.0)
    sim.run()
    records = [
        (f.label, f.ok, float(f.started_at), float(f.finished_at),
         float(f.size), float(f.size - f._anchor_remaining))
        for f in flows
    ]
    leaked = [lk.name for lk in topo.network.links.values() if lk.flows]
    return records, leaked, sim.event_count


@pytest.mark.parametrize("seed", range(4))
def test_flow_conservation_under_faults(seed: int):
    records, leaked, _ = _run_flow_schedule("incremental", seed)
    assert not leaked, f"links leaked flows: {leaked}"
    assert len(records) == 40 and all(r[3] is not None for r in records)
    delivered = sum(1 for r in records if r[1])
    assert delivered > 0, "schedule should deliver at least some flows"
    for label, ok, started, finished, size, transferred in records:
        assert finished >= started
        if ok:
            assert transferred == size, f"{label} delivered {transferred}/{size}"
        else:
            assert 0.0 <= transferred <= size + 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_incremental_allocator_bit_identical_to_reference(seed: int):
    """Same schedule, both allocators: every flow's outcome, timestamps,
    and delivered-byte trajectory must match exactly (not approximately)."""
    inc, inc_leaked, inc_events = _run_flow_schedule("incremental", seed)
    ref, ref_leaked, ref_events = _run_flow_schedule("reference", seed)
    assert inc == ref
    assert inc_leaked == ref_leaked == []
    assert inc_events == ref_events


# ---------------------------------------------------------------------------
# touch_pages accounting (the double-count regression)
# ---------------------------------------------------------------------------
def test_touch_pages_duplicates_count_once(rng):
    img = MemoryImage(n_pages=16, page_size=64)
    img.touch_pages(np.array([3, 3, 3, 7]))
    assert img.dirty_page_count == 2
    # re-touching already-dirty pages within the interval adds nothing
    img.touch_pages(np.array([7, 7, 9]), rng)
    assert img.dirty_page_count == 3
    assert sorted(img.dirty_page_indices) == [3, 7, 9]


@pytest.mark.parametrize("seed", range(3))
def test_touch_pages_accounting_invariant(rngs: RngRegistry, seed: int):
    """After any touch/clear/delta sequence, the cached dirty count equals
    the bitmap's ground truth — unique dirty pages, never the
    double-counted sum."""
    rng = rngs.stream(f"touch/{seed}")
    img = MemoryImage(n_pages=32, page_size=128)
    for _ in range(30):
        op = rng.random()
        if op < 0.6:
            k = int(rng.integers(1, 12))
            idx = rng.integers(0, 32, size=k)  # duplicates likely
            img.touch_pages(idx, rng)
        elif op < 0.8 and img.dirty_page_count:
            img.capture_delta(clear=True)
        else:
            img.clear_dirty()
        truth = len(img.dirty_page_indices)
        assert img.dirty_page_count == truth


def test_touch_pages_rng_consumption_unchanged_by_duplicates():
    """The accounting fix must not shift RNG streams: consumption is
    keyed to len(indices) including duplicates, so traces recorded before
    the fix still replay."""
    img_a = MemoryImage(n_pages=8, page_size=32)
    rng_a = np.random.default_rng(7)
    img_a.touch_pages(np.array([1, 1, 2]), rng_a)
    rng_b = np.random.default_rng(7)
    expected = rng_b.integers(0, 256, size=(3, 8), dtype=np.uint8)
    # duplicate index 1: the *later* stamp row wins, as direct fancy
    # assignment does
    assert np.array_equal(img_a.pages[1, :8], expected[1])
    assert np.array_equal(img_a.pages[2, :8], expected[2])
    # both rngs are now at the same stream position
    assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)


@pytest.mark.parametrize("page_size", [1, 4])
def test_touch_pages_stamps_pages_shorter_than_the_draw(page_size: int):
    """A page under 8 bytes takes the leading bytes of each row of the
    ``(n, 8)`` draw; the stream still advances by the whole draw, so
    every other page size replays exactly as before."""
    img = MemoryImage(4, page_size=page_size)
    rng_a = np.random.default_rng(3)
    img.touch_pages([1, 2], rng_a)
    rng_b = np.random.default_rng(3)
    expected = rng_b.integers(0, 256, size=(2, 8), dtype=np.uint8)
    assert np.array_equal(img.pages[[1, 2]], expected[:, :page_size])
    assert img.dirty_page_count == 2
    assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)


# ---------------------------------------------------------------------------
# event-heap compaction
# ---------------------------------------------------------------------------
def _noop():
    pass


def test_heap_stays_bounded_under_cancel_churn():
    sim = Simulator()
    rng = np.random.default_rng(0)
    peak = 0
    for _ in range(5000):
        h = sim.schedule(float(rng.random()), _noop)
        h.cancel()
        peak = max(peak, sim.heap_size)
    assert peak <= 2 * Simulator.COMPACT_MIN_CANCELLED + 2
    assert sim.compactions > 0
    assert sim._cancelled < Simulator.COMPACT_MIN_CANCELLED


@pytest.mark.parametrize("seed", range(3))
def test_compaction_preserves_execution_order(seed: int):
    """A compacting simulator fires the surviving events in exactly the
    order a non-compacting one would."""

    def run(compact: bool):
        sim = Simulator()
        if not compact:
            sim.COMPACT_MIN_CANCELLED = 1 << 60  # instance override: never
        rng = np.random.default_rng(seed)
        fired: list[int] = []
        handles = []
        for i in range(600):
            t = float(rng.choice([0.25, 0.5, 0.75, 1.0]))  # many ties
            handles.append(sim.schedule(t, fired.append, i))
        for i in range(600):
            if rng.random() < 0.8:
                handles[i].cancel()
        sim.run()
        return fired, sim.compactions

    lazy, lazy_compactions = run(compact=True)
    eager, eager_compactions = run(compact=False)
    assert lazy == eager
    assert lazy_compactions > 0 and eager_compactions == 0


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    h = sim.schedule(0.0, _noop)
    sim.run()
    h.cancel()
    assert sim._cancelled == 0


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------
def test_snapshot_stays_frozen_while_image_mutates(rng):
    """A snapshot the caller holds is its own buffer: later writes to
    the image, and later snapshots, never reach it."""
    img = MemoryImage(n_pages=16, page_size=64)
    img.write(0, rng.integers(0, 256, size=img.nbytes, dtype=np.uint8))
    img.clear_dirty()
    snap = img.snapshot()
    frozen = snap.copy()
    img.write(0, rng.integers(0, 256, size=img.nbytes, dtype=np.uint8))
    img.write(3 * 64, np.full(64, 0xEE, dtype=np.uint8))
    later = img.snapshot()
    assert np.array_equal(snap, frozen), "held snapshot was mutated"
    assert np.array_equal(later, img.flat)
    assert not np.shares_memory(later, img.flat)
