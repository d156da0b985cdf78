"""Page-CRC checksums against the whole-block oracle, ``zlib.crc32``.

``page_crcs`` must give each page's ``zlib.crc32`` and
``update_checksum`` exactly ``block_checksum`` of the patched bytes, on
every geometry.
"""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.checksum import (
    block_checksum,
    page_crcs,
    update_checksum,
)


def _oracle(flat: np.ndarray) -> int:
    """``block_checksum`` spelled out: length word over a bare CRC-32."""
    return (flat.size & 0xFFFFFFFF) << 32 | zlib.crc32(flat.tobytes())


# page_size 1 and odd sizes, a single page, tiny and larger images
geometries = st.one_of(
    st.tuples(st.integers(1, 64), st.sampled_from([1, 2, 3, 7, 13, 64, 100])),
    st.tuples(st.integers(1, 3), st.integers(1, 9000)),
    st.tuples(st.integers(60, 300), st.sampled_from([64, 255, 4096])),
)


@st.composite
def updates(draw):
    n_pages, page_size = draw(geometries)
    choice = st.sampled_from(["random", "none", "all", "ends"])
    kind = draw(choice)
    if kind == "none":
        dirty = []
    elif kind == "all":
        dirty = list(range(n_pages))
    elif kind == "ends":
        dirty = sorted({0, n_pages - 1})
    else:
        dirty = draw(st.sets(st.integers(0, n_pages - 1), max_size=n_pages))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_pages, page_size, np.array(sorted(dirty), dtype=np.int64), seed


@settings(max_examples=150, deadline=None)
@given(updates())
def test_page_checksums_match_zlib(case):
    n_pages, page_size, dirty, seed = case
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, (n_pages, page_size), dtype=np.uint8)
    crcs = page_crcs(image)
    assert crcs.tolist() == [zlib.crc32(row.tobytes()) for row in image]
    whole = _oracle(image.reshape(-1))
    assert whole == block_checksum(image)

    pages = rng.integers(0, 256, (len(dirty), page_size), dtype=np.uint8)
    after = image.copy()
    after[dirty] = pages
    assert update_checksum(
        [whole], [len(dirty)], dirty, crcs[dirty], page_crcs(pages),
        n_pages, page_size,
    ) == [_oracle(after.reshape(-1))]


def test_update_reads_no_image_bytes():
    # the update trusts the recorded old page CRCs: rot in a page it does
    # not touch survives into the new checksum instead of being laundered
    rng = np.random.default_rng(7)
    image = rng.integers(0, 256, (64, 256), dtype=np.uint8)
    crcs = page_crcs(image)
    whole = block_checksum(image)
    image[5, 0] ^= 1  # rot a page the update does not touch
    new = rng.integers(0, 256, (1, 256), dtype=np.uint8)
    [moved] = update_checksum(
        [whole], [1], np.array([40]), crcs[[40]], page_crcs(new), 64, 256
    )
    image[40] = new[0]
    assert moved != block_checksum(image)
    image[5, 0] ^= 1
    assert moved == block_checksum(image)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 40), st.sampled_from([1, 3, 64])),
    st.lists(st.sets(st.integers(0, 39)), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_one_batched_update_moves_every_image(geometry, dirty_sets, seed):
    # several images of one geometry, some with nothing dirty, moved by
    # one call: each must equal its own oracle, and the page CRCs of
    # several arrays come back concatenated in order
    n_pages, page_size = geometry
    rng = np.random.default_rng(seed)
    images = [
        rng.integers(0, 256, (n_pages, page_size), dtype=np.uint8)
        for _ in dirty_sets
    ]
    records = page_crcs(images)
    assert records.tolist() == [
        zlib.crc32(row.tobytes()) for image in images for row in image
    ]
    dirty = [
        np.array(sorted(p for p in d if p < n_pages), dtype=np.int64)
        for d in dirty_sets
    ]
    pages = [
        rng.integers(0, 256, (len(d), page_size), dtype=np.uint8) for d in dirty
    ]
    old = np.concatenate(
        [records[k * n_pages + d] for k, d in enumerate(dirty)]
    )
    moved = update_checksum(
        [block_checksum(image) for image in images], [len(d) for d in dirty],
        np.concatenate(dirty), old, page_crcs(pages), n_pages, page_size,
    )
    for image, d, new in zip(images, dirty, pages):
        image[d] = new
    assert moved == [_oracle(image.reshape(-1)) for image in images]
