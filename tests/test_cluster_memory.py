"""Tests for page-granular memory images and deltas."""

import numpy as np
import pytest

from repro.cluster import DEFAULT_PAGE_SIZE, MemoryImage, PageDelta


class TestGeometry:
    def test_default_page_size(self):
        img = MemoryImage(4)
        assert img.page_size == DEFAULT_PAGE_SIZE
        assert img.nbytes == 4 * DEFAULT_PAGE_SIZE

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryImage(0)
        with pytest.raises(ValueError):
            MemoryImage(4, page_size=0)

    def test_views_share_storage(self):
        img = MemoryImage(4, page_size=16)
        img.pages[2, 3] = 99
        assert img.flat[2 * 16 + 3] == 99

    def test_fill(self):
        img = MemoryImage(2, page_size=8, fill=0xAB)
        assert (img.flat == 0xAB).all()


class TestWrites:
    def test_write_marks_touched_pages_only(self):
        img = MemoryImage(8, page_size=16)
        img.write(20, b"hello")  # bytes 20..24, page 1 only
        assert list(img.dirty_page_indices) == [1]

    def test_write_spanning_pages(self):
        img = MemoryImage(8, page_size=16)
        img.write(14, b"spanning!")  # pages 0 and 1
        assert list(img.dirty_page_indices) == [0, 1]

    def test_write_bounds_checked(self):
        img = MemoryImage(2, page_size=16)
        with pytest.raises(IndexError):
            img.write(30, b"toolongfortheimg")
        with pytest.raises(IndexError):
            img.write(-1, b"x")

    def test_read_back(self):
        img = MemoryImage(2, page_size=16)
        img.write(5, b"abc")
        assert bytes(img.flat[5:8]) == b"abc"

    def test_touch_pages(self, rng):
        img = MemoryImage(16, page_size=32)
        img.touch_pages(np.array([3, 7, 3]), rng)
        assert set(img.dirty_page_indices) == {3, 7}
        with pytest.raises(IndexError):
            img.touch_pages(np.array([99]))

    def test_touch_empty_noop(self, rng):
        img = MemoryImage(4, page_size=8)
        img.touch_pages(np.array([], dtype=np.int64))
        assert img.dirty_page_count == 0


class TestDirtyTracking:
    def test_counters(self):
        img = MemoryImage(8, page_size=16)
        img.write(0, b"x")
        img.write(100, b"y")
        assert img.dirty_page_count == 2

    def test_clear(self):
        img = MemoryImage(4, page_size=8)
        img.write(0, b"x")
        img.clear_dirty()
        assert img.dirty_page_count == 0


class TestCapture:
    def test_snapshot_is_copy(self):
        img = MemoryImage(2, page_size=8)
        snap = img.snapshot()
        img.write(0, b"zz")
        assert snap[0] == 0

    def test_capture_delta_roundtrip(self):
        img = MemoryImage(8, page_size=16)
        base = img.snapshot()
        img.write(17, b"delta-bytes")
        img.write(100, b"more")
        delta = img.capture_delta()
        assert img.dirty_page_count == 0  # cleared
        # apply delta onto the base -> equals current state
        restored = base.copy()
        delta.apply_to(restored)
        assert np.array_equal(restored, img.flat)

    def test_capture_delta_no_clear(self):
        img = MemoryImage(4, page_size=8)
        img.write(0, b"x")
        img.capture_delta(clear=False)
        assert img.dirty_page_count == 1

    def test_delta_nbytes(self):
        img = MemoryImage(8, page_size=16)
        img.write(0, b"a")
        img.write(33, b"b")
        delta = img.capture_delta()
        assert delta.n_pages == 2
        assert delta.nbytes == 32

    def test_delta_geometry_validation(self):
        with pytest.raises(ValueError):
            PageDelta(
                page_size=8,
                n_pages_total=4,
                indices=np.array([0, 1]),
                pages=np.zeros((3, 8), dtype=np.uint8),
            )

    def test_restore(self):
        img = MemoryImage(4, page_size=8)
        img.write(0, b"original")
        snap = img.snapshot()
        img.write(0, b"mutated!")
        img.restore(snap)
        assert bytes(img.flat[:8]) == b"original"
        assert img.dirty_page_count == 0

    def test_restore_wrong_size_rejected(self):
        img = MemoryImage(4, page_size=8)
        with pytest.raises(ValueError):
            img.restore(np.zeros(10, dtype=np.uint8))
