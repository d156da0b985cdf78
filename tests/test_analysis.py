"""Tests for the analysis helpers (stats, tables, ASCII figures)."""

import numpy as np
import pytest

from repro.analysis import (
    ascii_plot,
    format_bytes,
    format_seconds,
    render_table,
    summarize,
)


class TestStats:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.n == 5
        assert s.mean == 3.0
        assert s.median == 3.0
        assert s.minimum == 1.0 and s.maximum == 5.0
        assert s.std == pytest.approx(np.std([1, 2, 3, 4, 5], ddof=1))

    def test_summarize_single(self):
        s = summarize([7.0])
        assert s.std == 0.0
        assert s.minimum == s.median == s.maximum == 7.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestFormat:
    def test_seconds_scales(self):
        assert format_seconds(5e-7).endswith("µs")
        assert format_seconds(5e-3).endswith("ms")
        assert format_seconds(5.0).endswith("s")
        assert format_seconds(300.0).endswith("min")
        assert format_seconds(7200.0).endswith("h")

    def test_bytes_scales(self):
        assert format_bytes(512.0) == "512B"
        assert format_bytes(2048.0).endswith("KiB")
        assert format_bytes(3 * 1 << 20).endswith("MiB")
        assert format_bytes(5 * (1 << 30)).endswith("GiB")


class TestTable:
    def test_alignment_and_content(self):
        out = render_table(
            ["name", "value"],
            [["alpha", 1], ["b", 22]],
            title="T",
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert lines[3].startswith("alpha")
        # right-aligned numbers
        assert lines[3].endswith("1")
        assert lines[4].endswith("22")

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_bad_align_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x"]], align="lr")


class TestAsciiPlot:
    def test_basic_plot_contains_series_and_marks(self):
        x = np.linspace(1, 100, 50)
        y1 = (x - 50) ** 2 / 1000 + 1
        y2 = (x - 30) ** 2 / 500 + 2
        out = ascii_plot(
            [("a", x, y1), ("b", x, y2)],
            marks=[(50.0, 1.0)],
            title="curves",
            logx=True,
        )
        assert "curves" in out
        assert "*" in out and "+" in out and "X" in out
        assert "a" in out and "b" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot([])

    def test_logx_requires_positive(self):
        with pytest.raises(ValueError):
            ascii_plot([("s", np.array([0.0, 1.0]), np.array([1.0, 2.0]))], logx=True)

    def test_nonfinite_filtered(self):
        x = np.array([1.0, 2.0, np.nan])
        y = np.array([1.0, np.inf, 3.0])
        out = ascii_plot([("s", x, y)])
        assert isinstance(out, str)

    def test_flat_series(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([5.0, 5.0, 5.0])
        out = ascii_plot([("flat", x, y)])
        assert "*" in out
