"""Shared helpers for the benchmark harness.

Every ``bench_*`` module reproduces one paper artifact (figure/table —
see DESIGN.md §3).  Each exposes pytest-benchmark functions that time
the underlying computation AND print the regenerated rows/series, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction
report.  Shape assertions (who wins, by what factor) are checked inside
the benches, so a regression in the reproduction fails the run.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def report(capsys):
    """Print a reproduction report even under captured output."""

    def _p(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _p
