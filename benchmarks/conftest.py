"""Shared helpers for the paper benches.

Every ``bench_*`` module reproduces one paper artifact (figure/table —
see DESIGN.md §3): it computes the rows once, prints them and asserts
their shape (who wins, by what factor), so
``pytest benchmarks --ignore benchmarks/e2e -s`` doubles as the
reproduction report and a regression in the reproduction fails the run.
None of them times its own computation; host time is measured in
``benchmarks/e2e``.  The one host-dependent figure is the ABL-PARITY
XOR bandwidth check.
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
