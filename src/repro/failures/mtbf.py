"""The paper's failure-rate operating point.

The introduction's scaling argument — more components, shorter system
MTBF — meets Section V-B at one number: a cluster MTBF of 3 h, i.e.
λ = 9.26e-5 failures per second.
"""

from __future__ import annotations

__all__ = ["PAPER_LAMBDA", "PAPER_MTBF_SECONDS"]

#: The paper's Section V-B operating point: 3 h cluster MTBF.
PAPER_MTBF_SECONDS = 3.0 * 3600.0
#: λ = 1/MTBF quoted in the paper as 9.26e-5 failures/sec.
PAPER_LAMBDA = 1.0 / PAPER_MTBF_SECONDS
