"""Analysis helpers: statistics, text tables, ASCII figures."""

from .figures import ascii_plot
from .stats import Summary, summarize
from .tables import format_bytes, format_seconds, render_table
from .timeline import render_timeline

__all__ = [
    "Summary",
    "summarize",
    "ascii_plot",
    "render_table",
    "format_seconds",
    "format_bytes",
    "render_timeline",
]
