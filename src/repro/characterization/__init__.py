"""Latency characterization utilities (Sec. IV-B).

These helpers turn per-frame latency records into the quantities the paper's
characterization figures report: frontend/backend latency shares and relative
standard deviations (Fig. 5), per-kernel backend breakdowns (Figs. 6-8),
sorted per-frame latency series (Figs. 9-11) and worst-to-best ratios.
"""

from repro.characterization.stats import (
    backend_kernel_breakdown,
    frontend_backend_shares,
    latency_series,
    worst_to_best_ratio,
)
from repro.characterization.report import format_table, percent

__all__ = [
    "frontend_backend_shares",
    "backend_kernel_breakdown",
    "latency_series",
    "worst_to_best_ratio",
    "format_table",
    "percent",
]
