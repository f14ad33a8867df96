"""Statistics over latency records for the characterization figures."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.common.timing import LatencyRecord, TimingStats


def frontend_backend_shares(records: Sequence[LatencyRecord]) -> Dict[str, Dict[str, float]]:
    """Fig. 5 quantities: mean latency share and RSD of frontend vs backend."""
    records = list(records)
    frontend = TimingStats(r.frontend_total for r in records)
    backend = TimingStats(r.backend_total for r in records)
    total_mean = frontend.mean + backend.mean
    if total_mean <= 0:
        total_mean = 1.0
    return {
        "frontend": {
            "mean_ms": frontend.mean,
            "share_percent": 100.0 * frontend.mean / total_mean,
            "rsd_percent": frontend.rsd,
        },
        "backend": {
            "mean_ms": backend.mean,
            "share_percent": 100.0 * backend.mean / total_mean,
            "rsd_percent": backend.rsd,
        },
    }


def backend_kernel_breakdown(records: Sequence[LatencyRecord]) -> Dict[str, float]:
    """Figs. 6-8: mean share (percent) of each kernel within the backend."""
    totals: Dict[str, float] = {}
    for record in records:
        for name, value in record.backend.items():
            totals[name] = totals.get(name, 0.0) + value
    grand_total = sum(totals.values())
    if grand_total <= 0:
        return {name: 0.0 for name in totals}
    return {name: 100.0 * value / grand_total for name, value in sorted(totals.items())}


def latency_series(records: Sequence[LatencyRecord], sort_by_total: bool = True
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Figs. 9-11a: per-frame (frontend, backend) latencies, sorted by total."""
    records = list(records)
    frontend = np.array([r.frontend_total for r in records])
    backend = np.array([r.backend_total for r in records])
    if sort_by_total and len(records) > 1:
        order = np.argsort(frontend + backend)
        frontend = frontend[order]
        backend = backend[order]
    return frontend, backend


def kernel_series(records: Sequence[LatencyRecord], kernel_names: Iterable[str],
                  sort_by_total: bool = True) -> Dict[str, np.ndarray]:
    """Figs. 9-11b: per-frame latencies of selected backend kernels."""
    records = list(records)
    totals = np.array([r.total for r in records])
    order = np.argsort(totals) if sort_by_total and len(records) > 1 else np.arange(len(records))
    out: Dict[str, np.ndarray] = {}
    for name in kernel_names:
        values = np.array([r.kernel(name) for r in records])
        out[name] = values[order]
    return out


def worst_to_best_ratio(records: Sequence[LatencyRecord]) -> float:
    """Sec. IV-B: the worst-case latency can be several times the best case."""
    return TimingStats(r.total for r in records).worst_to_best_ratio
