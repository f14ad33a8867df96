"""Figs. 9-11: per-frame latency variation in the three modes.

Each figure shows the per-frame latency split between frontend and backend
(sorted by total latency) and the per-frame latency of the backend kernels.
The reproduction targets are the qualitative facts the paper reports: the
worst-case total latency is several times the best case, the backend has a
higher relative standard deviation than the frontend, and one kernel
dominates the variation in each mode.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.characterization.stats import (
    frontend_backend_shares,
    kernel_series,
    latency_series,
    worst_to_best_ratio,
)
from repro.experiments.common import all_mode_runs, baseline_records

# The per-mode kernels plotted in Figs. 9b, 10b and 11b.
MODE_KERNELS: Dict[str, List[str]] = {
    "registration": ["update", "projection", "match", "pose_optimization"],
    "vio": ["covariance", "kalman_gain", "qr", "jacobian", "imu_processing", "fusion"],
    "slam": ["solver", "marginalization", "others"],
}


def variation_by_mode(platform_kind: str = "car", duration: float = 20.0) -> Dict[str, Dict]:
    """Per-mode variation report backing Figs. 9-11."""
    runs = all_mode_runs(platform_kind, duration)
    report: Dict[str, Dict] = {}
    for mode, result in runs.items():
        records = baseline_records(result, platform_kind)
        frontend, backend = latency_series(records)
        shares = frontend_backend_shares(records)
        kernels = kernel_series(records, MODE_KERNELS[mode.value])
        report[mode.value] = {
            "frontend_series_ms": frontend.tolist(),
            "backend_series_ms": backend.tolist(),
            "worst_to_best_ratio": worst_to_best_ratio(records),
            "frontend_rsd_percent": shares["frontend"]["rsd_percent"],
            "backend_rsd_percent": shares["backend"]["rsd_percent"],
            "kernel_peak_ms": {name: float(np.max(series)) if series.size else 0.0
                               for name, series in kernels.items()},
            "kernel_std_ms": {name: float(np.std(series)) if series.size else 0.0
                              for name, series in kernels.items()},
        }
    return report


def dominant_variation_kernel(platform_kind: str = "car", duration: float = 20.0) -> Dict[str, str]:
    """The kernel with the highest latency standard deviation per mode."""
    report = variation_by_mode(platform_kind, duration)
    out: Dict[str, str] = {}
    for mode, data in report.items():
        stds = data["kernel_std_ms"]
        out[mode] = max(stds, key=stds.get) if stds else ""
    return out
