"""Figs. 5-8: latency distribution of the unified framework on the baseline CPU.

Fig. 5 reports the frontend/backend latency shares and relative standard
deviations in the three modes; Figs. 6-8 report the kernel breakdown inside
each backend.  Both are computed from the baseline CPU latency model applied
to the characterized per-frame workloads.

The three per-mode characterization cells are resolved through the shared
:class:`~repro.experiments.runner.ExperimentRunner` (via
:func:`~repro.experiments.common.all_mode_runs`): cold cells fan out across
worker processes and warm ones come from the in-process memo or the
persistent on-disk run store.
"""

from __future__ import annotations

from typing import Dict

from repro.characterization.stats import backend_kernel_breakdown, frontend_backend_shares
from repro.experiments.common import all_mode_runs, baseline_records


def frontend_backend_by_mode(platform_kind: str = "car", duration: float = 20.0) -> Dict[str, Dict]:
    """Fig. 5: frontend/backend share and RSD per mode."""
    runs = all_mode_runs(platform_kind, duration)
    report: Dict[str, Dict] = {}
    for mode, result in runs.items():
        records = baseline_records(result, platform_kind)
        report[mode.value] = frontend_backend_shares(records)
    return report


def backend_breakdown_by_mode(platform_kind: str = "car", duration: float = 20.0) -> Dict[str, Dict[str, float]]:
    """Figs. 6-8: percentage breakdown of backend kernels per mode."""
    runs = all_mode_runs(platform_kind, duration)
    report: Dict[str, Dict[str, float]] = {}
    for mode, result in runs.items():
        records = baseline_records(result, platform_kind)
        report[mode.value] = backend_kernel_breakdown(records)
    return report


def dominant_backend_kernel(platform_kind: str = "car", duration: float = 20.0) -> Dict[str, str]:
    """The largest backend contributor per mode (projection / Kalman gain /
    marginalization in the paper)."""
    breakdown = backend_breakdown_by_mode(platform_kind, duration)
    out: Dict[str, str] = {}
    for mode, kernels in breakdown.items():
        interesting = {k: v for k, v in kernels.items() if k != "platform_overhead"}
        out[mode] = max(interesting, key=interesting.get) if interesting else ""
    return out
