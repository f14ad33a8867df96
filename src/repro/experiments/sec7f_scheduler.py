"""Sec. VII-F: effectiveness of the runtime backend scheduler.

The experiment trains the scheduler's regression models on 25 % of the
frames and evaluates on the remaining 75 %, reporting the fit quality (R^2),
the gap to an oracle scheduler, the offload fraction per mode, and the
latency penalty of always offloading (the paper reports an 8.3 % increase
for SLAM when always offloading).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import accelerator_for, all_mode_runs
from repro.scheduler.scheduler import train_test_split


def scheduler_report(platform_kind: str = "car", duration: float = 20.0,
                     train_fraction: float = 0.25, seed: int = 0) -> Dict[str, Dict]:
    """Per-mode scheduler evaluation."""
    runs = all_mode_runs(platform_kind, duration)
    accelerator = accelerator_for(platform_kind)
    report: Dict[str, Dict] = {}
    for mode, result in runs.items():
        samples = []
        kernel = accelerator.backend_model.accelerated_kernel_name(mode.value)
        for frontend_result, backend_result in zip(result.frontend_results, result.backend_results):
            record = accelerator.cpu_model.frame_record(
                frontend_result.frame_index, backend_result.mode,
                frontend_result.workload, backend_result.workload,
            )
            samples.append((backend_result.workload, record.backend.get(kernel, 0.0)))

        train, test = train_test_split(samples, train_fraction=train_fraction, seed=seed)
        if len(train) < 4 or len(test) < 4:
            train, test = samples, samples
        accelerator.scheduler.train_from_frames(
            mode.value, [s[0] for s in train], [s[1] for s in train]
        )
        evaluation = accelerator.scheduler.evaluate(
            mode.value, [s[0] for s in test], [s[1] for s in test]
        )
        report[mode.value] = {
            "kernel": kernel,
            "training_r2": accelerator.scheduler.training_r2[mode.value],
            "test_r2": evaluation.r2,
            "offload_fraction": evaluation.offload_fraction,
            "scheduler_mean_ms": evaluation.mean_latency_ms,
            "oracle_mean_ms": evaluation.oracle_mean_latency_ms,
            "gap_to_oracle_percent": evaluation.gap_to_oracle_percent,
            "always_offload_mean_ms": evaluation.always_offload_mean_latency_ms,
            "never_offload_mean_ms": evaluation.never_offload_mean_latency_ms,
            "always_offload_penalty_percent": evaluation.always_offload_penalty_percent,
        }
    return report
