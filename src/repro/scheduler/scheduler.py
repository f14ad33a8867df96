"""The runtime offload scheduler (Sec. VI-B).

For each frame the scheduler decides whether the mode's
variation-contributing kernel should run on the CPU or be offloaded to the
backend accelerator.  It predicts the CPU time from the kernel's input size
using regression models trained offline on 25 % of the frames (linear for
projection, quadratic for Kalman gain and marginalization), estimates the
accelerator time from the cycle model plus DMA transfers, and offloads only
when the CPU prediction is larger.  An oracle scheduler (which knows both
times exactly) provides the upper bound the paper compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.scheduler.regression import PolynomialRegression, r_squared

if TYPE_CHECKING:  # import only for annotations: repro.hardware imports this
    # module back (accelerator wiring), so a runtime import would be a cycle.
    from repro.hardware.backend_accel import BackendAcceleratorModel

# The workload feature that predicts each kernel's CPU latency (Fig. 16):
# the projected (visible) map subset for projection, the measurement
# (Jacobian) height for the Kalman gain, and the departing keyframe's feature
# count for marginalization.
KERNEL_SIZE_ATTRIBUTE: Dict[str, str] = {
    "registration": "projection_points",
    "vio": "kalman_gain_dim",
    "slam": "feature_points",
}

KERNEL_MODEL_DEGREE: Dict[str, int] = {
    "registration": 1,  # projection time is linear in the map size
    "vio": 2,           # Kalman gain is quadratic in the feature count
    "slam": 2,          # marginalization is quadratic in the feature count
}


def kernel_size(mode: str, workload) -> float:
    """Extract the scheduler's size feature from a backend workload."""
    return float(getattr(workload, KERNEL_SIZE_ATTRIBUTE[mode]))


@dataclass
class ScheduleDecision:
    """The scheduler's decision for one frame."""

    offload: bool
    predicted_cpu_ms: float
    accelerator_ms: float
    actual_cpu_ms: float


@dataclass
class SchedulerEvaluation:
    """Aggregate quality metrics of a scheduler over a set of frames."""

    offload_fraction: float
    mean_latency_ms: float
    oracle_mean_latency_ms: float
    always_offload_mean_latency_ms: float
    never_offload_mean_latency_ms: float
    r2: float

    @property
    def gap_to_oracle_percent(self) -> float:
        if self.oracle_mean_latency_ms <= 0:
            return 0.0
        return 100.0 * (self.mean_latency_ms - self.oracle_mean_latency_ms) / self.oracle_mean_latency_ms

    @property
    def always_offload_penalty_percent(self) -> float:
        """Latency increase of always offloading relative to the scheduler."""
        if self.mean_latency_ms <= 0:
            return 0.0
        return 100.0 * (self.always_offload_mean_latency_ms - self.mean_latency_ms) / self.mean_latency_ms


class RuntimeScheduler:
    """Regression-based offload scheduler."""

    def __init__(self, accelerator: BackendAcceleratorModel) -> None:
        self.accelerator = accelerator
        self.models: Dict[str, PolynomialRegression] = {}
        self.training_r2: Dict[str, float] = {}
        self._observations: Dict[str, Tuple[List[float], List[float]]] = {}
        self._observation_counts: Dict[str, int] = {}

    # ------------------------------------------------------------- training

    # Sliding-window length for live observations: long enough for a stable
    # quadratic fit, short enough that memory and refit cost stay constant
    # in a long-running serving process.
    OBSERVATION_WINDOW = 512

    def observe(self, mode: str, workload, cpu_ms: float,
                refit_every: int = 32) -> Optional[float]:
        """Fold one live observation into the mode's CPU-latency model.

        The incremental alternative to :meth:`train` for long-running
        deployments (batch fitting from fleet telemetry lives in
        :func:`repro.serving.engine.train_offload_scheduler`): observations
        accumulate per mode (bounded by :data:`OBSERVATION_WINDOW`, oldest
        dropped first) and the regression is refit every ``refit_every``
        samples, so the predictor tracks the traffic it actually serves.
        Returns the new training R^2 when a refit happened, else None.
        """
        sizes, times = self._observations.setdefault(mode, ([], []))
        sizes.append(kernel_size(mode, workload))
        times.append(float(cpu_ms))
        if len(sizes) > self.OBSERVATION_WINDOW:
            del sizes[: -self.OBSERVATION_WINDOW]
            del times[: -self.OBSERVATION_WINDOW]
        self._observation_counts[mode] = self._observation_counts.get(mode, 0) + 1
        if self._observation_counts[mode] % max(1, int(refit_every)) == 0:
            return self.train(mode, sizes, times)
        return None

    def train(self, mode: str, sizes: Sequence[float], cpu_ms: Sequence[float]) -> float:
        """Fit the CPU-latency model for one mode; returns the training R^2."""
        degree = KERNEL_MODEL_DEGREE[mode]
        model = PolynomialRegression(degree=degree).fit(sizes, cpu_ms)
        self.models[mode] = model
        self.training_r2[mode] = model.score(sizes, cpu_ms)
        return self.training_r2[mode]

    def train_from_frames(self, mode: str, workloads: Sequence, cpu_ms: Sequence[float]) -> float:
        sizes = [kernel_size(mode, w) for w in workloads]
        return self.train(mode, sizes, cpu_ms)

    def observation_count(self, mode: str) -> int:
        """Lifetime count of live observations folded in via :meth:`observe`."""
        return self._observation_counts.get(mode, 0)

    # ------------------------------------------------------------- decision

    def decide(self, mode: str, workload, actual_cpu_ms: float) -> ScheduleDecision:
        """Decide whether to offload the kernel of ``mode`` for this frame."""
        accelerator_ms = self.accelerator.kernel_ms(mode, workload, include_dma=True)
        if mode not in self.models:
            # Without a model, offload conservatively (the paper trains offline
            # before deployment, so this path only covers cold starts).
            predicted = actual_cpu_ms
        else:
            predicted = max(self.models[mode].predict_scalar(kernel_size(mode, workload)), 0.0)
        return ScheduleDecision(
            offload=predicted > accelerator_ms,
            predicted_cpu_ms=predicted,
            accelerator_ms=accelerator_ms,
            actual_cpu_ms=actual_cpu_ms,
        )

    # ----------------------------------------------------------- evaluation

    def evaluate(self, mode: str, workloads: Sequence, cpu_ms: Sequence[float]) -> SchedulerEvaluation:
        """Compare the scheduler against oracle / always / never offloading."""
        decisions = [self.decide(mode, w, c) for w, c in zip(workloads, cpu_ms)]
        scheduled = [d.accelerator_ms if d.offload else d.actual_cpu_ms for d in decisions]
        oracle = [min(d.accelerator_ms, d.actual_cpu_ms) for d in decisions]
        always = [d.accelerator_ms for d in decisions]
        never = [d.actual_cpu_ms for d in decisions]
        predictions = [d.predicted_cpu_ms for d in decisions]
        return SchedulerEvaluation(
            offload_fraction=float(np.mean([d.offload for d in decisions])) if decisions else 0.0,
            mean_latency_ms=float(np.mean(scheduled)) if scheduled else 0.0,
            oracle_mean_latency_ms=float(np.mean(oracle)) if oracle else 0.0,
            always_offload_mean_latency_ms=float(np.mean(always)) if always else 0.0,
            never_offload_mean_latency_ms=float(np.mean(never)) if never else 0.0,
            r2=r_squared(cpu_ms, predictions),
        )


class OracleScheduler:
    """Always makes the optimal offload decision (upper bound, Sec. VII-F)."""

    def __init__(self, accelerator: BackendAcceleratorModel) -> None:
        self.accelerator = accelerator

    def decide(self, mode: str, workload, actual_cpu_ms: float) -> ScheduleDecision:
        accelerator_ms = self.accelerator.kernel_ms(mode, workload, include_dma=True)
        return ScheduleDecision(
            offload=actual_cpu_ms > accelerator_ms,
            predicted_cpu_ms=actual_cpu_ms,
            accelerator_ms=accelerator_ms,
            actual_cpu_ms=actual_cpu_ms,
        )


def train_test_split(items: Sequence, train_fraction: float = 0.25,
                     seed: int = 0) -> Tuple[List, List]:
    """Deterministic split used for scheduler training (25 % train, 75 % test)."""
    items = list(items)
    rng = np.random.default_rng(seed)
    indices = rng.permutation(len(items))
    cut = max(1, int(round(len(items) * train_fraction)))
    train_idx = set(indices[:cut].tolist())
    train = [items[i] for i in range(len(items)) if i in train_idx]
    test = [items[i] for i in range(len(items)) if i not in train_idx]
    return train, test
