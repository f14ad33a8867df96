"""Result containers for localization runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.backend.base import BackendResult
from repro.common.geometry import Pose
from repro.common.timing import LatencyRecord
from repro.frontend.frontend import FrontendSummary
from repro.metrics.trajectory import absolute_trajectory_error, relative_trajectory_error_percent


@dataclass
class PoseEstimate:
    """The framework's estimate for one frame."""

    frame_index: int
    timestamp: float
    pose: Pose
    mode: str
    ground_truth: Optional[Pose] = None


@dataclass
class TrajectoryResult:
    """Everything produced by running the framework over one sequence.

    ``frontend_results`` holds one :class:`FrontendSummary` per frame, not
    the frame's observations: the backend consumes those within the frame.
    """

    estimates: List[PoseEstimate] = field(default_factory=list)
    frontend_results: List[FrontendSummary] = field(default_factory=list)
    backend_results: List[BackendResult] = field(default_factory=list)
    latency_records: List[LatencyRecord] = field(default_factory=list)
    scenario: str = ""

    def __len__(self) -> int:
        return len(self.estimates)

    # ----------------------------------------------------------- accuracy

    def rmse_error(self, align: bool = False, skip_initial: int = 0) -> float:
        """RMSE of translational error in metres (the Fig. 3 y-axis)."""
        estimates = self.estimates[skip_initial:]
        pairs = [(e.pose, e.ground_truth) for e in estimates if e.ground_truth is not None]
        if not pairs:
            return 0.0
        est, ref = zip(*pairs)
        return absolute_trajectory_error(list(est), list(ref), align=align)

    def relative_error_percent(self) -> float:
        pairs = [(e.pose, e.ground_truth) for e in self.estimates if e.ground_truth is not None]
        if not pairs:
            return 0.0
        est, ref = zip(*pairs)
        return relative_trajectory_error_percent(list(est), list(ref))

    # ------------------------------------------------------------- latency

    def per_mode(self) -> Dict[str, "TrajectoryResult"]:
        """Split the run by the backend mode that was active."""
        by_mode: Dict[str, TrajectoryResult] = {}
        for i, estimate in enumerate(self.estimates):
            result = by_mode.setdefault(estimate.mode, TrajectoryResult(scenario=self.scenario))
            result.estimates.append(estimate)
            if i < len(self.frontend_results):
                result.frontend_results.append(self.frontend_results[i])
            if i < len(self.backend_results):
                result.backend_results.append(self.backend_results[i])
            if i < len(self.latency_records):
                result.latency_records.append(self.latency_records[i])
        return by_mode

    def mean_feature_count(self) -> float:
        if not self.frontend_results:
            return 0.0
        return float(np.mean([r.feature_count for r in self.frontend_results]))
