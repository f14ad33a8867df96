"""VIO backend mode: MSCKF filtering plus loosely-coupled GPS fusion.

VIO computes the relative pose from visual feature tracks and IMU samples via
the filtering block, and — when GPS is available — corrects the accumulated
drift through the fusion block (Sec. IV-A).  It is the preferred mode
outdoors (Fig. 2/3) where GPS provides absolute positioning.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.base import BackendResult
from repro.backend.fusion import GpsFusion
from repro.backend.msckf import Msckf
from repro.common.config import BackendConfig
from repro.common.geometry import Pose
from repro.common.timing import StopwatchCollector
from repro.frontend.frontend import FrontendResult
from repro.sensors.dataset import Frame


class VioBackend:
    """Filtering + Fusion pipeline."""

    def __init__(self, config: Optional[BackendConfig] = None, use_gps: bool = True) -> None:
        self.config = config or BackendConfig()
        self.filter = Msckf(self.config.msckf)
        self.fusion = GpsFusion(self.config.fusion)
        self.use_gps = bool(use_gps)

    def reset(self) -> None:
        self.filter = Msckf(self.config.msckf)
        self.fusion = GpsFusion(self.config.fusion)

    @property
    def initialized(self) -> bool:
        return self.filter.initialized

    def initialize(self, pose: Pose, velocity: Optional[np.ndarray] = None) -> None:
        self.filter.initialize(pose, velocity)
        self.fusion.reset()

    def process(self, frontend: FrontendResult, frame: Frame) -> BackendResult:
        """Run one VIO step: propagate, update, and fuse GPS if present."""
        if not self.filter.initialized:
            self.initialize(frame.ground_truth, frame.ground_truth_velocity)

        vio_pose = self.filter.process_frame(frontend, frame.imu_timestamps, frame.imu_gyro,
                                             frame.imu_accel)
        kernel_ms = dict(self.filter.last_kernel_ms)

        stopwatch = StopwatchCollector()
        with stopwatch.measure("fusion"):
            if self.use_gps and frame.has_gps:
                self.fusion.update(vio_pose, frame.gps)
            pose = self.fusion.corrected_pose(vio_pose) if self.fusion.has_converged else vio_pose
        kernel_ms.update(stopwatch.as_dict())

        workload = self.filter.last_workload
        return BackendResult(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            pose=pose,
            mode="vio",
            workload=workload,
            kernel_ms=kernel_ms,
            diagnostics={
                "clones": workload.clone_count,
                "features_used": workload.features_used,
                "gps_fused": bool(self.use_gps and frame.has_gps),
            },
        )
