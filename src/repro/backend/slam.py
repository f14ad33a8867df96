"""SLAM backend mode: mapping and tracking running side by side.

SLAM simultaneously constructs a map and localizes within it (Sec. III).
The mapping block runs sliding-window bundle adjustment over keyframes and
landmarks; the tracking block estimates every frame's pose against the
latest map the mapper produced (Sec. IV-A).  A frame-to-frame visual
odometry step provides the motion prior so mapping continues even through
viewpoints the current map does not cover, and landmark re-observation when
a place is revisited acts as the loop closure that bounds drift.  The
generated map can be persisted and later used by the registration mode.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.backend.base import BackendResult
from repro.backend.mapping import KeyframeMapper, SlamWorkload
from repro.backend.tracking import LocalizationMap, MapTracker, _weighted_horn
from repro.common.config import BackendConfig
from repro.common.geometry import Pose
from repro.common.timing import StopwatchCollector
from repro.frontend.frontend import FrontendResult
from repro.sensors.dataset import Frame


class SlamBackend:
    """Mapping + Tracking pipeline with keyframe-based bundle adjustment."""

    def __init__(self, config: Optional[BackendConfig] = None, camera=None) -> None:
        self.config = config or BackendConfig()
        self.mapper = KeyframeMapper(self.config.mapping)
        self.tracker = MapTracker(self.config.tracking, camera=camera)
        self.map = LocalizationMap()
        self._last_pose: Optional[Pose] = None
        self._last_relative: Optional[Pose] = None
        # The last frame's frontend result, the visual odometry's reference.
        self._previous: Optional[FrontendResult] = None
        self._initialized = False

    def reset(self) -> None:
        self.mapper = KeyframeMapper(self.config.mapping)
        self.map = LocalizationMap()
        self._last_pose = None
        self._last_relative = None
        self._previous = None
        self._initialized = False

    @property
    def initialized(self) -> bool:
        return self._initialized

    def initialize(self, pose: Pose) -> None:
        self._last_pose = pose.copy()
        self._initialized = True

    def persist_map(self) -> LocalizationMap:
        """Export the current map (the optional "persist map" path of Fig. 4)."""
        return LocalizationMap(*self.mapper.landmark_columns())

    def process(self, frontend: FrontendResult, frame: Frame) -> BackendResult:
        """Track against the latest map, inserting keyframes as needed."""
        if not self._initialized:
            self.initialize(frame.ground_truth)

        stopwatch = StopwatchCollector()
        kernel_ms: Dict[str, float] = {}
        workload = SlamWorkload()

        with stopwatch.measure("others"):
            predicted = self._visual_odometry_prediction(frontend)

            pose: Optional[Pose] = None
            coverage = self._map_coverage(frontend)
            if len(self.map) >= self.config.tracking.min_inliers and coverage > 0.2:
                pose, _tracking_workload = self.tracker.track(frontend, self.map, prior_pose=predicted)
            if pose is None or pose.distance_to(predicted) > 2.0:
                # Reject tracking results far from the motion model (standard
                # gating against bad data association) and fall back to VO.
                pose = predicted

        # Mapping: insert a keyframe when the platform moved enough or the
        # current view is poorly covered by the existing map.
        if self.mapper.should_insert_keyframe(pose) or coverage < 0.5:
            workload = self.mapper.insert_keyframe(frontend, pose)
            kernel_ms.update(self.mapper.last_kernel_ms)
            # Only a keyframe insertion changes the mapper's landmarks, so the
            # map rebuilt here holds until the next insertion.
            self.map = LocalizationMap(*self.mapper.landmark_columns())
            latest = self.mapper.latest_pose()
            if latest is not None:
                pose = latest

        kernel_ms.update(stopwatch.as_dict())
        # Ensure the canonical kernel names always appear in the breakdown.
        kernel_ms.setdefault("solver", 0.0)
        kernel_ms.setdefault("marginalization", 0.0)
        kernel_ms.setdefault("init", 0.0)

        self._last_pose = pose.copy()
        self._previous = frontend
        workload.keyframes = len(self.mapper.keyframes)
        workload.landmarks = self.mapper.map_size
        return BackendResult(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            pose=pose,
            mode="slam",
            workload=workload,
            kernel_ms=kernel_ms,
            diagnostics={
                "keyframes": len(self.mapper.keyframes),
                "map_size": self.mapper.map_size,
                "map_coverage": coverage,
            },
        )

    # ------------------------------------------------------------ internals

    def _map_coverage(self, frontend: FrontendResult) -> float:
        """Fraction of the current observations already present in the map."""
        if not frontend.feature_count:
            return 0.0
        known = sum(1 for track_id in frontend.track_ids.tolist() if track_id in self.mapper.landmarks)
        return known / frontend.feature_count

    def _visual_odometry_prediction(self, frontend: FrontendResult) -> Pose:
        """Predict the pose from frame-to-frame motion of common tracks.

        When the view is feature-poor (fewer than a handful of common tracks)
        the frame-to-frame estimate is unreliable, so a constant-velocity
        model (replaying the previous relative motion) bridges the gap.
        """
        if self._last_pose is None:
            return Pose.identity()
        previous = self._previous
        if previous is None or not previous.feature_count:
            return self._last_pose.copy()
        previous_row = {track_id: row for row, track_id in enumerate(previous.track_ids.tolist())}
        pairs = [(row, previous_row[track_id]) for row, track_id in enumerate(frontend.track_ids.tolist())
                 if track_id in previous_row]
        if len(pairs) < 8:
            if self._last_relative is not None:
                return self._last_pose.compose(self._last_relative)
            return self._last_pose.copy()
        current_rows, previous_rows = np.array(pairs).T
        sigma = np.maximum(np.maximum(previous.noise_std[previous_rows].mean(axis=1),
                                      frontend.noise_std[current_rows].mean(axis=1)), 1e-3)
        # Python's float power per row: numpy's ``sigma**2`` rounds some
        # values differently, which would move the odometry's bits.
        weights = np.array([1.0 / value**2 for value in sigma.tolist()])
        # Relative motion: previous-body-frame point = R_rel @ current + t_rel.
        relative = _weighted_horn(frontend.points_body[current_rows],
                                  previous.points_body[previous_rows], weights)
        self._last_relative = relative
        return self._last_pose.compose(relative)
