"""Registration backend mode: localize against a pre-constructed map.

Registration calculates the 6-DoF pose against a given map (Sec. III): the
tracking block matches the current frame's features to map points and solves
for the transform that minimizes the 3-D error.  It is the preferred mode for
known indoor environments (Fig. 2) where GPS is unavailable but a survey map
exists.
"""

from __future__ import annotations

from typing import Optional

from repro.backend.base import BackendResult
from repro.backend.tracking import LocalizationMap, MapTracker
from repro.common.config import TrackingConfig
from repro.common.geometry import Pose
from repro.frontend.frontend import FrontendResult
from repro.sensors.dataset import Frame
from repro.sensors.world import LandmarkWorld


class RegistrationBackend:
    """Per-frame registration against a fixed map."""

    def __init__(self, localization_map: LocalizationMap,
                 config: Optional[TrackingConfig] = None, camera=None) -> None:
        self.map = localization_map
        self.tracker = MapTracker(config=config, camera=camera)
        self._last_pose: Optional[Pose] = None

    @classmethod
    def from_world(cls, world: LandmarkWorld, config: Optional[TrackingConfig] = None,
                   map_noise: float = 0.05, map_bias_std: float = 0.0,
                   camera=None, seed: int = 0) -> "RegistrationBackend":
        """Build the backend with a survey map derived from the true world."""
        localization_map = LocalizationMap.from_world(
            world, position_noise=map_noise, position_bias_std=map_bias_std, seed=seed
        )
        return cls(localization_map, config=config, camera=camera)

    @classmethod
    def from_snapshot(cls, snapshot, config: Optional[TrackingConfig] = None,
                      camera=None) -> "RegistrationBackend":
        """Build the backend from a fleet-built map snapshot.

        ``snapshot`` is a :class:`~repro.maps.MapSnapshot` (duck-typed to
        avoid a package cycle): the map one or more SLAM sessions published
        for a shared environment, acquired by this session at serve time.
        """
        return cls(snapshot.to_localization_map(), config=config, camera=camera)

    def reset(self) -> None:
        self._last_pose = None

    @property
    def map_observations(self):
        """Per-landmark evidence of the last tracked frame.

        ``(map point id, observed world position, residual)`` triples from
        :attr:`~repro.backend.tracking.MapTracker.last_map_observations` —
        the raw material of the fleet map-update lifecycle: a registration
        session re-observes the same landmarks every frame, and these
        observations are what it accumulates into a
        :class:`~repro.maps.update.MapUpdate` at map exit.  Empty when the
        last frame's tracking failed.
        """
        return self.tracker.last_map_observations

    def initialize(self, pose: Pose) -> None:
        """Seed the tracking prior (state handover from another backend).

        Registration estimates every frame independently, so only the prior
        used for map projection/culling carries over — but seeding it keeps
        the first tracked frame's visible-map workload consistent with the
        client's actual viewpoint after a mid-stream switch.
        """
        self._last_pose = pose.copy()

    def process(self, frontend: FrontendResult, frame: Frame) -> BackendResult:
        """Estimate the pose of one frame against the map."""
        prior = self._last_pose
        pose, workload = self.tracker.track(frontend, self.map, prior_pose=prior)
        valid = pose is not None
        if pose is None:
            # Hold the previous estimate when tracking fails (standard practice).
            pose = self._last_pose.copy() if self._last_pose is not None else Pose.identity()
        self._last_pose = pose.copy()
        return BackendResult(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            pose=pose,
            mode="registration",
            workload=workload,
            kernel_ms=dict(self.tracker.last_kernel_ms),
            diagnostics={"matches": workload.matches, "inliers": workload.inliers},
            valid=valid,
        )
