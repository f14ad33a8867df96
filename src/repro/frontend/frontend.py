"""The visual frontend block: feature matching shared by all backend modes.

``VisualFrontend`` produces, for every camera frame, a set of
:class:`TrackObservation` records: stereo-matched feature points with
persistent track identities across time.  The backend consumes only these
correspondences (2-3 KB per frame in the paper) plus the IMU/GPS samples.

Two execution paths are supported:

* ``sparse`` — consumes the simulator's landmark observations directly.
  Track identity equals the landmark identity (modelling a well-tuned data
  association), with configurable feature budget and dropout.  This path is
  fast enough for long end-to-end runs.
* ``dense`` — runs the full FAST + ORB + stereo matching + Lucas-Kanade
  pipeline on rendered images.  This is the workload characterized by the
  frontend accelerator model.

Both paths report a :class:`FrontendWorkload` describing the work done
(pixels filtered, keypoints detected, stereo pairs compared, points tracked)
which the CPU baseline model and the accelerator model translate into
latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.common.camera import StereoRig
from repro.common.config import FrontendConfig
from repro.common.timing import StopwatchCollector
from repro.frontend.fast import FastDetector, Keypoint, keypoints_to_array
from repro.frontend.optical_flow import LucasKanadeTracker
from repro.frontend.orb import OrbDescriptor, descriptor_from_seed
from repro.frontend.stereo import StereoMatcher
from repro.obs.profile import profile_kernel
from repro.sensors.dataset import Frame
from repro.sensors.world import body_frame_from_camera


@dataclass
class TrackObservation:
    """One stereo feature observation attached to a persistent track."""

    track_id: int
    left_pixel: np.ndarray
    right_pixel: np.ndarray
    point_camera: np.ndarray
    point_body: np.ndarray
    descriptor: Optional[np.ndarray] = None
    age: int = 1
    noise_std: np.ndarray = None

    def __post_init__(self) -> None:
        self.left_pixel = np.asarray(self.left_pixel, dtype=float).reshape(2)
        self.right_pixel = np.asarray(self.right_pixel, dtype=float).reshape(2)
        self.point_camera = np.asarray(self.point_camera, dtype=float).reshape(3)
        self.point_body = np.asarray(self.point_body, dtype=float).reshape(3)
        if self.noise_std is None:
            self.noise_std = np.full(3, 0.05)
        else:
            self.noise_std = np.asarray(self.noise_std, dtype=float).reshape(3)

    @property
    def disparity(self) -> float:
        return float(self.left_pixel[0] - self.right_pixel[0])

    @property
    def depth(self) -> float:
        return float(self.point_camera[2])

    @property
    def depth_std(self) -> float:
        """Standard deviation of the triangulated depth (body x axis)."""
        return float(self.noise_std[0])


def stereo_point_noise(depth, fx: float, baseline: float,
                       pixel_noise: float, floor: float = 0.02) -> np.ndarray:
    """First-order noise model of a stereo-triangulated 3-D point.

    The depth uncertainty grows quadratically with depth
    (``sigma_z = z^2 * sigma_d / (fx * b)``) while the lateral uncertainty
    grows linearly (``sigma_xy = z * sigma_px / fx``).  Returned in the body
    frame order (x forward/depth, y lateral, z vertical).  A small ``floor``
    keeps the estimators from becoming over-confident about very close
    features (unmodelled calibration and timing errors dominate there).

    ``depth`` may be a scalar (returns shape ``(3,)``) or an array of depths
    (returns shape ``(n, 3)``); batched callers use the latter.
    """
    depth = np.maximum(np.asarray(depth, dtype=float), 1e-3)
    sigma_disparity = pixel_noise * np.sqrt(2.0)
    sigma_depth = depth * depth * sigma_disparity / max(fx * baseline, 1e-9)
    sigma_lateral = depth * pixel_noise / max(fx, 1e-9)
    return np.maximum(np.stack([sigma_depth, sigma_lateral, sigma_lateral], axis=-1), floor)


@dataclass
class FrontendWorkload:
    """Counters describing the work the frontend performed for one frame."""

    image_width: int = 0
    image_height: int = 0
    keypoints_left: int = 0
    keypoints_right: int = 0
    descriptors_computed: int = 0
    stereo_candidates: int = 0
    stereo_matches: int = 0
    tracked_points: int = 0
    temporal_matches: int = 0

    @property
    def image_pixels(self) -> int:
        return self.image_width * self.image_height

    @property
    def correspondence_bytes(self) -> int:
        """Approximate payload shipped to the backend (paper: 2-3 KB)."""
        # Each correspondence: track id (4 B) + 2x2 pixel coords (16 B) + depth (4 B).
        return 24 * self.stereo_matches + 8 * self.temporal_matches


@dataclass
class FrontendResult:
    """Per-frame output of the visual frontend."""

    frame_index: int
    timestamp: float
    observations: List[TrackObservation] = field(default_factory=list)
    new_track_ids: List[int] = field(default_factory=list)
    lost_track_ids: List[int] = field(default_factory=list)
    workload: FrontendWorkload = field(default_factory=FrontendWorkload)
    measured_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def track_ids(self) -> List[int]:
        return [obs.track_id for obs in self.observations]

    @property
    def feature_count(self) -> int:
        return len(self.observations)

    def observation_for(self, track_id: int) -> Optional[TrackObservation]:
        for obs in self.observations:
            if obs.track_id == track_id:
                return obs
        return None

    def summary(self) -> "FrontendSummary":
        """The part of this frame that outlives the backend step."""
        return FrontendSummary(self.frame_index, self.timestamp,
                               self.feature_count, self.workload)


@dataclass(frozen=True)
class FrontendSummary:
    """What a run keeps of one frame's frontend output once the backend has run.

    The observations are consumed within the frame; the platform latency
    models, the offload scheduler and the per-frame statistics read only
    these fields, so results, shard reports and run-store entries carry
    this instead of the full :class:`FrontendResult`.
    """

    frame_index: int
    timestamp: float
    feature_count: int
    workload: FrontendWorkload


class VisualFrontend:
    """Shared vision frontend; see module docstring for the two paths."""

    def __init__(self, config: Optional[FrontendConfig] = None, rig: Optional[StereoRig] = None,
                 sparse: bool = True, dropout_probability: float = 0.02, seed: int = 0) -> None:
        self.config = config or FrontendConfig()
        self.rig = rig
        self.sparse = bool(sparse)
        self.dropout_probability = float(dropout_probability)
        self._rng = np.random.default_rng(seed)

        self._detector = FastDetector(
            threshold=self.config.fast_threshold,
            max_features=self.config.max_features,
            grid_cells=self.config.grid_cells,
        )
        self._descriptor = OrbDescriptor(
            patch_size=self.config.orb_patch_size, bits=self.config.orb_bits
        )
        self._stereo = StereoMatcher(
            max_hamming=self.config.stereo_max_hamming,
            max_disparity=self.config.stereo_max_disparity,
            block_size=self.config.stereo_block_size,
        )
        self._tracker = LucasKanadeTracker(
            window=self.config.lk_window,
            iterations=self.config.lk_iterations,
            max_error=self.config.lk_max_error,
        )

        self._next_track_id = 0
        self._active_tracks: Dict[int, TrackObservation] = {}
        self._previous_left_image: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ API

    def reset(self) -> None:
        """Forget all active tracks (e.g. when a new sequence segment starts)."""
        self._next_track_id = 0
        self._active_tracks = {}
        self._previous_left_image = None

    @property
    def active_track_count(self) -> int:
        return len(self._active_tracks)

    def process(self, frame: Frame, rig: Optional[StereoRig] = None) -> FrontendResult:
        """Process one frame and return its correspondences."""
        rig = rig or self.rig
        if rig is None:
            raise ValueError("a StereoRig must be supplied either at construction or per call")
        if self.sparse or not frame.has_images:
            return self._process_sparse(frame, rig)
        return self._process_dense(frame, rig)

    # --------------------------------------------------------- sparse path

    def _process_sparse(self, frame: Frame, rig: StereoRig) -> FrontendResult:
        stopwatch = StopwatchCollector()
        previous_ids = set(self._active_tracks.keys())
        observations: List[TrackObservation] = []
        new_ids: List[int] = []

        with stopwatch.measure("feature_extraction"):
            disparity = frame.left_pixels[:, 0] - frame.right_pixels[:, 0]
            items = np.nonzero(disparity >= self.config.min_disparity)[0]
            if items.size > self.config.max_features:
                # Prefer close landmarks (larger disparity) as real detectors
                # do; equal disparities keep their frame order.
                order = np.argsort(-disparity[items], kind="stable")
                items = items[order[: self.config.max_features]]

        with stopwatch.measure("stereo_matching"):
            kept = items
            if items.size:
                kept = items[self._rng.random(items.size) >= self.dropout_probability]
            if kept.size:
                # Fancy indexing copies: no observation aliases the frame.
                left_pixels = frame.left_pixels[kept]
                right_pixels = frame.right_pixels[kept]
                with profile_kernel("frontend.triangulation",
                                    features=kept.size):
                    points_camera = rig.triangulate(left_pixels, right_pixels)
                points_body = body_frame_from_camera(points_camera)
                noise_stds = stereo_point_noise(
                    points_camera[:, 2], rig.camera.fx, rig.baseline, self.config.assumed_pixel_noise
                )
                for i, landmark_id in enumerate(frame.landmark_ids[kept].tolist()):
                    previous = self._active_tracks.get(landmark_id)
                    observations.append(
                        TrackObservation(
                            track_id=landmark_id,
                            left_pixel=left_pixels[i],
                            right_pixel=right_pixels[i],
                            point_camera=points_camera[i],
                            point_body=points_body[i],
                            descriptor=None,
                            age=previous.age + 1 if previous is not None else 1,
                            noise_std=noise_stds[i],
                        )
                    )
                    if previous is None:
                        new_ids.append(landmark_id)

        with stopwatch.measure("temporal_matching"):
            current_ids = {obs.track_id for obs in observations}
            lost_ids = sorted(previous_ids - current_ids)
            temporal_matches = len(previous_ids & current_ids)
            self._active_tracks = {obs.track_id: obs for obs in observations}

        workload = FrontendWorkload(
            image_width=rig.camera.width,
            image_height=rig.camera.height,
            keypoints_left=items.size,
            keypoints_right=items.size,
            descriptors_computed=2 * items.size,
            stereo_candidates=items.size,
            stereo_matches=len(observations),
            tracked_points=len(previous_ids),
            temporal_matches=temporal_matches,
        )
        return FrontendResult(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            observations=observations,
            new_track_ids=new_ids,
            lost_track_ids=lost_ids,
            workload=workload,
            measured_ms=stopwatch.as_dict(),
        )

    # ---------------------------------------------------------- dense path

    def _process_dense(self, frame: Frame, rig: StereoRig) -> FrontendResult:
        stopwatch = StopwatchCollector()
        left_image = np.asarray(frame.left_image, dtype=float)
        right_image = np.asarray(frame.right_image, dtype=float)

        with stopwatch.measure("feature_extraction"):
            left_keypoints = self._detector.detect(left_image)
            right_keypoints = self._detector.detect(right_image)
            left_descriptors = self._descriptor.compute(left_image, left_keypoints)
            right_descriptors = self._descriptor.compute(right_image, right_keypoints)

        with stopwatch.measure("stereo_matching"):
            matches = self._stereo.match(
                left_keypoints, left_descriptors, right_keypoints, right_descriptors,
                left_image=left_image, right_image=right_image,
            )

        with stopwatch.measure("temporal_matching"):
            association = self._temporal_association(left_image, left_keypoints)

        observations: List[TrackObservation] = []
        new_ids: List[int] = []
        used_track_ids: set = set()
        for match in matches:
            if match.disparity < self.config.min_disparity:
                continue
            keypoint = left_keypoints[match.left_index]
            right_keypoint = right_keypoints[match.right_index]
            track_id = association.get(match.left_index)
            if track_id is None or track_id in used_track_ids:
                track_id = self._next_track_id
                self._next_track_id += 1
                new_ids.append(track_id)
            used_track_ids.add(track_id)
            left_pixel = np.array([keypoint.x, keypoint.y])
            right_pixel = np.array([keypoint.x - match.disparity, right_keypoint.y])
            point_camera = rig.triangulate(left_pixel.reshape(1, 2), right_pixel.reshape(1, 2))[0]
            point_body = body_frame_from_camera(point_camera.reshape(1, 3))[0]
            previous = self._active_tracks.get(track_id)
            observations.append(
                TrackObservation(
                    track_id=track_id,
                    left_pixel=left_pixel,
                    right_pixel=right_pixel,
                    point_camera=point_camera,
                    point_body=point_body,
                    descriptor=left_descriptors[match.left_index],
                    age=previous.age + 1 if previous is not None else 1,
                    noise_std=stereo_point_noise(
                        point_camera[2], rig.camera.fx, rig.baseline, self.config.assumed_pixel_noise
                    ),
                )
            )

        previous_ids = set(self._active_tracks.keys())
        current_ids = {obs.track_id for obs in observations}
        lost_ids = sorted(previous_ids - current_ids)
        self._active_tracks = {obs.track_id: obs for obs in observations}
        self._previous_left_image = left_image

        workload = FrontendWorkload(
            image_width=left_image.shape[1],
            image_height=left_image.shape[0],
            keypoints_left=len(left_keypoints),
            keypoints_right=len(right_keypoints),
            descriptors_computed=len(left_keypoints) + len(right_keypoints),
            stereo_candidates=len(left_keypoints) * max(1, len(right_keypoints)),
            stereo_matches=len(matches),
            tracked_points=len(previous_ids),
            temporal_matches=len(previous_ids & current_ids),
        )
        return FrontendResult(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            observations=observations,
            new_track_ids=new_ids,
            lost_track_ids=lost_ids,
            workload=workload,
            measured_ms=stopwatch.as_dict(),
        )

    def _temporal_association(self, left_image: np.ndarray,
                              current_keypoints: List[Keypoint]) -> Dict[int, int]:
        """Map current left-keypoint index -> persistent track id via LK tracking."""
        if self._previous_left_image is None or not self._active_tracks:
            return {}
        previous_points = np.array([obs.left_pixel for obs in self._active_tracks.values()])
        previous_ids = list(self._active_tracks.keys())
        flow = self._tracker.track(self._previous_left_image, left_image, previous_points)
        if not current_keypoints:
            return {}
        current_xy = keypoints_to_array(current_keypoints)

        association: Dict[int, int] = {}
        for result in flow:
            if not result.converged:
                continue
            distances = np.linalg.norm(current_xy - result.current, axis=1)
            nearest = int(np.argmin(distances))
            if distances[nearest] <= 3.0 and nearest not in association:
                association[nearest] = previous_ids[result.index]
        return association


def synthetic_descriptors_for_tracks(observations: List[TrackObservation],
                                     noise_bits: int = 0,
                                     rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Generate stable binary descriptors for sparse-path observations.

    Used by the bag-of-words registration backend, which needs descriptors
    even when the frontend ran in sparse mode.  The descriptor is derived from
    the track identity so repeated visits to the same landmark produce nearly
    identical signatures.  With ``noise_bits > 0`` each observation's flips are
    drawn in order from the one ``rng``, which is then required.
    """
    if not observations:
        return np.zeros((0, 32), dtype=np.uint8)
    return np.stack(
        [descriptor_from_seed(obs.track_id * 2654435761 % (2**31), noise_bits=noise_bits, rng=rng)
         for obs in observations]
    )
