"""The visual frontend block: feature matching shared by all backend modes.

``VisualFrontend`` produces, for every camera frame, a
:class:`FrontendResult`: the frame's stereo-matched feature points with
persistent track identities across time, one row per correspondence in a few
columns.  Every backend reads these columns directly; it consumes only these
correspondences (2-3 KB per frame in the paper) plus the IMU/GPS samples.

The frame decides which of two paths runs:

* ``dense``, when the frame carries rendered images — runs the full FAST +
  ORB + stereo matching + Lucas-Kanade pipeline on them.  This is the
  workload characterized by the frontend accelerator model.
* ``sparse``, otherwise — consumes the simulator's landmark observations
  directly.  Track identity equals the landmark identity (modelling a
  well-tuned data association), with configurable feature budget and
  dropout.  This path is fast enough for long end-to-end runs.

Both paths report a :class:`FrontendWorkload` describing the work done
(pixels filtered, keypoints detected, stereo pairs compared, points tracked)
which the CPU baseline model and the accelerator model translate into
latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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


@dataclass
class FrontendResult:
    """Per-frame output of the visual frontend, one row per correspondence.

    The rows are in the frontend's rank order, which the backends keep.
    Each column exists because a reader needs it:

    * ``track_ids`` — int64 ``(n,)`` persistent track identities; every
      backend reads them.
    * ``points_body`` — ``(n, 3)`` stereo-triangulated points in the body
      frame; the MSCKF update, the SLAM odometry and keyframes, and the
      registration pose solve read them.
    * ``noise_std`` — ``(n, 3)`` per-axis noise of those points (see
      :func:`stereo_point_noise`; column 0 is the depth std); the same
      three readers weight by it.
    * ``left_pixels`` — ``(n, 2)`` left-image pixels; only the dense path's
      Lucas-Kanade association of the next frame reads them.
    """

    frame_index: int
    timestamp: float
    track_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    points_body: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    noise_std: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    left_pixels: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    workload: FrontendWorkload = field(default_factory=FrontendWorkload)
    measured_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def feature_count(self) -> int:
        return self.track_ids.size

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
                 dropout_probability: float = 0.02, seed: int = 0) -> None:
        self.config = config or FrontendConfig()
        self.rig = rig
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
        # The last frame's result: its rows are the active tracks.
        self._previous = FrontendResult(frame_index=-1, timestamp=0.0)
        self._previous_left_image: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ API

    def reset(self) -> None:
        """Forget all active tracks (e.g. when a new sequence segment starts)."""
        self._next_track_id = 0
        self._previous = FrontendResult(frame_index=-1, timestamp=0.0)
        self._previous_left_image = None

    @property
    def active_track_count(self) -> int:
        return self._previous.feature_count

    def process(self, frame: Frame, rig: Optional[StereoRig] = None) -> FrontendResult:
        """Process one frame and return its correspondences."""
        rig = rig or self.rig
        if rig is None:
            raise ValueError("a StereoRig must be supplied either at construction or per call")
        if frame.has_images:
            return self._process_dense(frame, rig)
        return self._process_sparse(frame, rig)

    def _advance(self, result: FrontendResult) -> Tuple[int, int]:
        """Make ``result`` the previous frame.

        Returns how many tracks were active before it and how many of them
        it continues.
        """
        previous_ids = set(self._previous.track_ids.tolist())
        continued = len(previous_ids.intersection(result.track_ids.tolist()))
        self._previous = result
        return len(previous_ids), continued

    def _triangulate(self, result: FrontendResult, right_pixels: np.ndarray, rig: StereoRig) -> None:
        """Fill ``result``'s body points and their noise from its stereo pixels."""
        with profile_kernel("frontend.triangulation", features=result.feature_count):
            points_camera = rig.triangulate(result.left_pixels, right_pixels)
        result.points_body = body_frame_from_camera(points_camera)
        result.noise_std = stereo_point_noise(
            points_camera[:, 2], rig.camera.fx, rig.baseline, self.config.assumed_pixel_noise
        )

    # --------------------------------------------------------- sparse path

    def _process_sparse(self, frame: Frame, rig: StereoRig) -> FrontendResult:
        stopwatch = StopwatchCollector()
        result = FrontendResult(frame_index=frame.index, timestamp=frame.timestamp)

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
                # Fancy indexing copies: no column aliases the frame.
                result.track_ids = frame.landmark_ids[kept]
                result.left_pixels = frame.left_pixels[kept]
                self._triangulate(result, frame.right_pixels[kept], rig)

        with stopwatch.measure("temporal_matching"):
            tracked_points, temporal_matches = self._advance(result)

        result.workload = FrontendWorkload(
            image_width=rig.camera.width,
            image_height=rig.camera.height,
            keypoints_left=items.size,
            keypoints_right=items.size,
            descriptors_computed=2 * items.size,
            stereo_candidates=items.size,
            stereo_matches=result.feature_count,
            tracked_points=tracked_points,
            temporal_matches=temporal_matches,
        )
        result.measured_ms = stopwatch.as_dict()
        return result

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

        track_ids: List[int] = []
        left_rows: List[Tuple[float, float]] = []
        right_rows: List[Tuple[float, float]] = []
        for match in matches:
            if match.disparity < self.config.min_disparity:
                continue
            keypoint = left_keypoints[match.left_index]
            track_id = association.get(match.left_index)
            if track_id is None or track_id in track_ids:
                track_id = self._next_track_id
                self._next_track_id += 1
            track_ids.append(track_id)
            left_rows.append((keypoint.x, keypoint.y))
            right_rows.append((keypoint.x - match.disparity, right_keypoints[match.right_index].y))

        result = FrontendResult(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            track_ids=np.array(track_ids, dtype=np.int64),
            left_pixels=np.array(left_rows, dtype=float).reshape(-1, 2),
            measured_ms=stopwatch.as_dict(),
        )
        if track_ids:
            self._triangulate(result, np.array(right_rows, dtype=float), rig)
        tracked_points, temporal_matches = self._advance(result)
        self._previous_left_image = left_image

        result.workload = FrontendWorkload(
            image_width=left_image.shape[1],
            image_height=left_image.shape[0],
            keypoints_left=len(left_keypoints),
            keypoints_right=len(right_keypoints),
            descriptors_computed=len(left_keypoints) + len(right_keypoints),
            stereo_candidates=len(left_keypoints) * max(1, len(right_keypoints)),
            stereo_matches=len(matches),
            tracked_points=tracked_points,
            temporal_matches=temporal_matches,
        )
        return result

    def _temporal_association(self, left_image: np.ndarray,
                              current_keypoints: List[Keypoint]) -> Dict[int, int]:
        """Map current left-keypoint index -> persistent track id via LK tracking."""
        previous = self._previous
        if self._previous_left_image is None or not previous.feature_count:
            return {}
        flow = self._tracker.track(self._previous_left_image, left_image, previous.left_pixels)
        if not current_keypoints:
            return {}
        previous_ids = previous.track_ids.tolist()
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


def synthetic_descriptors_for_tracks(track_ids: np.ndarray,
                                     noise_bits: int = 0,
                                     rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Generate stable binary descriptors for a frame's ``track_ids`` column.

    Used by the tracking block's descriptor fallback, which matches a frame
    whose track identities do not name map points and so needs descriptors
    even when the frontend ran in sparse mode.  The descriptor is derived from
    the track identity so repeated visits to the same landmark produce nearly
    identical signatures.  With ``noise_bits > 0`` each row's flips are drawn
    in row order from the one ``rng``, which is then required.
    """
    if not track_ids.size:
        return np.zeros((0, 32), dtype=np.uint8)
    return np.stack(
        [descriptor_from_seed(track_id * 2654435761 % (2**31), noise_bits=noise_bits, rng=rng)
         for track_id in track_ids.tolist()]
    )
