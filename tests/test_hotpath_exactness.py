"""Bit-exactness of the memoized, trimmed and vectorized hot-path kernels.

Each kernel is compared with a verbatim copy of the implementation it replaced
(the ``_reference_*`` functions below): the memoized descriptor base bits, the
columnar observations of the synthetic dataset and the sparse frontend that
consumes them (both once built around a
per-landmark ``StereoObservation`` dict), the columnar frontend result of both
frontend paths and its readers in the MSCKF, SLAM and registration backends
(all once built around per-row ``TrackObservation`` records, kept here as
``_TrackObservation``; the registration reference also keeps the deleted
keyframe-update stage), the array ground truth and IMU synthesis of a
segment, and the columnar landmark world, its survey map and its drift (once
lists of ``_Landmark`` and dicts of ``_MapPoint`` rows, kept here; SLAM's
tracking map, now rebuilt after each keyframe insertion, is checked against
the per-frame ``update_point`` mirror of the mapper).  Equality is byte for byte, signed zeros included, and any generator
the kernel draws from must end in the same state.  The descriptor memo, the
per-segment arrays and the frontend's result columns are also checked for
aliasing (a caller mutating its result must not reach the next hit, another
frame or the frame it came from) and the memo for its size bound.  A host canary checks
the numpy loops the array synthesis, the batched Rodrigues formula and the SLAM
readers rely on against their per-element results.  The window bundle adjustment (residuals reused across
iterations, an array iterate written back once per solve, one ``np.bincount``
for all five normal-equation scatters, blocks re-solved after a rejected
step) is compared with its untrimmed copy.  The MSCKF's track selection, which filters the
tracks against the clone window only after a prune, is compared with its
parent that filtered on every frame, and the autoscaler's percentile with
``np.percentile``.  Last, the script that pins the servbench wave
signatures in CI must reject any moved bit.

Three MSCKF kernels reorder floating-point work on purpose and are compared
within stated tolerances instead: the propagation (one folded transition and
noise per frame, against the per-sample loop), the update Jacobians (one pass
per equal-length group of tracks, against one ``_feature_jacobian`` per
track) and the filter run on them (against ``_ReferenceKernelMsckf``, the
kernels before the batching, with equal per-frame workloads).  The readers and
the bundle adjustment above run through the same kernels as the code under
test, so their comparisons stay byte for byte.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.base import BackendResult
from repro.backend.mapping import Keyframe, KeyframeMapper, NormalLayout, SlamWorkload
from repro.backend.marginalization import MarginalizationResult, marginalize_schur
from repro.backend.msckf import Msckf, VioWorkload
from repro.backend.slam import SlamBackend
from repro.backend.tracking import LocalizationMap, MapTracker, RegistrationWorkload, _weighted_horn
from repro.backend.state import CLONE_ERROR_DIM, IMU_ERROR_DIM
from repro.common.camera import PinholeCamera, StereoRig, world_to_camera
from repro.common.config import (BackendConfig, FrontendConfig, MappingConfig, MSCKFConfig,
                                 SensorConfig, TrackingConfig)
from repro.common.geometry import (Pose, euler_to_rotation, skew, skew_batch, so3_exp,
                                   so3_exp_batch)
from repro.common.timing import KernelTiming, StopwatchCollector
from repro.frontend import orb
from repro.frontend.fast import Keypoint, keypoints_to_array
from repro.frontend.frontend import (FrontendResult, FrontendWorkload, VisualFrontend,
                                     stereo_point_noise)
from repro.frontend.orb import DESCRIPTOR_MEMO_SIZE, descriptor_from_seed, hamming_distance_matrix
from repro.linalg.decompositions import qr_reduced
from repro.linalg.ops import matmul, quadratic_form, transpose
from repro.linalg.solvers import batched_symmetric_inverse, solve_cholesky, solve_spd
from repro.obs.profile import profile_kernel
from repro.scheduler.autoscaler import _percentile
from repro.sensors import dataset, trajectory
from repro.sensors.dataset import Frame, SequenceBuilder, SyntheticSequence, segment_frame_count
from repro.sensors.gps import GpsSimulator
from repro.sensors.imaging import ImageRenderer
from repro.sensors.imu import GRAVITY, ImuSimulator
from repro.sensors.scenarios import ScenarioKind, scenario_catalog
from repro.sensors.trajectory import TrajectoryArrays, TrajectorySample
from repro.sensors.world import LandmarkWorld, body_frame_from_camera, camera_frame_from_body
from repro.serving.streams import drift_world

# ------------------------------------------------- reference implementations


@dataclass
class _ImuSample:
    """One IMU measurement as the reference implementations carried it: an
    object per reading, before the IMU batches became columns."""

    timestamp: float
    angular_velocity: np.ndarray
    linear_acceleration: np.ndarray

    def __post_init__(self) -> None:
        self.angular_velocity = np.asarray(self.angular_velocity, dtype=float).reshape(3)
        self.linear_acceleration = np.asarray(self.linear_acceleration, dtype=float).reshape(3)


def _imu_columns(samples: List[_ImuSample]) -> Dict[str, np.ndarray]:
    """A batch of reference samples as a frame's IMU columns."""
    return {
        "imu_timestamps": np.array([s.timestamp for s in samples], dtype=float),
        "imu_gyro": np.array([s.angular_velocity for s in samples], dtype=float).reshape(-1, 3),
        "imu_accel": np.array([s.linear_acceleration for s in samples], dtype=float).reshape(-1, 3),
    }


def _reference_descriptor_from_seed(appearance_seed, bits=256, noise_bits=0, rng=None):
    seed_rng = np.random.default_rng(appearance_seed)
    descriptor_bits = seed_rng.integers(0, 2, size=bits).astype(np.uint8)
    if noise_bits > 0:
        flip_rng = rng if rng is not None else np.random.default_rng()
        flip_positions = flip_rng.choice(bits, size=min(noise_bits, bits), replace=False)
        descriptor_bits[flip_positions] ^= 1
    return np.packbits(descriptor_bits)


def _reference_propagate(self, imu_samples):
    if len(imu_samples) < 2:
        return
    imu = self.state.imu
    cfg = self.config
    for i in range(len(imu_samples) - 1):
        dt = imu_samples[i + 1].timestamp - imu_samples[i].timestamp
        if dt <= 0:
            continue
        gyro = imu_samples[i].angular_velocity - imu.gyro_bias
        accel = imu_samples[i].linear_acceleration - imu.accel_bias

        rotation = imu.rotation
        accel_world = rotation @ accel + GRAVITY

        state_dim = self.state.error_dim
        phi_imu = np.eye(IMU_ERROR_DIM)
        phi_imu[0:3, 9:12] = -rotation * dt
        phi_imu[3:6, 6:9] = np.eye(3) * dt
        phi_imu[6:9, 0:3] = -skew(rotation @ accel) * dt
        phi_imu[6:9, 12:15] = -rotation * dt

        noise = np.zeros((IMU_ERROR_DIM, IMU_ERROR_DIM))
        noise[0:3, 0:3] = np.eye(3) * cfg.imu_gyro_noise**2 * dt
        noise[6:9, 6:9] = np.eye(3) * cfg.imu_accel_noise**2 * dt
        noise[9:12, 9:12] = np.eye(3) * cfg.imu_gyro_bias_noise**2 * dt
        noise[12:15, 12:15] = np.eye(3) * cfg.imu_accel_bias_noise**2 * dt

        cov = self.state.covariance
        cov[:IMU_ERROR_DIM, :IMU_ERROR_DIM] = (
            phi_imu @ cov[:IMU_ERROR_DIM, :IMU_ERROR_DIM] @ phi_imu.T + noise
        )
        if state_dim > IMU_ERROR_DIM:
            cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:] = phi_imu @ cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:]
            cov[IMU_ERROR_DIM:, :IMU_ERROR_DIM] = cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:].T

        imu.rotation = rotation @ so3_exp(gyro * dt)
        imu.position = imu.position + imu.velocity * dt + 0.5 * accel_world * dt * dt
        imu.velocity = imu.velocity + accel_world * dt
    self.state.symmetrize()


@dataclass
class StereoObservation:
    """Noisy pixel observation of one landmark in both cameras."""

    landmark_id: int
    left_pixel: np.ndarray
    right_pixel: np.ndarray

    def __post_init__(self) -> None:
        self.left_pixel = np.asarray(self.left_pixel, dtype=float).reshape(2)
        self.right_pixel = np.asarray(self.right_pixel, dtype=float).reshape(2)


def _reference_observe(self, pose, world, rig, rng) -> Dict[int, StereoObservation]:
    if not len(world):
        return {}
    points_body = world_to_camera(pose, world.positions)
    points_camera = camera_frame_from_body(points_body)
    left_pixels, left_valid = rig.camera.project(points_camera)
    right_points = points_camera - np.array([rig.baseline, 0.0, 0.0])
    right_pixels, right_valid = rig.camera.project(right_points)
    max_depth = 40.0 if world.is_indoor else 80.0
    in_range = (points_camera[:, 2] > 0.3) & (points_camera[:, 2] < max_depth)
    valid = left_valid & right_valid & in_range

    observations: Dict[int, StereoObservation] = {}
    noise_std = self.config.pixel_noise_std
    for idx in np.nonzero(valid)[0]:
        left = left_pixels[idx] + rng.normal(0.0, noise_std, size=2)
        right = right_pixels[idx] + rng.normal(0.0, noise_std, size=2)
        landmark_id = int(world.landmark_ids[idx])
        observations[landmark_id] = StereoObservation(landmark_id, left, right)
    return observations


@dataclass
class _TrackObservation:
    """One stereo feature observation attached to a persistent track: the
    record the frontend handed every backend before its result became
    columns."""

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


@dataclass
class _RecordResult:
    """The frontend result as it was: a list of ``_TrackObservation`` records."""

    frame_index: int
    timestamp: float
    observations: List[_TrackObservation] = field(default_factory=list)
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


def _reference_frontend(**kwargs) -> VisualFrontend:
    """A frontend whose state the reference paths below read and write."""
    frontend = VisualFrontend(**kwargs)
    frontend._active_tracks = {}
    return frontend


def _reference_process_sparse(self, frame, rig: StereoRig) -> _RecordResult:
    """``VisualFrontend._process_sparse`` over ``frame.observations``, the
    per-landmark ``StereoObservation`` dict that frames carried before."""
    stopwatch = StopwatchCollector()
    previous_ids = set(self._active_tracks.keys())
    observations: List[_TrackObservation] = []
    new_ids: List[int] = []

    with stopwatch.measure("feature_extraction"):
        items = [
            (landmark_id, stereo_obs)
            for landmark_id, stereo_obs in frame.observations.items()
            if stereo_obs.left_pixel[0] - stereo_obs.right_pixel[0] >= self.config.min_disparity
        ]
        if len(items) > self.config.max_features:
            # Prefer close landmarks (larger disparity) as real detectors do.
            items.sort(key=lambda kv: kv[1].left_pixel[0] - kv[1].right_pixel[0], reverse=True)
            items = items[: self.config.max_features]

    with stopwatch.measure("stereo_matching"):
        if items:
            keep = self._rng.random(len(items)) >= self.dropout_probability
            kept = [item for item, keep_it in zip(items, keep) if keep_it]
        else:
            kept = []
        if kept:
            left_pixels = np.stack([stereo_obs.left_pixel for _, stereo_obs in kept])
            right_pixels = np.stack([stereo_obs.right_pixel for _, stereo_obs in kept])
            with profile_kernel("frontend.triangulation",
                                features=len(kept)):
                points_camera = rig.triangulate(left_pixels, right_pixels)
            points_body = body_frame_from_camera(points_camera)
            noise_stds = stereo_point_noise(
                points_camera[:, 2], rig.camera.fx, rig.baseline, self.config.assumed_pixel_noise
            )
            for i, (landmark_id, stereo_obs) in enumerate(kept):
                previous = self._active_tracks.get(landmark_id)
                observations.append(
                    _TrackObservation(
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
        keypoints_left=len(items),
        keypoints_right=len(items),
        descriptors_computed=2 * len(items),
        stereo_candidates=len(items),
        stereo_matches=len(observations),
        tracked_points=len(previous_ids),
        temporal_matches=temporal_matches,
    )
    return _RecordResult(
        frame_index=frame.index,
        timestamp=frame.timestamp,
        observations=observations,
        new_track_ids=new_ids,
        lost_track_ids=lost_ids,
        workload=workload,
        measured_ms=stopwatch.as_dict(),
    )


def _reference_process_dense(self, frame, rig: StereoRig) -> _RecordResult:
    """``VisualFrontend._process_dense`` building one record per match."""
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
        association = _reference_temporal_association(self, left_image, left_keypoints)

    observations: List[_TrackObservation] = []
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
            _TrackObservation(
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
    return _RecordResult(
        frame_index=frame.index,
        timestamp=frame.timestamp,
        observations=observations,
        new_track_ids=new_ids,
        lost_track_ids=lost_ids,
        workload=workload,
        measured_ms=stopwatch.as_dict(),
    )


def _reference_temporal_association(self, left_image: np.ndarray,
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


def _columns(observations: Dict[int, StereoObservation]) -> tuple:
    """The ids and left and right pixels of the dict form, in its order."""
    values = list(observations.values())
    return (np.array([obs.landmark_id for obs in values], dtype=np.int64),
            np.array([obs.left_pixel for obs in values]).reshape(-1, 2),
            np.array([obs.right_pixel for obs in values]).reshape(-1, 2))


def _column_bits(landmark_ids: np.ndarray, left_pixels: np.ndarray, right_pixels: np.ndarray) -> tuple:
    return tuple((column.dtype.str, column.shape, column.tobytes())
                 for column in (landmark_ids, left_pixels, right_pixels))


class _ReferenceTrajectory:
    """The scalar ``TrajectoryGenerator`` the array path replaced."""

    def __init__(
        self,
        position_fn: Callable[[float], np.ndarray],
        yaw_fn: Optional[Callable[[float], float]] = None,
        pitch: float = 0.0,
        roll: float = 0.0,
    ) -> None:
        self._position_fn = position_fn
        self._yaw_fn = yaw_fn
        self._pitch = pitch
        self._roll = roll

    def _yaw(self, t: float, dt: float = 1e-3) -> float:
        if self._yaw_fn is not None:
            return float(self._yaw_fn(t))
        # Face along the direction of travel.
        p0 = self._position_fn(t - dt)
        p1 = self._position_fn(t + dt)
        delta = np.asarray(p1) - np.asarray(p0)
        if np.linalg.norm(delta[:2]) < 1e-9:
            return 0.0
        return float(np.arctan2(delta[1], delta[0]))

    def sample(self, timestamp: float, dt: float = 1e-3) -> TrajectorySample:
        position = np.asarray(self._position_fn(timestamp), dtype=float).reshape(3)
        prev = np.asarray(self._position_fn(timestamp - dt), dtype=float).reshape(3)
        nxt = np.asarray(self._position_fn(timestamp + dt), dtype=float).reshape(3)
        velocity = (nxt - prev) / (2.0 * dt)
        acceleration = (nxt - 2.0 * position + prev) / (dt * dt)

        yaw = self._yaw(timestamp, dt)
        yaw_prev = self._yaw(timestamp - dt, dt)
        yaw_next = self._yaw(timestamp + dt, dt)
        yaw_rate = _reference_wrap_angle(yaw_next - yaw_prev) / (2.0 * dt)

        rotation = euler_to_rotation(yaw, self._pitch, self._roll)
        pose = Pose(rotation, position)
        angular_velocity = np.array([0.0, 0.0, yaw_rate])
        return TrajectorySample(
            timestamp=timestamp,
            pose=pose,
            velocity=velocity,
            acceleration=acceleration,
            angular_velocity=angular_velocity,
        )

    def sample_range(self, duration: float, rate_hz: float, start: float = 0.0) -> List[TrajectorySample]:
        count = int(round(duration * rate_hz))
        timestamps = start + np.arange(count) / rate_hz
        return [self.sample(float(t)) for t in timestamps]


def _reference_wrap_angle(angle: float) -> float:
    return float((angle + np.pi) % (2.0 * np.pi) - np.pi)


def _reference_circle(radius=10.0, period=60.0, height=0.0):
    omega = 2.0 * np.pi / period

    def position(t: float) -> np.ndarray:
        return np.array([radius * np.cos(omega * t), radius * np.sin(omega * t), height])

    return _ReferenceTrajectory(position)


def _reference_figure_eight(scale=6.0, period=40.0, height=1.2, vertical_amplitude=0.3):
    omega = 2.0 * np.pi / period

    def position(t: float) -> np.ndarray:
        return np.array(
            [
                scale * np.sin(omega * t),
                scale * np.sin(omega * t) * np.cos(omega * t),
                height + vertical_amplitude * np.sin(2.0 * omega * t),
            ]
        )

    return _ReferenceTrajectory(position)


def _reference_straight(speed=8.0, lateral_wiggle=0.5, wiggle_period=20.0, height=1.5):
    omega = 2.0 * np.pi / wiggle_period

    def position(t: float) -> np.ndarray:
        return np.array([speed * t, lateral_wiggle * np.sin(omega * t), height])

    return _ReferenceTrajectory(position)


def _reference_warehouse(aisle_length=20.0, aisle_spacing=4.0, speed=1.5, height=0.4):
    segment_time = aisle_length / speed
    cross_time = aisle_spacing / speed
    cycle = 2.0 * (segment_time + cross_time)

    def position(t: float) -> np.ndarray:
        phase = t % cycle
        lane_pair = int(t // cycle)
        base_y = 2.0 * aisle_spacing * lane_pair
        if phase < segment_time:
            return np.array([phase * speed, base_y, height])
        phase -= segment_time
        if phase < cross_time:
            return np.array([aisle_length, base_y + phase * speed, height])
        phase -= cross_time
        if phase < segment_time:
            return np.array([aisle_length - phase * speed, base_y + aisle_spacing, height])
        phase -= segment_time
        return np.array([0.0, base_y + aisle_spacing + phase * speed, height])

    return _ReferenceTrajectory(position)


def _reference_measure(self, truth: TrajectorySample, dt: float) -> _ImuSample:
    rotation_world_to_body = truth.pose.rotation.T
    # Specific force: measured acceleration minus gravity, in body frame.
    specific_force = rotation_world_to_body @ (truth.acceleration - GRAVITY)
    angular_velocity = rotation_world_to_body @ truth.angular_velocity

    # Bias random walks.
    self.gyro_bias = self.gyro_bias + self._rng.normal(0.0, self.gyro_bias_walk * np.sqrt(dt), size=3)
    self.accel_bias = self.accel_bias + self._rng.normal(0.0, self.accel_bias_walk * np.sqrt(dt), size=3)

    noisy_gyro = angular_velocity + self.gyro_bias + self._rng.normal(0.0, self.gyro_noise, size=3)
    noisy_accel = specific_force + self.accel_bias + self._rng.normal(0.0, self.accel_noise, size=3)
    return _ImuSample(
        timestamp=truth.timestamp,
        angular_velocity=noisy_gyro,
        linear_acceleration=noisy_accel,
    )


def _reference_build(self, scenario, reference_trajectory: _ReferenceTrajectory,
                     start_time: float = 0.0, start_index: int = 0, seed_offset: int = 0,
                     world_seed: Optional[int] = None, world_mutator=None):
    """``SequenceBuilder.build`` as it was, sampling ``reference_trajectory``
    (the scalar twin of ``scenario.trajectory``), measuring through
    ``_reference_measure`` and observing through ``_reference_observe``; each
    frame's batch of IMU samples is stacked into the frame's IMU columns.
    Returns its IMU and GPS simulators and its
    pixel-noise generator alongside the sequence."""
    config = self.config
    camera = self._camera()
    rig = StereoRig(camera=camera, baseline=config.stereo_baseline)
    seed = config.seed + seed_offset

    frame_count = segment_frame_count(scenario.duration, config.camera_rate_hz)
    frame_times = start_time + np.arange(frame_count) / config.camera_rate_hz

    # Sample the trajectory densely first so the world hugs the path.
    truth_per_frame: List[TrajectorySample] = [
        reference_trajectory.sample(float(t - start_time)) for t in frame_times
    ]
    path_points = np.array([s.pose.translation for s in truth_per_frame])
    effective_world_seed = seed if world_seed is None else int(world_seed)
    if scenario.is_indoor:
        world = LandmarkWorld.indoor(path_points, count=scenario.landmark_count,
                                     seed=effective_world_seed)
    else:
        world = LandmarkWorld.outdoor(path_points, count=scenario.landmark_count,
                                      seed=effective_world_seed)
    if world_mutator is not None:
        world = world_mutator(world)

    imu = ImuSimulator(
        gyro_noise=config.imu_gyro_noise * scenario.imu_noise_scale,
        accel_noise=config.imu_accel_noise * scenario.imu_noise_scale,
        gyro_bias_walk=config.imu_gyro_bias_walk * scenario.imu_bias_scale,
        accel_bias_walk=config.imu_accel_bias_walk * scenario.imu_bias_scale,
        seed=seed + 1,
    )
    gps = GpsSimulator(
        noise_std=config.gps_noise_std,
        outage_probability=max(config.gps_outage_probability, scenario.gps_outage_probability),
        indoor=not scenario.has_gps,
        seed=seed + 2,
    )
    renderer = ImageRenderer(camera, config.stereo_baseline, seed=seed + 3) if self.render_images else None
    rng = np.random.default_rng(seed + 4)

    imu_dt = 1.0 / config.imu_rate_hz
    frames: List[Frame] = []
    for i, truth in enumerate(truth_per_frame):
        timestamp = float(frame_times[i])
        landmark_ids, left_pixels, right_pixels = _columns(
            _reference_observe(self, truth.pose, world, rig, rng))
        imu_batch: List[_ImuSample] = []
        if i > 0:
            previous_time = float(frame_times[i - 1])
            steps = max(1, int(round((timestamp - previous_time) / imu_dt)))
            for step in range(steps + 1):
                t = previous_time + step * (timestamp - previous_time) / steps
                sub_truth = reference_trajectory.sample(t - start_time)
                sub_truth = TrajectorySample(
                    timestamp=t,
                    pose=sub_truth.pose,
                    velocity=sub_truth.velocity,
                    acceleration=sub_truth.acceleration,
                    angular_velocity=sub_truth.angular_velocity,
                )
                imu_batch.append(_reference_measure(imu, sub_truth, (timestamp - previous_time) / steps))
        gps_sample = gps.measure(timestamp, truth.pose) if scenario.has_gps else None

        frame = Frame(
            index=start_index + i,
            timestamp=timestamp,
            ground_truth=truth.pose,
            landmark_ids=landmark_ids,
            left_pixels=left_pixels,
            right_pixels=right_pixels,
            **_imu_columns(imu_batch),
            gps=gps_sample,
            scenario=scenario.kind,
            ground_truth_velocity=truth.velocity,
        )
        if renderer is not None:
            frame.left_image, frame.right_image = renderer.render(truth.pose, world, frame_index=i)
        frames.append(frame)

    sequence = SyntheticSequence(
        frames=frames,
        world=world,
        rig=rig,
        scenario=scenario.kind,
        config=config,
        has_prebuilt_map=scenario.has_map,
    )
    return sequence, imu, gps, rng


class _ReferenceMapper(KeyframeMapper):
    """The window bundle adjustment before its exact trims: residuals computed
    twice per accepted iteration, a full copy of every landmark per step, a
    step written into the keyframe poses and landmark dict and read back
    from them, normal blocks assembled anew for every solve, and
    ``np.add.at`` scatters; its keyframes are built from records.  The reduced
    system goes through the same solver as the code under test
    (``solve_spd``), so the comparison stays byte for byte."""

    def insert_keyframe(self, frontend: _RecordResult, pose_guess: Pose) -> SlamWorkload:
        """Add a keyframe, run the solver, and marginalize if needed."""
        stopwatch = StopwatchCollector()
        workload = SlamWorkload()

        with stopwatch.measure("init"):
            keyframe = Keyframe(
                frame_index=frontend.frame_index,
                timestamp=frontend.timestamp,
                pose=pose_guess.copy(),
                observations={obs.track_id: obs.point_body.copy() for obs in frontend.observations},
                observation_sigma={obs.track_id: max(float(np.mean(obs.noise_std)), 1e-3)
                                   for obs in frontend.observations},
            )
            self.keyframes.append(keyframe)
            self._initialize_landmarks(keyframe)

        with stopwatch.measure("solver"):
            with profile_kernel("slam.bundle_adjustment",
                                keyframes=len(self.keyframes)):
                iterations = self._optimize(workload)
            workload.solver_iterations = iterations

        with stopwatch.measure("marginalization"):
            if len(self.keyframes) > self.config.window_size:
                with profile_kernel("slam.marginalization"):
                    self._marginalize_oldest(workload)

        workload.keyframes = len(self.keyframes)
        workload.landmarks = len(self.landmarks)
        workload.observations = sum(len(kf.observations) for kf in self.keyframes)
        self.last_workload = workload
        self.last_kernel_ms = stopwatch.as_dict()
        return workload

    def _optimize(self, workload: SlamWorkload) -> int:
        """Levenberg-Marquardt over window poses and landmarks (Schur trick)."""
        landmark_ids = self._window_landmark_ids()
        if len(self.keyframes) < 2 or not landmark_ids:
            return 0
        gathered = self._gather_window(landmark_ids)
        if gathered is None:
            return 0
        damping = self.config.initial_damping
        previous_cost = self._total_cost(landmark_ids, gathered)
        iterations = 0
        for _ in range(self.config.max_iterations):
            iterations += 1
            step = self._solve_normal_equations(landmark_ids, damping, workload, gathered)
            if step is None:
                break
            pose_deltas, landmark_deltas = step
            backup = self._snapshot()
            self._apply_step(landmark_ids, pose_deltas, landmark_deltas)
            cost = self._total_cost(landmark_ids, gathered)
            if cost < previous_cost:
                damping = max(damping * self.config.damping_down, 1e-9)
                if previous_cost - cost < self.config.convergence_tolerance * max(previous_cost, 1.0):
                    previous_cost = cost
                    break
                previous_cost = cost
            else:
                self._restore(backup)
                damping *= self.config.damping_up
        return iterations

    def _apply_step(self, landmark_ids: List[int], pose_delta: np.ndarray,
                    landmark_deltas: Dict[int, np.ndarray]) -> None:
        for k_index, keyframe in enumerate(self.keyframes):
            delta = pose_delta[6 * k_index : 6 * k_index + 6]
            keyframe.pose = Pose(
                so3_exp(delta[:3]) @ keyframe.pose.rotation,
                keyframe.pose.translation + delta[3:],
            )
        for track_id in landmark_ids:
            self.landmarks[track_id] = self.landmarks[track_id] + landmark_deltas[track_id]

    def _batched_residuals(self, gathered: Tuple[np.ndarray, ...],
                           landmark_ids: List[int]) -> Tuple[np.ndarray, ...]:
        """Residuals and Huber weights for every gathered observation at once."""
        kf_idx, lm_idx, meas, sigma = gathered
        rotations = np.stack([kf.pose.rotation for kf in self.keyframes])
        translations = np.stack([kf.pose.translation for kf in self.keyframes])
        landmarks = np.stack([self.landmarks[track_id] for track_id in landmark_ids])
        rot = rotations[kf_idx]                                   # (n, 3, 3)
        delta = landmarks[lm_idx] - translations[kf_idx]          # (n, 3)
        predicted = np.einsum("nji,nj->ni", rot, delta)           # R^T (l - t)
        residual = meas - predicted
        base = 1.0 / sigma**2
        norm = np.linalg.norm(residual, axis=1) / sigma
        weight = np.where(
            norm <= self.config.huber_delta,
            base,
            base * self.config.huber_delta / np.maximum(norm, 1e-12),
        )
        return rot, delta, residual, weight

    def _snapshot(self):
        return (
            [(kf.pose.rotation.copy(), kf.pose.translation.copy()) for kf in self.keyframes],
            {k: v.copy() for k, v in self.landmarks.items()},
        )

    def _restore(self, backup) -> None:
        poses, landmarks = backup
        for keyframe, (rotation, translation) in zip(self.keyframes, poses):
            keyframe.pose = Pose(rotation, translation)
        self.landmarks = landmarks

    def _assemble_normal_blocks(self, gathered: Tuple[np.ndarray, ...],
                                landmark_ids: List[int]) -> Tuple[np.ndarray, ...]:
        """Accumulate the weighted Gauss-Newton blocks for all observations.

        Returns ``(pose_blocks, cross_blocks, landmark_blocks, b_pose,
        b_landmark)``: per-keyframe 6x6 diagonal blocks, per-(keyframe,
        landmark) 6x3 cross blocks, per-landmark 3x3 diagonal blocks, and the
        negated gradient halves.  Shared by the solver and marginalization so
        the two linearizations can never drift apart.
        """
        kf_idx, lm_idx, _, _ = gathered
        pose_count = len(self.keyframes)
        landmark_count = len(landmark_ids)
        rot, delta, residual, weight = self._batched_residuals(gathered, landmark_ids)
        j_pose, j_landmark = self._batched_jacobians(rot, delta)
        w = weight[:, None, None]

        pose_blocks = np.zeros((pose_count, 6, 6))
        cross_blocks = np.zeros((pose_count, landmark_count, 6, 3))
        landmark_blocks = np.zeros((landmark_count, 3, 3))
        b_pose = np.zeros((pose_count, 6))
        b_landmark = np.zeros((landmark_count, 3))
        np.add.at(pose_blocks, kf_idx, w * np.einsum("nki,nkj->nij", j_pose, j_pose))
        np.add.at(cross_blocks, (kf_idx, lm_idx),
                  w * np.einsum("nki,nkj->nij", j_pose, j_landmark))
        np.add.at(landmark_blocks, lm_idx,
                  w * np.einsum("nki,nkj->nij", j_landmark, j_landmark))
        np.add.at(b_pose, kf_idx,
                  -weight[:, None] * np.einsum("nki,nk->ni", j_pose, residual))
        np.add.at(b_landmark, lm_idx,
                  -weight[:, None] * np.einsum("nki,nk->ni", j_landmark, residual))
        return pose_blocks, cross_blocks, landmark_blocks, b_pose, b_landmark

    def _total_cost(self, landmark_ids: List[int],
                    gathered: Optional[Tuple[np.ndarray, ...]] = None) -> float:
        if gathered is None:
            gathered = self._gather_window(landmark_ids)
        if gathered is None:
            return 0.0
        _, _, residual, weight = self._batched_residuals(gathered, landmark_ids)
        return float(np.sum(weight * np.einsum("ni,ni->n", residual, residual)))

    def _solve_normal_equations(self, landmark_ids: List[int], damping: float,
                                workload: SlamWorkload,
                                gathered: Optional[Tuple[np.ndarray, ...]] = None,
                                ) -> Optional[Tuple[np.ndarray, Dict[int, np.ndarray]]]:
        """Build and solve the damped normal equations with a Schur complement."""
        pose_count = len(self.keyframes)
        pose_dim = 6 * pose_count
        landmark_count = len(landmark_ids)
        landmark_dim = 3 * landmark_count
        landmark_index = {track_id: i for i, track_id in enumerate(landmark_ids)}

        if gathered is None:
            gathered = self._gather_window(landmark_ids)
        if gathered is not None:
            pose_blocks, cross_blocks, landmark_blocks, b_pose, b_landmark = (
                self._assemble_normal_blocks(gathered, landmark_ids)
            )
        else:
            pose_blocks = np.zeros((pose_count, 6, 6))
            cross_blocks = np.zeros((pose_count, landmark_count, 6, 3))
            landmark_blocks = np.zeros((landmark_count, 3, 3))
            b_pose = np.zeros((pose_count, 6))
            b_landmark = np.zeros((landmark_count, 3))

        h_pp = self._block_diagonal(pose_blocks)
        h_pl = cross_blocks.transpose(0, 2, 1, 3).reshape(pose_dim, landmark_dim)
        b_p = b_pose.reshape(-1)
        b_l = b_landmark.reshape(-1)

        # Gauge fixing: anchor the first keyframe with a strong prior.
        h_pp[:6, :6] += np.eye(6) * 1e8
        # Marginalization prior from previously removed keyframes.
        self._apply_prior(h_pp, b_p)

        h_pp += np.eye(pose_dim) * damping
        landmark_blocks += np.eye(3) * damping

        workload.hessian_dim = max(workload.hessian_dim, pose_dim + landmark_dim)

        try:
            # Schur complement over landmarks: H_ll is block diagonal (3x3), so
            # its inverse is one batched 3x3 inversion.
            h_ll_inv = self._block_diagonal(batched_symmetric_inverse(landmark_blocks))
            h_pl_h_ll_inv = matmul(h_pl, h_ll_inv)
            reduced_h = h_pp - matmul(h_pl_h_ll_inv, transpose(h_pl))
            reduced_b = b_p - h_pl_h_ll_inv @ b_l
            pose_delta = solve_spd(reduced_h + np.eye(pose_dim) * 1e-9, reduced_b)
            landmark_delta_vec = h_ll_inv @ (b_l - h_pl.T @ pose_delta)
        except np.linalg.LinAlgError:
            return None

        landmark_deltas = {
            track_id: landmark_delta_vec[3 * i : 3 * i + 3] for track_id, i in landmark_index.items()
        }
        return pose_delta, landmark_deltas

    def _marginalize_oldest(self, workload: SlamWorkload) -> None:
        """Marginalize the oldest keyframe and its exclusive landmarks."""
        departing = self.keyframes[0]
        remaining_frames = [kf.frame_index for kf in self.keyframes[1:]]

        # Landmarks observed only by the departing keyframe are simply dropped
        # (they carry no information about the remaining states); landmarks it
        # shares with the window are marginalized through the Schur complement.
        shared_landmarks = [
            track_id for track_id in departing.observations
            if track_id in self.landmarks
            and any(track_id in kf.observations for kf in self.keyframes[1:])
        ]
        exclusive = [
            track_id for track_id in departing.observations
            if track_id in self.landmarks and track_id not in shared_landmarks
        ]
        workload.feature_points = len(departing.observations)

        # Build a small linearized system over (departing pose, shared landmarks,
        # remaining poses) and marginalize the first two groups.
        pose_count = len(self.keyframes)
        landmark_count = len(shared_landmarks)
        pose_dim = 6 * pose_count
        landmark_dim = 3 * landmark_count
        total_dim = pose_dim + landmark_dim
        hessian = np.zeros((total_dim, total_dim))
        gradient = np.zeros(total_dim)

        gathered = self._gather_window(shared_landmarks) if shared_landmarks else None
        if gathered is not None:
            pose_blocks, cross_blocks, landmark_blocks, b_pose, b_landmark = (
                self._assemble_normal_blocks(gathered, shared_landmarks)
            )
            cross = cross_blocks.transpose(0, 2, 1, 3).reshape(pose_dim, landmark_dim)
            hessian[:pose_dim, :pose_dim] = self._block_diagonal(pose_blocks)
            hessian[:pose_dim, pose_dim:] = cross
            hessian[pose_dim:, :pose_dim] = cross.T
            hessian[pose_dim:, pose_dim:] = self._block_diagonal(landmark_blocks)
            gradient[:pose_dim] = b_pose.reshape(-1)
            gradient[pose_dim:] = b_landmark.reshape(-1)

        marginalize_indices = list(range(0, 6)) + list(range(pose_dim, total_dim))
        result: MarginalizationResult = marginalize_schur(hessian, gradient, marginalize_indices)
        workload.marginalized_dim = result.marginalized_dim

        self._prior_hessian = result.hessian
        self._prior_gradient = result.gradient
        self._prior_frames = remaining_frames

        for track_id in exclusive:
            # Exclusive landmarks leave the active map but stay available to
            # the tracking block as part of the persisted map.
            pass
        self.keyframes.pop(0)


@dataclass
class _TrackRecord:
    """Accumulated body-frame observations of one track across clones."""

    track_id: int
    observations: List[Tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)

    def add(self, frame_index: int, point_body: np.ndarray, noise_std: np.ndarray) -> None:
        self.observations.append(
            (
                frame_index,
                np.asarray(point_body, dtype=float).reshape(3),
                np.asarray(noise_std, dtype=float).reshape(3),
            )
        )

    @property
    def length(self) -> int:
        return len(self.observations)


class _ReferenceMsckf(Msckf):
    """The MSCKF's readers over records: one ``_TrackRecord`` per track.  The
    records' arrays feed the same update kernel as the code under test."""

    def _record_observations(self, frontend: _RecordResult) -> None:
        for obs in frontend.observations:
            record = self._tracks.setdefault(obs.track_id, _TrackRecord(obs.track_id))
            record.add(frontend.frame_index, obs.point_body, obs.noise_std)

    def _select_update_tracks(self, frontend: _RecordResult) -> List[_TrackRecord]:
        """Tracks that are lost this frame or have spanned the full window."""
        current_ids = set(frontend.track_ids)
        clone_frames = {clone.frame_index for clone in self.state.clones}
        finished: List[_TrackRecord] = []
        for track_id in list(self._tracks.keys()):
            record = self._tracks[track_id]
            # Keep only observations that still have a clone in the window.
            record.observations = [
                (frame, point, noise) for frame, point, noise in record.observations
                if frame in clone_frames
            ]
            if not record.observations:
                del self._tracks[track_id]
                continue
            lost = track_id not in current_ids
            saturated = record.length >= self.config.window_size
            if (lost or saturated) and record.length >= self.config.min_track_for_update:
                finished.append(record)
                del self._tracks[track_id]
        finished.sort(key=lambda r: r.length, reverse=True)
        return finished[: self.config.max_features_per_update]

    def _clone_observation_arrays(self, record: _TrackRecord) -> Optional[Tuple[np.ndarray, ...]]:
        """Gather a track's observations that still have a clone in the window.

        Returns ``(clone_indices, points_body, noise_std)`` as arrays, or None
        when no observation matches a clone.
        """
        index_by_frame = {clone.frame_index: i for i, clone in enumerate(self.state.clones)}
        rows = [
            (index_by_frame[frame_index], point_body, noise_std)
            for frame_index, point_body, noise_std in record.observations
            if frame_index in index_by_frame
        ]
        if not rows:
            return None
        clone_idx = np.array([row[0] for row in rows])
        points = np.array([row[1] for row in rows])
        noise = np.array([row[2] for row in rows])
        return clone_idx, points, noise

    def _gather_tracks(self, records: List[_TrackRecord]) -> Tuple[np.ndarray, ...]:
        """``Msckf._gather_tracks``'s columns, stacked from the per-record arrays."""
        gathered = [self._clone_observation_arrays(record) for record in records]
        return (np.array([arrays[0].size for arrays in gathered]),
                *(np.concatenate(column) for column in zip(*gathered)))


def _reference_synthetic_descriptors(observations: List[_TrackObservation],
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


@dataclass
class _Landmark:
    """A persistent 3-D point with a stable appearance identity: one row of
    the world before ``LandmarkWorld`` became columns."""

    landmark_id: int
    position: np.ndarray
    appearance_seed: int

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3)


def _reference_corridor(trajectory_points: np.ndarray, count: int, lateral_spread: float,
                        height_spread: float, seed: int = 0, forward_spread: float = 5.0):
    """``LandmarkWorld.corridor`` as it was, one ``_Landmark`` and one scalar
    seed draw at a time; returns the landmarks and the generator."""
    rng = np.random.default_rng(seed)
    trajectory_points = np.asarray(trajectory_points, dtype=float).reshape(-1, 3)
    anchors = trajectory_points[rng.integers(0, len(trajectory_points), size=count)]
    offsets = np.stack(
        [
            rng.uniform(-forward_spread, forward_spread, size=count),
            rng.choice([-1.0, 1.0], size=count) * rng.uniform(0.3 * lateral_spread, lateral_spread, size=count),
            rng.uniform(-0.2 * height_spread, height_spread, size=count),
        ],
        axis=1,
    )
    positions = anchors + offsets
    landmarks = [
        _Landmark(landmark_id=i, position=positions[i], appearance_seed=int(rng.integers(0, 2**31 - 1)))
        for i in range(count)
    ]
    return landmarks, rng


def _landmark_rows(world: LandmarkWorld) -> List[_Landmark]:
    return [_Landmark(landmark_id, position, appearance_seed) for landmark_id, position, appearance_seed
            in zip(world.landmark_ids.tolist(), world.positions, world.appearance_seeds.tolist())]


def _reference_drift_world(landmarks: List[_Landmark], drift_m: float, fraction: float, seed: int = 0):
    """``drift_world`` as it was, one ``_Landmark`` at a time; returns the
    landmarks and the generator (None when nothing is drawn)."""
    fraction = float(np.clip(fraction, 0.0, 1.0))
    if drift_m <= 0.0 or fraction <= 0.0 or not len(landmarks):
        return landmarks, None
    rng = np.random.default_rng(seed)
    moved = rng.random(len(landmarks)) < fraction
    offsets = rng.normal(0.0, drift_m, size=(len(landmarks), 3))
    landmarks = [
        _Landmark(
            landmark_id=landmark.landmark_id,
            position=(landmark.position + offsets[i] if moved[i]
                      else landmark.position),
            appearance_seed=landmark.appearance_seed,
        )
        for i, landmark in enumerate(landmarks)
    ]
    return landmarks, rng


@dataclass
class _MapPoint:
    """One point of a localization map: the row type of ``LocalizationMap``
    before it became columns."""

    point_id: int
    position: np.ndarray
    descriptor: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3)


class _ReferenceMap:
    """``LocalizationMap`` as it was, a dict of ``_MapPoint``s that stacks
    its positions on every read and grows point by point, and as
    ``_ReferenceTracker``'s update stage reads it.

    ``vocabulary`` is None (no update) or a stand-in that is only
    ``trained``: the update stage then draws the frame's track descriptors
    and hands them to ``add_keyframe``, which keeps them with the pose.  The
    keyframe database they once fed is gone; no reader ever queried it.
    """

    def __init__(self, points: Optional[List[_MapPoint]] = None, vocabulary=None) -> None:
        self.points: Dict[int, _MapPoint] = {p.point_id: p for p in (points or [])}
        self.vocabulary = vocabulary
        self.keyframes: List[Tuple[int, Pose, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self.points)

    @property
    def positions(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, 3))
        return np.array([p.position for p in self.points.values()])

    def descriptors(self) -> Tuple[List[int], np.ndarray]:
        """The ids of the points that carry a descriptor, and their descriptors."""
        items = [p for p in self.points.values() if p.descriptor is not None]
        if not items:
            return [], np.zeros((0, 32), dtype=np.uint8)
        return [p.point_id for p in items], np.stack([p.descriptor for p in items])

    def add_point(self, point: _MapPoint) -> None:
        self.points[point.point_id] = point

    def update_point(self, point_id: int, position: np.ndarray) -> None:
        if point_id in self.points:
            self.points[point_id].position = np.asarray(position, dtype=float).reshape(3)
        else:
            self.add_point(_MapPoint(point_id, position))

    def add_keyframe(self, keyframe_id: int, pose: Pose, descriptors: np.ndarray) -> None:
        self.keyframes.append((keyframe_id, pose.copy(), descriptors))


def _reference_from_world(landmarks: List[_Landmark], position_noise: float = 0.05,
                          position_bias_std: float = 0.0, seed: int = 0, vocabulary=None):
    """``LocalizationMap.from_world`` as it was, one ``_MapPoint`` and one
    noise draw at a time; returns the map and the generator."""
    rng = np.random.default_rng(seed)
    bias = rng.normal(0.0, position_bias_std, size=3) if position_bias_std > 0.0 else np.zeros(3)
    points = []
    for landmark in landmarks:
        noisy = landmark.position + bias + rng.normal(0.0, position_noise, size=3)
        descriptor = descriptor_from_seed(landmark.landmark_id * 2654435761 % (2**31))
        points.append(_MapPoint(landmark.landmark_id, noisy, descriptor))
    return _ReferenceMap(points, vocabulary=vocabulary), rng


class _ReferenceTracker(MapTracker):
    """Registration's readers over records: correspondences as 4-tuples,
    and the update stage that drew descriptors for a keyframe database."""

    def track(self, frontend: _RecordResult, localization_map: LocalizationMap,
              prior_pose: Optional[Pose] = None) -> Tuple[Optional[Pose], RegistrationWorkload]:
        """Estimate the frame pose; returns (pose, workload)."""
        stopwatch = StopwatchCollector()
        workload = RegistrationWorkload(map_points=len(localization_map))
        prior = prior_pose or Pose.identity()

        with stopwatch.measure("projection"):
            projected = self._project_map(localization_map, prior)
            workload.projected_points = projected.shape[1] if projected.size else 0

        with stopwatch.measure("match"):
            correspondences = self._match(frontend, localization_map)
            workload.matches = len(correspondences)

        pose: Optional[Pose] = None
        with stopwatch.measure("pose_optimization"):
            if len(correspondences) >= self.config.min_inliers:
                pose, inliers, iterations = self._estimate_pose(correspondences)
                workload.inliers = inliers
                workload.pose_iterations = iterations

        # Stash the basis for the fleet map-update lifecycle's per-landmark
        # evidence; the triples are derived lazily (see
        # last_map_observations) so frames nobody asks about cost nothing.
        self._observation_basis = ((pose, correspondences)
                                   if pose is not None and correspondences else None)
        self._map_observations = None

        with stopwatch.measure("update"):
            if pose is not None and localization_map.vocabulary is not None and localization_map.vocabulary.trained:
                descriptors = self._track_descriptors(frontend)
                if descriptors.shape[0] > 0:
                    localization_map.add_keyframe(frontend.frame_index, pose, descriptors)

        self.last_workload = workload
        self.last_kernel_ms = stopwatch.as_dict()
        return pose, workload

    @property
    def last_map_observations(self) -> List[Tuple[int, np.ndarray, float]]:
        """Per-landmark evidence of the last tracked frame, computed lazily.

        ``(map point id, observed world position — the body point through
        the solved pose — residual against the map)`` triples; empty when
        tracking failed.  The serving layer's map-update lifecycle is the
        only consumer, so the array work happens on first access per frame
        (cached until the next :meth:`track`), not on every tracked frame
        of every experiment.
        """
        if self._map_observations is None:
            basis = self._observation_basis
            if basis is None:
                self._map_observations = []
            else:
                pose, correspondences = basis
                body = np.array([c[1] for c in correspondences])
                world = np.array([c[2] for c in correspondences])
                observed = pose.transform_points(body)
                residuals = np.linalg.norm(observed - world, axis=1)
                self._map_observations = [
                    (int(c[0]), observed[i], float(residuals[i]))
                    for i, c in enumerate(correspondences)
                ]
        return self._map_observations

    def _track_descriptors(self, frontend: _RecordResult) -> np.ndarray:
        return _reference_synthetic_descriptors(
            frontend.observations, self.DESCRIPTOR_NOISE_BITS, self._descriptor_rng)

    def _match(self, frontend: _RecordResult,
               localization_map: LocalizationMap) -> List[Tuple[int, np.ndarray, np.ndarray, float]]:
        """Associate observations to map points.

        Returns (map point id, body point, map point, noise std) tuples,
        where the noise std summarises the stereo triangulation uncertainty
        of the body point.
        """
        correspondences: List[Tuple[int, np.ndarray, np.ndarray, float]] = []
        matched_by_id = 0
        for obs in frontend.observations:
            map_point = localization_map.points.get(obs.track_id)
            if map_point is not None:
                correspondences.append(
                    (map_point.point_id, obs.point_body, map_point.position, obs.depth_std))
                matched_by_id += 1
        if matched_by_id >= self.config.min_inliers:
            return correspondences

        # Fall back to descriptor matching (needed when track identities do not
        # align with map identities, e.g. dense-frontend relocalization).
        descriptors = self._track_descriptors(frontend)
        map_ids, map_descriptors = localization_map.descriptors()
        if descriptors.shape[0] == 0 or map_descriptors.shape[0] == 0:
            return correspondences
        distances = hamming_distance_matrix(descriptors, map_descriptors)
        for i, obs in enumerate(frontend.observations):
            j = int(np.argmin(distances[i]))
            if distances[i, j] <= 64:
                correspondences.append(
                    (map_ids[j], obs.point_body,
                     localization_map.points[map_ids[j]].position, obs.depth_std)
                )
        return correspondences

    def _estimate_pose(self, correspondences: List[Tuple[int, np.ndarray, np.ndarray, float]]) -> Tuple[Pose, int, int]:
        """Robust absolute-orientation estimation from 3-D/3-D matches."""
        body = np.array([c[1] for c in correspondences])
        world = np.array([c[2] for c in correspondences])
        sigma = np.maximum(np.array([c[3] for c in correspondences]), 1e-3)
        base_weights = 1.0 / sigma**2
        weights = base_weights.copy()
        pose = Pose.identity()
        iterations = 0
        inliers = len(correspondences)
        for iteration in range(self.config.pnp_iterations):
            iterations += 1
            pose = _weighted_horn(body, world, weights)
            predicted = pose.transform_points(body)
            errors = np.linalg.norm(predicted - world, axis=1)
            threshold = self.config.pnp_inlier_threshold * np.maximum(sigma, 0.05)
            inlier_mask = errors <= threshold
            inliers = int(inlier_mask.sum())
            new_weights = base_weights * inlier_mask.astype(float)
            if inliers < self.config.min_inliers:
                new_weights = base_weights
                inliers = len(correspondences)
            if np.allclose(new_weights, weights):
                break
            weights = new_weights
        return pose, inliers, iterations


class _ReferenceSlam(SlamBackend):
    """SLAM's readers over records: the odometry's previous points and sigmas
    as dicts, the coverage count, ``_ReferenceMapper``'s keyframes and the
    tracking map synced from the mapper point by point on every frame."""

    def __init__(self, config: Optional[BackendConfig] = None, camera=None) -> None:
        super().__init__(config, camera)
        self.mapper = _ReferenceMapper(self.config.mapping)
        self.tracker = _ReferenceTracker(self.config.tracking, camera=camera)
        self.map = _ReferenceMap()
        self._previous_points: Dict[int, np.ndarray] = {}
        self._previous_sigmas: Dict[int, float] = {}

    def process(self, frontend: _RecordResult, frame: Frame) -> BackendResult:
        """Track against the latest map, inserting keyframes as needed."""
        if not self._initialized:
            self.initialize(frame.ground_truth)

        stopwatch = StopwatchCollector()
        kernel_ms: Dict[str, float] = {}
        workload = SlamWorkload()

        with stopwatch.measure("others"):
            self._sync_map_from_mapper()
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
            latest = self.mapper.latest_pose()
            if latest is not None:
                pose = latest

        kernel_ms.update(stopwatch.as_dict())
        # Ensure the canonical kernel names always appear in the breakdown.
        kernel_ms.setdefault("solver", 0.0)
        kernel_ms.setdefault("marginalization", 0.0)
        kernel_ms.setdefault("init", 0.0)

        self._last_pose = pose.copy()
        self._previous_points = {obs.track_id: obs.point_body.copy() for obs in frontend.observations}
        self._previous_sigmas = {obs.track_id: float(np.mean(obs.noise_std)) for obs in frontend.observations}
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

    def _sync_map_from_mapper(self) -> None:
        """Refresh the tracking map with the mapper's latest landmark estimates."""
        for track_id, position in self.mapper.landmarks.items():
            self.map.update_point(track_id, position)

    def _map_coverage(self, frontend: _RecordResult) -> float:
        """Fraction of the current observations already present in the map."""
        if not frontend.observations:
            return 0.0
        known = sum(1 for obs in frontend.observations if obs.track_id in self.mapper.landmarks)
        return known / len(frontend.observations)

    def _visual_odometry_prediction(self, frontend: _RecordResult) -> Pose:
        """Predict the pose from frame-to-frame motion of common tracks.

        When the view is feature-poor (fewer than a handful of common tracks)
        the frame-to-frame estimate is unreliable, so a constant-velocity
        model (replaying the previous relative motion) bridges the gap.
        """
        if self._last_pose is None:
            return Pose.identity()
        if not self._previous_points:
            return self._last_pose.copy()
        current, previous, weights = [], [], []
        for obs in frontend.observations:
            if obs.track_id in self._previous_points:
                current.append(obs.point_body)
                previous.append(self._previous_points[obs.track_id])
                sigma = max(self._previous_sigmas.get(obs.track_id, 0.1), float(np.mean(obs.noise_std)), 1e-3)
                weights.append(1.0 / sigma**2)
        if len(current) < 8:
            if self._last_relative is not None:
                return self._last_pose.compose(self._last_relative)
            return self._last_pose.copy()
        # Relative motion: previous-body-frame point = R_rel @ current + t_rel.
        relative = _weighted_horn(np.asarray(current), np.asarray(previous), np.asarray(weights))
        self._last_relative = relative
        return self._last_pose.compose(relative)



def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


# ------------------------------------------------------ descriptor_from_seed


class TestDescriptorFromSeed:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           bits=st.sampled_from([8, 64, 256]),
           noise_bits=st.integers(min_value=0, max_value=300),
           rng_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_and_rng_state(self, seed, bits, noise_bits, rng_seed):
        rng_new = np.random.default_rng(rng_seed)
        rng_ref = np.random.default_rng(rng_seed)
        for _ in range(2):  # the first call may miss the memo, the second hits
            got = descriptor_from_seed(seed, bits=bits, noise_bits=noise_bits, rng=rng_new)
            expected = _reference_descriptor_from_seed(seed, bits=bits, noise_bits=noise_bits,
                                                       rng=rng_ref)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert _same_state(rng_new, rng_ref)

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            descriptor_from_seed(7, noise_bits=4)
        assert descriptor_from_seed(7).tobytes() == _reference_descriptor_from_seed(7).tobytes()

    def test_mutating_a_result_does_not_reach_the_memo(self):
        first = descriptor_from_seed(1234)
        expected = first.tobytes()
        first[:] = 0
        noisy = descriptor_from_seed(1234, noise_bits=8, rng=np.random.default_rng(3))
        noisy ^= 0xFF
        assert descriptor_from_seed(1234).tobytes() == expected
        with pytest.raises(ValueError):
            orb._base_bits(1234, 256)[0] = 1

    def test_memo_is_bounded(self):
        assert orb._base_bits.cache_info().maxsize == DESCRIPTOR_MEMO_SIZE
        for seed in range(DESCRIPTOR_MEMO_SIZE + 64):
            descriptor_from_seed(10**6 + seed, bits=8)
        assert orb._base_bits.cache_info().currsize == DESCRIPTOR_MEMO_SIZE


# ----------------------------------------------------------- MSCKF propagate


def _imu_batch(rng: np.random.Generator, count: int, start: float,
               gyro_bias: np.ndarray) -> List[_ImuSample]:
    # Mostly regular steps with a jittered, a zero and a negative dt, so the
    # noise scaled per step sees varying dt and the loop skips steps.  Some
    # readings sit so close to the filter's gyro bias that their increment
    # takes the small-angle branch of so3_exp; one equals the bias.
    steps = np.full(max(count - 1, 0), 0.005)
    if steps.size:
        steps[rng.integers(0, steps.size)] = 0.0
        steps[rng.integers(0, steps.size)] = -0.001
        steps[rng.integers(0, steps.size)] = 0.005 + rng.uniform(1e-6, 1e-3)
    timestamps = start + np.concatenate([[0.0], np.cumsum(steps)])[:count]
    gyro = rng.normal(0.0, 0.3, (count, 3))
    slow = rng.random(count) < 0.25
    gyro[slow] = gyro_bias + rng.normal(0.0, 1e-8, (int(slow.sum()), 3))
    if count:
        gyro[rng.integers(0, count)] = gyro_bias
    return [_ImuSample(float(t), w, rng.normal(0.0, 2.0, 3) - GRAVITY)
            for t, w in zip(timestamps, gyro)]


def _propagate_columns(vio: Msckf, batch: List[_ImuSample]) -> None:
    columns = _imu_columns(batch)
    vio._propagate(columns["imu_timestamps"], columns["imu_gyro"], columns["imu_accel"])


def _filter(rng: np.random.Generator, clones: int) -> Msckf:
    vio = Msckf()
    rotation = euler_to_rotation(*rng.uniform(-np.pi, np.pi, 3))
    vio.initialize(Pose(rotation, rng.normal(0.0, 5.0, 3)), velocity=rng.normal(0.0, 1.0, 3))
    vio.state.imu.gyro_bias = rng.normal(0.0, 0.01, 3)
    vio.state.imu.accel_bias = rng.normal(0.0, 0.05, 3)
    for frame in range(clones):
        vio.state.augment(frame, float(frame))
    noise = rng.normal(0.0, 1e-3, vio.state.covariance.shape)
    vio.state.covariance = vio.state.covariance + noise @ noise.T
    return vio


# The propagation folds a frame's steps into one transition and one noise and
# chains the rotations as prefix products, so it reorders the per-step loop's
# floating-point operations: each quantity must agree with the loop to within
# this share of its largest entry (the worst seen over 1,200 drawn batches was
# 2.3e-15, on the covariance).
PROPAGATE_RTOL = 1e-13


class TestPropagate:
    """The folded propagation against the per-sample loop it replaced."""

    @staticmethod
    def _assert_close_state(got: Msckf, expected: Msckf) -> None:
        pairs = [("covariance", got.state.covariance, expected.state.covariance)]
        pairs += [(name, getattr(got.state.imu, name), getattr(expected.state.imu, name))
                  for name in ("rotation", "position", "velocity", "gyro_bias", "accel_bias")]
        for name, value, reference in pairs:
            assert value.shape == reference.shape, name
            assert np.abs(value - reference).max() <= PROPAGATE_RTOL * np.abs(reference).max(), name

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           clones=st.integers(min_value=0, max_value=30),
           count=st.integers(min_value=0, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, clones, count):
        trimmed = _filter(np.random.default_rng(seed), clones)
        reference = _filter(np.random.default_rng(seed), clones)
        batch = _imu_batch(np.random.default_rng(seed), count, 1.0, trimmed.state.imu.gyro_bias)
        for _ in range(2):
            _propagate_columns(trimmed, batch)
            _reference_propagate(reference, batch)
        self._assert_close_state(trimmed, reference)

    @pytest.mark.parametrize("clones", [0, 1, 30])
    @pytest.mark.parametrize("steps", [[0.0], [-0.001], [0.0, -0.001, 0.0], [0.005], [0.0, 0.005]])
    def test_degenerate_batches_match_reference(self, clones, steps):
        rng = np.random.default_rng(len(steps) + clones)
        timestamps = 2.0 + np.concatenate([[0.0], np.cumsum(steps)])
        batch = [_ImuSample(float(t), rng.normal(0.0, 0.3, 3), rng.normal(0.0, 2.0, 3) - GRAVITY)
                 for t in timestamps]
        trimmed = _filter(np.random.default_rng(clones), clones)
        reference = _filter(np.random.default_rng(clones), clones)
        _propagate_columns(trimmed, batch)
        _reference_propagate(reference, batch)
        self._assert_close_state(trimmed, reference)

    @pytest.mark.parametrize("seed", range(8))
    def test_from_rest_at_the_origin(self, seed):
        """Position and velocity start at zero, so the tolerance is relative
        to the batch's own displacement, not to a large starting position."""
        trimmed = _filter(np.random.default_rng(seed), 2)
        reference = _filter(np.random.default_rng(seed), 2)
        for vio in (trimmed, reference):
            vio.state.imu.position = np.zeros(3)
            vio.state.imu.velocity = np.zeros(3)
        batch = _imu_batch(np.random.default_rng(seed), 6, 0.0, trimmed.state.imu.gyro_bias)
        _propagate_columns(trimmed, batch)
        _reference_propagate(reference, batch)
        self._assert_close_state(trimmed, reference)

    def test_window_sized_state(self):
        """30 clones: the full 195-dimensional window state of the default config."""
        rng = np.random.default_rng(11)
        trimmed = _filter(np.random.default_rng(11), 30)
        reference = _filter(np.random.default_rng(11), 30)
        assert trimmed.state.error_dim == 195
        for start in (1.0, 1.2, 1.4):
            batch = _imu_batch(rng, 21, start, trimmed.state.imu.gyro_bias)
            _propagate_columns(trimmed, batch)
            _reference_propagate(reference, batch)
        self._assert_close_state(trimmed, reference)


class _ReferenceKernelMsckf(Msckf):
    """The MSCKF with its kernels before the batching, verbatim: the
    per-sample propagation, one ``_feature_jacobian`` per track with a dense
    ``(3n, D)`` clone Jacobian and a complete QR, and the from-scratch
    ``solve_cholesky`` Kalman gain."""

    def _propagate(self, timestamps: np.ndarray, gyro: np.ndarray, accel: np.ndarray) -> None:
        _reference_propagate(self, [_ImuSample(t, w, a) for t, w, a in zip(timestamps, gyro, accel)])

    def _clone_observation_arrays(self, observations: List[tuple]) -> Optional[Tuple[np.ndarray, ...]]:
        """Gather a track's observations that still have a clone in the window.

        Returns ``(clone_indices, points_body, noise_std)`` as arrays, or None
        when no observation matches a clone.
        """
        index_by_frame = {clone.frame_index: i for i, clone in enumerate(self.state.clones)}
        rows = [
            (index_by_frame[frame_index], point_body, noise_std)
            for frame_index, point_body, noise_std in observations
            if frame_index in index_by_frame
        ]
        if not rows:
            return None
        clone_idx = np.array([row[0] for row in rows])
        points = np.array([row[1] for row in rows])
        noise = np.array([row[2] for row in rows])
        return clone_idx, points, noise

    @staticmethod
    def _weighted_triangulation(points: np.ndarray, noise: np.ndarray,
                                rotations: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """World-frame feature estimate from gathered clone observations.

        Observations are combined with inverse-variance weights so close-range
        (accurate) stereo points dominate over distant (noisy) ones.
        """
        world = np.einsum("nij,nj->ni", rotations, points) + positions
        weights = (1.0 / noise[:, 0] ** 2).reshape(-1, 1)
        return (world * weights).sum(axis=0) / weights.sum()

    def _update(self, tracks: List[List[tuple]], stopwatch: StopwatchCollector,
                workload: VioWorkload) -> None:
        state_dim = self.state.error_dim

        with stopwatch.measure("jacobian"):
            rows: List[np.ndarray] = []
            residuals: List[np.ndarray] = []
            for observations in tracks:
                block = self._feature_jacobian(observations)
                if block is None:
                    continue
                h_block, r_block = block
                rows.append(h_block)
                residuals.append(r_block)
            if not rows:
                return
            h_stack = np.vstack(rows)
            r_stack = np.concatenate(residuals)
            workload.features_used = len(rows)

        with stopwatch.measure("qr"):
            # Compress the stacked Jacobian when it is taller than the state.
            workload.qr_rows = h_stack.shape[0]
            if h_stack.shape[0] > state_dim:
                q, r_upper = qr_reduced(h_stack)
                h_stack = r_upper
                r_stack = q.T @ r_stack
            workload.jacobian_rows = h_stack.shape[0]

        with stopwatch.measure("kalman_gain"):
            noise = np.eye(h_stack.shape[0]) * self.config.observation_noise**2
            covariance = self.state.covariance
            s_matrix = quadratic_form(h_stack, covariance) + noise
            ph_t = matmul(covariance, transpose(h_stack))
            # Solve S K^T = H P  =>  K = (S^-1 H P)^T, via Cholesky + substitution.
            k_transposed = solve_cholesky(s_matrix, transpose(ph_t))
            kalman_gain = k_transposed.T
            workload.kalman_gain_dim = s_matrix.shape[0]

        with stopwatch.measure("covariance"):
            correction = kalman_gain @ r_stack
            identity = np.eye(state_dim)
            ikh = identity - kalman_gain @ h_stack
            self.state.covariance = (
                ikh @ self.state.covariance @ ikh.T + kalman_gain @ noise @ kalman_gain.T
            )
            self.state.symmetrize()
            self.state.apply_correction(correction)

    def _feature_jacobian(self, observations: List[tuple]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Build the nullspace-projected Jacobian and residual for one track."""
        state_dim = self.state.error_dim

        gathered = self._clone_observation_arrays(observations)
        if gathered is None or gathered[0].size < 2:
            return None
        clone_idx, points_body, noise_std = gathered
        count = clone_idx.size
        rotations = np.stack([self.state.clones[i].rotation for i in clone_idx])
        positions = np.stack([self.state.clones[i].position for i in clone_idx])
        feature_world = self._weighted_triangulation(points_body, noise_std, rotations, positions)

        deltas = feature_world - positions                       # (n, 3)
        predicted = np.einsum("nji,nj->ni", rotations, deltas)   # R^T (f - p)
        residuals = points_body - predicted

        # Per-observation blocks: dh/d(rot) = R^T [f - p]_x, dh/d(pos) = -R^T,
        # dh/d(feature) = R^T; whitened by the per-axis stereo noise so the
        # update can use an identity measurement covariance (scaled by
        # observation_noise).
        rotation_t = np.transpose(rotations, (0, 2, 1))
        whitening = (1.0 / noise_std)[:, :, None]                # (n, 3, 1)
        h_rot = whitening * np.einsum("nji,njk->nik", rotations, skew_batch(deltas))
        h_pos = -whitening * rotation_t
        h_f = whitening * rotation_t
        residuals = residuals / noise_std

        # Scatter each 3x6 clone block into the sparse full-state Jacobian.
        h_x = np.zeros((count, 3, state_dim))
        offsets = np.array([self.state.clone_offset(i) for i in clone_idx])
        columns = offsets[:, None] + np.arange(CLONE_ERROR_DIM)[None, :]      # (n, 6)
        blocks = np.concatenate([h_rot, h_pos], axis=2)                       # (n, 3, 6)
        h_x[np.arange(count)[:, None, None], np.arange(3)[None, :, None],
            columns[:, None, :]] = blocks

        h_x_stack = h_x.reshape(3 * count, state_dim)
        h_f_stack = h_f.reshape(3 * count, 3)
        residual_stack = residuals.reshape(-1)

        # Project onto the left nullspace of H_f to remove the feature error.
        q_full, _ = np.linalg.qr(h_f_stack, mode="complete")
        nullspace = q_full[:, 3:]
        projected_h = nullspace.T @ h_x_stack
        projected_r = nullspace.T @ residual_stack

        # Chi-square style gating on the residual magnitude.
        if np.linalg.norm(projected_r) > 10.0 * self.config.observation_noise * np.sqrt(len(projected_r)):
            return None
        return projected_h, projected_r


def _jacobian_case(seed: int, clones: int, tracks: int) -> Tuple[Msckf, List[list]]:
    """A filter with ``clones`` posed clones and ``tracks`` tracks over them,
    longest first as ``_select_update_tracks`` hands them over; about one
    track in five carries a gross outlier, for the gate to reject."""
    rng = np.random.default_rng(seed)
    vio = Msckf(MSCKFConfig(window_size=clones))
    vio.initialize(Pose.identity())
    for frame in range(clones):
        vio.state.augment(frame, float(frame))
        vio.state.clones[-1].rotation = euler_to_rotation(*rng.uniform(-0.4, 0.4, 3))
        vio.state.clones[-1].position = rng.normal(0.0, 1.0, 3)
    noise = rng.normal(0.0, 1e-3, vio.state.covariance.shape)
    vio.state.covariance = vio.state.covariance + noise @ noise.T
    observations = []
    for _ in range(tracks):
        frames = np.sort(rng.choice(clones, size=int(rng.integers(1, clones + 1)), replace=False))
        feature = rng.normal(0.0, 3.0, 3) + np.array([8.0, 0.0, 0.0])
        rows = []
        for frame in frames.tolist():
            clone = vio.state.clones[frame]
            sigma = rng.uniform(0.005, 0.2, 3)
            rows.append((frame, clone.rotation.T @ (feature - clone.position) + rng.normal(0.0, 1.0, 3) * sigma,
                         sigma))
        if rng.random() < 0.2:
            frame, point, sigma = rows[-1]
            rows[-1] = (frame, point + 5.0, sigma)
        observations.append(rows)
    observations.sort(key=len, reverse=True)
    return vio, observations


def _assert_close(got: np.ndarray, expected: np.ndarray, rtol: float) -> None:
    """Equal shapes, and every entry within ``rtol`` of the largest expected one."""
    assert got.shape == expected.shape
    assert np.abs(got - expected).max(initial=0.0) <= rtol * np.abs(expected).max(initial=0.0)


class TestBatchedJacobians:
    """The equal-length groups' stacked Jacobians against one verbatim
    ``_feature_jacobian`` per track.  Any orthonormal basis of a track's left
    nullspace is valid, so the tracks are compared by ``H^T H``, ``H^T r`` and
    ``r^T r``, which do not depend on it."""

    # Worst seen over 400 drawn cases: 6.8e-15; the dense and the block
    # projection add the same products in a different order.
    RTOL = 1e-11

    def _compare(self, vio: Msckf, observations: List[list]) -> np.ndarray:
        reference = _ReferenceKernelMsckf(vio.config)
        reference.state = vio.state
        h, r, passed = vio._stacked_jacobians(observations)
        expected = [reference._feature_jacobian(track) for track in observations]
        assert passed.tolist() == [block is not None for block in expected]
        kept = [block for block in expected if block is not None]
        assert h.shape == (sum(len(r_block) for _, r_block in kept), vio.state.error_dim)
        assert r.shape == (h.shape[0],)
        start = 0
        for h_block, r_block in kept:
            rows = slice(start, start + len(r_block))
            start += len(r_block)
            _assert_close(h[rows].T @ h[rows], h_block.T @ h_block, self.RTOL)
            _assert_close(h[rows].T @ r[rows], h_block.T @ r_block, self.RTOL)
            _assert_close(r[rows] @ r[rows], r_block @ r_block, self.RTOL)
        return passed

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           clones=st.integers(min_value=1, max_value=12),
           tracks=st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_track_reference(self, seed, clones, tracks):
        self._compare(*_jacobian_case(seed, clones, tracks))

    def test_gate_and_single_observations(self):
        """A fixed case with passed, gated and one-observation tracks."""
        vio, observations = _jacobian_case(5, 8, 40)
        passed = self._compare(vio, observations)
        assert passed.any() and not passed.all()
        assert any(len(track) == 1 for track in observations)
        assert len({len(track) for track in observations}) > 3

    def test_workload_counts_match_reference_kernels(self, indoor_sequence):
        """Per frame, the batched filter and the verbatim kernels size every
        kernel alike: IMU steps, clones, tracks used, Jacobian, QR and gain."""
        frontend = VisualFrontend(rig=indoor_sequence.rig, dropout_probability=0.02, seed=1)
        got, reference = Msckf(), _ReferenceKernelMsckf()
        for vio in (got, reference):
            vio.initialize(indoor_sequence.frames[0].ground_truth)
        workloads = []
        for frame in indoor_sequence.frames:
            result = frontend.process(frame)
            imu = (frame.imu_timestamps, frame.imu_gyro, frame.imu_accel)
            got.process_frame(result, *imu)
            reference.process_frame(result, *imu)
            assert got.last_workload == reference.last_workload
            _assert_close(got.pose().translation, reference.pose().translation, 1e-9)
            _assert_close(got.pose().rotation, reference.pose().rotation, 1e-9)
            workloads.append(got.last_workload)
        assert sum(w.features_used for w in workloads) > 0
        assert any(w.qr_rows > w.state_dim for w in workloads)


class TestSo3ExpBatch:
    _ROW = st.one_of(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-1e-9, max_value=1e-9),
        st.sampled_from([0.0, -0.0, 5e-10, -5e-10, 1e-9, np.pi]))

    @given(rows=st.lists(st.tuples(_ROW, _ROW, _ROW), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_matches_so3_exp_per_row(self, rows):
        phis = np.array(rows, dtype=float).reshape(-1, 3)
        expected = np.array([so3_exp(phi) for phi in phis]).reshape(-1, 3, 3)
        assert _same_bits(so3_exp_batch(phis), expected)


# ------------------------------------------------------- dataset pixel noise


class TestObservePixelNoise:
    def _assert_matches_reference(self, builder, pose, world, rig, seed):
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        got = builder._observe(pose, world, rig, rng_new)
        expected = _reference_observe(builder, pose, world, rig, rng_ref)
        assert _column_bits(*got) == _column_bits(*_columns(expected))
        assert _same_state(rng_new, rng_ref)
        return len(expected)

    def test_matches_reference_on_a_fixed_world(self, indoor_mapped_sequence, small_sensor_config):
        builder = SequenceBuilder(small_sensor_config)
        seen = 0
        for seed, frame in enumerate(indoor_mapped_sequence.frames[:12]):
            seen += self._assert_matches_reference(builder, frame.ground_truth, indoor_mapped_sequence.world,
                                                   indoor_mapped_sequence.rig, seed)
        assert seen > 0

    def test_no_visible_landmark_draws_nothing(self, indoor_mapped_sequence, small_sensor_config):
        builder = SequenceBuilder(small_sensor_config)
        behind = Pose(np.eye(3), np.array([0.0, 0.0, 1e6]))
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        landmark_ids, left_pixels, right_pixels = builder._observe(
            behind, indoor_mapped_sequence.world, indoor_mapped_sequence.rig, rng)
        assert (landmark_ids.shape, left_pixels.shape, right_pixels.shape) == ((0,), (0, 2), (0, 2))
        assert rng.bit_generator.state == before
        assert self._assert_matches_reference(builder, behind, indoor_mapped_sequence.world,
                                              indoor_mapped_sequence.rig, 2) == 0

    @pytest.mark.parametrize("is_indoor", [True, False])
    def test_empty_world(self, indoor_mapped_sequence, small_sensor_config, is_indoor):
        builder = SequenceBuilder(small_sensor_config)
        pose = indoor_mapped_sequence.frames[0].ground_truth
        empty = LandmarkWorld(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
                              is_indoor=is_indoor)
        assert self._assert_matches_reference(builder, pose, empty, indoor_mapped_sequence.rig, 3) == 0


# ------------------------------------------------------ sparse frontend


# Pixels on a quarter-pixel grid, so left x minus right x is exact and equal
# disparities really tie.
_QUARTERS = st.integers(min_value=0, max_value=4 * 640).map(lambda q: q / 4.0)
_OBSERVATION = st.tuples(_QUARTERS, _QUARTERS,
                         st.integers(min_value=-8, max_value=48).map(lambda q: q / 4.0),
                         st.sampled_from([0.0, 0.25, -0.5]))


@st.composite
def _sparse_frames(draw):
    """Frames whose landmark ids come from a small pool (so tracks persist)
    and whose disparities come from a coarse grid (so they tie)."""
    frames = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        ids = draw(st.lists(st.integers(min_value=0, max_value=40), unique=True, max_size=24))
        rows = [draw(_OBSERVATION) for _ in ids]
        frames.append(_sparse_frame(index, ids, rows))
    return frames


def _sparse_frame(index: int, ids: List[int], rows: List[tuple]) -> Frame:
    """``rows`` holds ``(left x, left y, disparity, right y - left y)``."""
    left = np.array([(x, y) for x, y, _, _ in rows]).reshape(-1, 2)
    right = np.array([(x - d, y + dy) for x, y, d, dy in rows]).reshape(-1, 2)
    return Frame(index=index, timestamp=0.1 * index, ground_truth=Pose.identity(),
                 landmark_ids=np.array(ids, dtype=np.int64), left_pixels=left, right_pixels=right)


def _dict_frame(frame: Frame) -> SimpleNamespace:
    """``frame`` in the per-landmark dict form the reference consumes."""
    observations = {
        landmark_id: StereoObservation(landmark_id, left.copy(), right.copy())
        for landmark_id, left, right in zip(frame.landmark_ids.tolist(), frame.left_pixels,
                                            frame.right_pixels)
    }
    return SimpleNamespace(index=frame.index, timestamp=frame.timestamp, observations=observations)


def _track_bits(result: FrontendResult) -> tuple:
    return tuple((column.dtype.str, column.shape, column.tobytes())
                 for column in (result.track_ids, result.left_pixels, result.points_body, result.noise_std))


def _columnar(result: _RecordResult) -> FrontendResult:
    """The records' columns, in their order, with the same bits."""
    rows = result.observations
    return FrontendResult(
        frame_index=result.frame_index,
        timestamp=result.timestamp,
        track_ids=np.array([obs.track_id for obs in rows], dtype=np.int64),
        points_body=np.array([obs.point_body for obs in rows]).reshape(-1, 3),
        noise_std=np.array([obs.noise_std for obs in rows]).reshape(-1, 3),
        left_pixels=np.array([obs.left_pixel for obs in rows]).reshape(-1, 2),
        workload=result.workload,
    )


def _assert_same_result(got: FrontendResult, expected: _RecordResult, previous_ids: List[int]) -> None:
    """``got`` holds ``expected``'s rows; the track ids it starts and ends
    are the ones the records listed."""
    assert _track_bits(got) == _track_bits(_columnar(expected))
    ids = got.track_ids.tolist()
    assert [track_id for track_id in ids if track_id not in previous_ids] == expected.new_track_ids
    assert sorted(set(previous_ids) - set(ids)) == expected.lost_track_ids
    assert got.workload == expected.workload
    assert all(type(value) is int for value in vars(got.workload).values())
    assert (got.frame_index, got.timestamp) == (expected.frame_index, expected.timestamp)


def _assert_sparse_matches_reference(frames: List[Frame], config: FrontendConfig, dropout: float,
                                     rig: StereoRig, seed: int = 0) -> None:
    frontend = VisualFrontend(config=config, rig=rig, dropout_probability=dropout, seed=seed)
    reference = _reference_frontend(config=config, rig=rig, dropout_probability=dropout, seed=seed)
    previous_ids: List[int] = []
    for frame in frames:
        got = frontend.process(frame)
        expected = _reference_process_sparse(reference, _dict_frame(frame), rig)
        _assert_same_result(got, expected, previous_ids)
        assert frontend.active_track_count == len(reference._active_tracks)
        assert _same_state(frontend._rng, reference._rng)
        previous_ids = got.track_ids.tolist()


class TestSparseFrontendColumns:
    @given(frames=_sparse_frames(),
           max_features=st.integers(min_value=1, max_value=12),
           min_disparity=st.sampled_from([0.5, 2.0, 100.0]),
           dropout=st.sampled_from([0.0, 0.02, 0.5]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, small_rig, frames, max_features, min_disparity, dropout, seed):
        config = FrontendConfig(max_features=max_features, min_disparity=min_disparity)
        _assert_sparse_matches_reference(frames, config, dropout, small_rig, seed)

    @pytest.mark.parametrize("dropout", [0.0, 0.02, 0.5])
    def test_edge_frames_match_reference(self, small_rig, dropout):
        tied = [(100.0, 50.0, 8.0, 0.0), (120.0, 60.0, 4.0, 0.25), (140.0, 70.0, 8.0, 0.0),
                (160.0, 80.0, 4.0, 0.0), (180.0, 90.0, 8.0, -0.5), (200.0, 95.0, 1.0, 0.0)]
        below = [(300.0, 40.0, 1.75, 0.0), (310.0, 41.0, -1.0, 0.0)]
        # More candidates than numpy sorts by insertion, all in three ties.
        many = [(10.0 * i, 5.0 * i, (3.0, 6.0, 9.0)[i % 3], 0.0) for i in range(48)]
        frames = [
            _sparse_frame(0, [], []),
            _sparse_frame(1, [9, 3, 7, 1, 5, 2], tied),
            _sparse_frame(2, [4, 6], below),
            _sparse_frame(3, [], []),
            _sparse_frame(4, [3, 9, 1, 5, 7, 2], tied),
            _sparse_frame(5, list(range(100, 52, -1)), many),
        ]
        config = FrontendConfig(max_features=4, min_disparity=2.0)
        _assert_sparse_matches_reference(frames, config, dropout, small_rig)

    def test_on_a_synthetic_segment(self, outdoor_sequence):
        config = FrontendConfig(max_features=40)
        _assert_sparse_matches_reference(outdoor_sequence.frames, config, 0.02, outdoor_sequence.rig, 5)

    def test_writing_into_an_observation_leaves_its_frame_unchanged(self, outdoor_sequence):
        frame = outdoor_sequence.frames[0]
        before = _column_bits(frame.landmark_ids, frame.left_pixels, frame.right_pixels)
        # Keep every landmark, so the kept rows are the frame's own rows.
        config = FrontendConfig(min_disparity=-np.inf, max_features=frame.observation_count)
        frontend = VisualFrontend(config=config, rig=outdoor_sequence.rig, dropout_probability=0.0)
        result = frontend.process(frame)
        assert result.feature_count == frame.observation_count > 0
        result.track_ids[:] = -1
        result.left_pixels[:] = -1.0
        assert _column_bits(frame.landmark_ids, frame.left_pixels, frame.right_pixels) == before


class TestDenseFrontendColumns:
    """The dense path's stacked rows against its per-match records."""

    def test_matches_reference(self, rendered_sequence):
        rig = rendered_sequence.rig
        config = FrontendConfig(max_features=60, fast_threshold=18.0, min_disparity=0.5)
        frontend = VisualFrontend(config=config, rig=rig)
        reference = _reference_frontend(config=config, rig=rig)
        previous_ids: List[int] = []
        continued = 0
        for frame in rendered_sequence.frames[:6]:
            got = frontend.process(frame)
            expected = _reference_process_dense(reference, frame, rig)
            _assert_same_result(got, expected, previous_ids)
            assert frontend._next_track_id == reference._next_track_id
            continued += sum(obs.age > 1 for obs in expected.observations)
            previous_ids = got.track_ids.tolist()
        # Lucas-Kanade association carried tracks over, so the previous
        # frame's pixels were read.
        assert continued > 0


# ------------------------------------------------- array ground truth


DT = 1e-3
_REFERENCE_FACTORIES = {
    "circle": _reference_circle,
    "figure_eight": _reference_figure_eight,
    "straight": _reference_straight,
    "warehouse": _reference_warehouse,
}


def _same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: signed zeros and NaN payloads included."""
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


def _sample_bits(sample: TrajectorySample) -> tuple:
    return (sample.pose.rotation.tobytes(), sample.pose.translation.tobytes(),
            sample.velocity.tobytes(), sample.acceleration.tobytes(),
            sample.angular_velocity.tobytes())


def _signed(values):
    return st.one_of(st.just(0.0), st.just(-0.0), values)


_LENGTHS = st.floats(min_value=0.5, max_value=40.0)
_PARAMS = {
    "circle": st.fixed_dictionaries({
        "radius": st.floats(min_value=0.1, max_value=50.0),
        "period": st.floats(min_value=2.0, max_value=200.0),
        "height": _signed(st.floats(min_value=-5.0, max_value=5.0))}),
    "figure_eight": st.fixed_dictionaries({
        "scale": st.floats(min_value=0.1, max_value=20.0),
        "period": st.floats(min_value=2.0, max_value=200.0),
        "height": _signed(st.floats(min_value=-5.0, max_value=5.0)),
        "vertical_amplitude": _signed(st.floats(min_value=-1.0, max_value=1.0))}),
    "straight": st.fixed_dictionaries({
        "speed": _signed(st.floats(min_value=-20.0, max_value=20.0)),
        "lateral_wiggle": _signed(st.floats(min_value=-2.0, max_value=2.0)),
        "wiggle_period": st.floats(min_value=2.0, max_value=100.0),
        "height": _signed(st.floats(min_value=-5.0, max_value=5.0))}),
    "warehouse": st.fixed_dictionaries({
        "aisle_length": _LENGTHS, "aisle_spacing": _LENGTHS,
        "speed": st.floats(min_value=0.2, max_value=5.0),
        "height": _signed(st.floats(min_value=-5.0, max_value=5.0))}),
}


def _edge_times(kind: str, params: dict) -> List[float]:
    """Timestamps on and around the places a sample can round differently:
    zero (either sign), the first frame's t - dt, and every warehouse leg
    boundary, each with its +-dt, +-2dt and next-float neighbours."""
    edges = [0.0, -DT, -2.0 * DT]
    if kind == "warehouse":
        segment_time = params["aisle_length"] / params["speed"]
        cross_time = params["aisle_spacing"] / params["speed"]
        cycle = 2.0 * (segment_time + cross_time)
        for lane_pair in (-1, 0, 1, 2):
            start = lane_pair * cycle
            edges += [start, start + segment_time, start + segment_time + cross_time,
                      start + 2.0 * segment_time + cross_time]
    times = [-0.0]
    for edge in edges:
        times += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        times += [edge + k * DT for k in (-2, -1, 1, 2)]
    return [float(t) for t in times]


@st.composite
def _trajectory_cases(draw):
    kind = draw(st.sampled_from(sorted(_PARAMS)))
    params = draw(_PARAMS[kind])
    times = draw(st.lists(st.floats(min_value=-0.01, max_value=60.0), min_size=1, max_size=40))
    return kind, params, times + _edge_times(kind, params)


class TestArrayTrajectory:
    @given(case=_trajectory_cases())
    @settings(max_examples=150, deadline=None)
    def test_sample_array_matches_scalar_reference(self, case):
        kind, params, times = case
        generator = getattr(trajectory, f"{kind}_trajectory")(**params)
        reference = _REFERENCE_FACTORIES[kind](**params)
        truth = generator.sample_array(np.array(times))
        assert len(truth) == len(times)
        for i, t in enumerate(times):
            expected = reference.sample(t)
            assert truth.timestamps[i] == t
            assert _same_bits(truth.rotations[i], expected.pose.rotation), (kind, params, t)
            assert _same_bits(truth.positions[i], expected.pose.translation), (kind, params, t)
            assert _same_bits(truth.velocities[i], expected.velocity), (kind, params, t)
            assert _same_bits(truth.accelerations[i], expected.acceleration), (kind, params, t)
            assert _same_bits(truth.angular_velocities[i], expected.angular_velocity), (kind, params, t)
        # The scalar entry point routes through the same array path.
        t = times[0]
        assert _sample_bits(generator.sample(t)) == _sample_bits(reference.sample(t))

    @pytest.mark.parametrize("kind", sorted(_REFERENCE_FACTORIES))
    def test_default_trajectory_on_a_grid(self, kind):
        generator = getattr(trajectory, f"{kind}_trajectory")()
        reference = _REFERENCE_FACTORIES[kind]()
        expected_samples = reference.sample_range(30.0, 50.0, start=-0.02)
        truth = generator.sample_array(-0.02 + np.arange(len(expected_samples)) / 50.0)
        for i, expected in enumerate(expected_samples):
            sample = truth.sample(i)
            assert sample.timestamp == expected.timestamp
            assert _sample_bits(sample) == _sample_bits(expected), (kind, sample.timestamp)

    def test_a_still_path_faces_zero_yaw(self):
        times = np.array([-DT, -0.0, 0.0, 1.0, 37.5])
        truth = trajectory.straight_trajectory(speed=0.0, lateral_wiggle=0.0).sample_array(times)
        reference = _reference_straight(speed=0.0, lateral_wiggle=0.0)
        for i, t in enumerate(times.tolist()):
            assert _same_bits(truth.rotations[i], reference.sample(t).pose.rotation)
        assert not np.signbit(truth.rotations[:, 1, 0]).any()

    def test_still_guard_matches_reference_at_the_threshold(self):
        # Planar steps within a few ulps of the 1e-9 guard, where a sum of
        # squares and the scalar path's BLAS dot round to opposite sides.
        rng = np.random.default_rng(8)
        angle = rng.uniform(0.0, 2.0 * np.pi, 4000)
        radius = 1e-9 * (1.0 + rng.integers(-4, 5, angle.size) * 2.2e-16)
        deltas = np.stack([radius * np.cos(angle), radius * np.sin(angle), np.zeros(angle.size)], axis=1)
        expected = [_ReferenceTrajectory(lambda t, d=d: d if t > 0 else np.zeros(3))._yaw(0.0)
                    for d in deltas]
        assert _same_bits(trajectory._heading(np.zeros_like(deltas), deltas), np.array(expected))
        assert 0.0 < np.count_nonzero(np.array(expected) == 0.0) < angle.size

    def test_empty_timestamps(self):
        truth = trajectory.circle_trajectory().sample_array(np.zeros(0))
        assert truth.rotations.shape == (0, 3, 3) and truth.positions.shape == (0, 3)


# ------------------------------------------------------------ batched IMU


def _random_truths(rng: np.random.Generator, count: int) -> List[TrajectorySample]:
    truths = []
    for k in range(count):
        rotation = euler_to_rotation(*rng.uniform(-np.pi, np.pi, 3))
        acceleration = rng.normal(0.0, 3.0, 3) if k % 3 else np.zeros(3)
        angular_velocity = rng.normal(0.0, 1.0, 3) if k % 4 else np.array([0.0, -0.0, 0.0])
        timestamp = float(k) * 0.01 + rng.uniform(0.0, 1e-3)
        truths.append(TrajectorySample(timestamp, Pose(rotation, rng.normal(size=3)),
                                       rng.normal(size=3), acceleration, angular_velocity))
    return truths


def _imu_pair(seed: int, scales, bias_rng: np.random.Generator):
    pair = []
    gyro_bias, accel_bias = bias_rng.normal(0.0, 1e-3, 3), bias_rng.normal(0.0, 1e-2, 3)
    for _ in range(2):
        imu = ImuSimulator(*scales, seed=seed)
        imu.gyro_bias, imu.accel_bias = gyro_bias.copy(), accel_bias.copy()
        pair.append(imu)
    return pair


def _same_imu(got: Tuple[np.ndarray, np.ndarray], expected: List[_ImuSample]) -> bool:
    columns = _imu_columns(expected)
    return _same_bits(got[0], columns["imu_gyro"]) and _same_bits(got[1], columns["imu_accel"])


def _same_simulator(a: ImuSimulator, b: ImuSimulator) -> bool:
    return (_same_bits(a.gyro_bias, b.gyro_bias) and _same_bits(a.accel_bias, b.accel_bias)
            and _same_state(a._rng, b._rng))


_SCALE = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.5))


class TestBatchedImu:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=0, max_value=30),
           scales=st.tuples(_SCALE, _SCALE, _SCALE, _SCALE))
    @settings(max_examples=80, deadline=None)
    def test_measure_array_matches_reference(self, seed, count, scales):
        rng = np.random.default_rng(seed)
        truths = _random_truths(rng, count)
        dts = rng.uniform(1e-4, 0.05, count)
        batched, reference = _imu_pair(seed, scales, rng)
        got = batched.measure_array(TrajectoryArrays.stack(truths), dts)
        expected = [_reference_measure(reference, truth, float(dt)) for truth, dt in zip(truths, dts)]
        assert _same_imu(got, expected)
        assert _same_simulator(batched, reference)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=0, max_value=12),
           scales=st.tuples(_SCALE, _SCALE, _SCALE, _SCALE))
    @settings(max_examples=60, deadline=None)
    def test_row_by_row_measure_array_matches_reference(self, seed, count, scales):
        """Measuring one row per call continues the same stream as one call."""
        rng = np.random.default_rng(seed)
        truths = _random_truths(rng, count)
        batched, reference = _imu_pair(seed, scales, rng)
        for truth in truths:
            dt = float(rng.uniform(1e-4, 0.05))
            got = batched.measure_array(TrajectoryArrays.stack([truth]), [dt])
            assert _same_imu(got, [_reference_measure(reference, truth, dt)])
        assert _same_simulator(batched, reference)


# ------------------------------------------------------- segment synthesis


def _imu_bits(frame: Frame) -> tuple:
    return tuple((column.dtype, column.shape, column.tobytes())
                 for column in (frame.imu_timestamps, frame.imu_gyro, frame.imu_accel))


def _frame_bits(frame: Frame) -> tuple:
    """Every value a frame carries, as exact bytes (and exact Python scalars)."""
    gps = frame.gps
    return (
        frame.index, repr(frame.timestamp), type(frame.timestamp), frame.scenario,
        frame.ground_truth.rotation.tobytes(), frame.ground_truth.translation.tobytes(),
        frame.ground_truth_velocity.tobytes(),
        _column_bits(frame.landmark_ids, frame.left_pixels, frame.right_pixels),
        _imu_bits(frame),
        None if gps is None else (repr(gps.timestamp), gps.valid, gps.position.tobytes(),
                                  gps.covariance.tobytes()),
    )


def _world_bits(world: LandmarkWorld) -> tuple:
    return (world.is_indoor, len(world), world.positions.dtype, world.positions.shape, world.positions.tobytes(),
            world.landmark_ids.dtype, world.landmark_ids.tobytes(),
            world.appearance_seeds.dtype, world.appearance_seeds.tobytes())


def _landmark_bits(landmarks: List[_Landmark]) -> tuple:
    """The columns the parent's world stacked from its landmark list, as bytes."""
    positions = np.array([lm.position for lm in landmarks]) if landmarks else np.zeros((0, 3))
    return (len(landmarks), positions.dtype, positions.shape, positions.tobytes(),
            np.dtype(np.int64), np.array([lm.landmark_id for lm in landmarks], dtype=np.int64).tobytes(),
            np.dtype(np.int64), np.array([lm.appearance_seed for lm in landmarks], dtype=np.int64).tobytes())


def _catalog_reference(kind: ScenarioKind, duration: float) -> _ReferenceTrajectory:
    """The scalar twin of ``scenario_catalog(duration)[kind].trajectory``."""
    return {
        ScenarioKind.INDOOR_UNKNOWN: lambda: _reference_figure_eight(scale=5.0, period=duration),
        ScenarioKind.INDOOR_KNOWN: lambda: _reference_warehouse(aisle_length=15.0, speed=1.5),
        ScenarioKind.OUTDOOR_UNKNOWN: lambda: _reference_straight(speed=6.0),
        ScenarioKind.OUTDOOR_KNOWN: lambda: _reference_circle(radius=20.0, period=duration * 2.0,
                                                              height=1.5),
    }[kind]()


def _recording(cls, log: list):
    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            log.append(self)
    return Recording


class _RecordingBuilder(SequenceBuilder):
    """Keeps the pixel-noise generator each build hands to ``_observe``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.observe_rngs: List[np.random.Generator] = []

    def _observe(self, pose, world, rig, rng):
        if not self.observe_rngs or self.observe_rngs[-1] is not rng:
            self.observe_rngs.append(rng)
        return super()._observe(pose, world, rig, rng)


def _mutator(world: LandmarkWorld) -> LandmarkWorld:
    return drift_world(world, 0.6, 0.3, seed=17)


class TestSegmentSynthesis:
    @pytest.mark.parametrize("kind", list(ScenarioKind))
    @pytest.mark.parametrize("start_time, camera_rate_hz, seed_offset",
                             [(3.7, 10.0, 10), (0.05, 9.0, 20), (41.25, 7.0, 30)])
    def test_build_matches_reference(self, monkeypatch, kind, start_time, camera_rate_hz, seed_offset):
        duration = 3.0
        config = SensorConfig(camera_rate_hz=camera_rate_hz, landmark_count=120,
                              gps_outage_probability=0.2, seed=5)
        scenario = scenario_catalog(duration=duration, landmark_count=120)[kind]
        simulators: list = []
        monkeypatch.setattr(dataset, "ImuSimulator", _recording(ImuSimulator, simulators))
        monkeypatch.setattr(dataset, "GpsSimulator", _recording(GpsSimulator, simulators))
        builder = _RecordingBuilder(config)
        got = builder.build(scenario, start_time=start_time, start_index=4, seed_offset=seed_offset,
                            world_mutator=_mutator)
        expected, imu, gps, rng = _reference_build(
            SequenceBuilder(config), scenario, _catalog_reference(kind, duration),
            start_time=start_time, start_index=4, seed_offset=seed_offset, world_mutator=_mutator)

        assert len(got.frames) == len(expected.frames) > 2
        for frame, expected_frame in zip(got.frames, expected.frames):
            assert _frame_bits(frame) == _frame_bits(expected_frame), (kind, frame.index)
        assert sum(len(frame.imu_timestamps) for frame in got.frames) > len(got.frames)
        assert _world_bits(got.world) == _world_bits(expected.world)
        built_imu, built_gps = simulators
        assert _same_simulator(built_imu, imu)
        assert _same_state(built_gps._rng, gps._rng)
        assert len(builder.observe_rngs) == 1 and _same_state(builder.observe_rngs[0], rng)

    def test_writing_into_one_frame_reaches_nothing_else(self, small_sensor_config):
        scenario = scenario_catalog(duration=2.0, landmark_count=60)[ScenarioKind.OUTDOOR_UNKNOWN]

        def build():
            return SequenceBuilder(small_sensor_config).build(scenario, start_time=1.5,
                                                              world_mutator=_mutator)

        segment = build()
        frames_before = [_frame_bits(frame) for frame in segment.frames]
        world_before = _world_bits(segment.world)
        target = segment.frames[3]
        imu_before = [column.copy() for column in (target.imu_timestamps, target.imu_gyro,
                                                   target.imu_accel)]
        target.ground_truth.translation[:] = 1e9
        target.ground_truth.rotation[:] = 7.0
        target.ground_truth_velocity[:] = -3.0
        target.landmark_ids[:] = -1
        target.left_pixels[:] = -1.0
        target.right_pixels[:] = -1.0
        # Frame 3's first IMU row shares its timestamp with frame 2's last, and
        # all three frames' columns are slices of one measurement.
        target.imu_timestamps[0] = -1.0
        target.imu_gyro[0] = 5.0
        target.imu_accel[0] = 5.0
        frames_after = [_frame_bits(frame) for frame in segment.frames]
        for index, (before, after) in enumerate(zip(frames_before, frames_after)):
            if index != 3:
                assert after == before, index
        for column, before in zip((target.imu_timestamps, target.imu_gyro, target.imu_accel),
                                  imu_before):
            assert not _same_bits(column[:1], before[:1])
            assert _same_bits(column[1:], before[1:])
        assert _world_bits(segment.world) == world_before
        assert [_frame_bits(frame) for frame in build().frames] == frames_before


# ------------------------------------------------------- columnar landmarks


def _recording_generators(monkeypatch) -> List[np.random.Generator]:
    """Record every generator ``np.random.default_rng`` hands out."""
    made: List[np.random.Generator] = []
    default_rng = np.random.default_rng

    def recording(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


def _path(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(1000 + seed)
    return np.cumsum(rng.normal(0.0, 0.4, (count, 3)), axis=0)


class TestLandmarkColumns:
    """The world, its survey map and its drift as columns, against the
    parent's per-landmark loops: same bytes, same generator states."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("count", [0, 1, 7, 400])
    @pytest.mark.parametrize("indoor", [True, False])
    def test_world_matches_reference(self, monkeypatch, seed, count, indoor):
        path = _path(seed, 30)
        made = _recording_generators(monkeypatch)
        world = (LandmarkWorld.indoor if indoor else LandmarkWorld.outdoor)(path, count=count, seed=seed)
        monkeypatch.undo()
        spreads = (4.0, 3.0, 3.0) if indoor else (15.0, 8.0, 12.0)
        landmarks, rng = _reference_corridor(path, count, spreads[0], spreads[1], seed=seed,
                                             forward_spread=spreads[2])
        assert world.is_indoor is indoor
        assert _world_bits(world)[1:] == _landmark_bits(landmarks)
        assert len(made) == 1 and _same_state(made[0], rng)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("position_noise, position_bias_std", [(0.05, 0.0), (0.01, 0.0), (0.05, 0.8)])
    def test_survey_map_matches_reference(self, monkeypatch, seed, position_noise, position_bias_std):
        world = LandmarkWorld.outdoor(_path(seed, 20), count=[0, 1, 150][seed % 3], seed=seed)
        made = _recording_generators(monkeypatch)
        got = LocalizationMap.from_world(world, position_noise=position_noise,
                                         position_bias_std=position_bias_std, seed=seed + 5)
        monkeypatch.undo()
        expected, rng = _reference_from_world(_landmark_rows(world), position_noise=position_noise,
                                              position_bias_std=position_bias_std, seed=seed + 5)
        # The first generator is the map's; descriptor base bits draw from their own.
        assert _same_state(made[0], rng)
        assert got.point_ids.dtype == np.int64 and got.point_ids.tolist() == list(expected.points)
        assert got.row_of == {point_id: row for row, point_id in enumerate(expected.points)}
        assert got.positions.shape == expected.positions.shape
        assert got.positions.tobytes() == expected.positions.tobytes()
        rows, descriptors = got.descriptors()
        expected_ids, expected_descriptors = expected.descriptors()
        assert got.point_ids[rows].tolist() == expected_ids
        assert descriptors.dtype == np.uint8 and descriptors.shape == expected_descriptors.shape
        assert descriptors.tobytes() == expected_descriptors.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("drift_m, fraction", [(0.6, 0.3), (2.0, 1.0), (0.0, 0.5), (1.0, 0.0),
                                                   (0.5, 1.7)])
    def test_drift_matches_reference(self, monkeypatch, seed, drift_m, fraction):
        world = LandmarkWorld.indoor(_path(seed, 20), count=[0, 1, 90][seed % 3], seed=seed)
        if seed % 3 == 2:
            # Signed zeros: an unmoved row must keep its -0.0.
            world.positions[::3] = -0.0
        made = _recording_generators(monkeypatch)
        drifted = drift_world(world, drift_m, fraction, seed=seed + 3)
        monkeypatch.undo()
        landmarks, rng = _reference_drift_world(_landmark_rows(world), drift_m, fraction, seed=seed + 3)
        assert _world_bits(drifted)[1:] == _landmark_bits(landmarks)
        assert drifted.is_indoor is world.is_indoor
        assert (rng is None) == (not made)
        if rng is not None:
            assert len(made) == 1 and _same_state(made[0], rng)
            assert drifted.positions is not world.positions


# ------------------------------------------------- window bundle adjustment


_BLOCK_SHAPES = ((6, 6), (6, 3), (3, 3), (6,), (3,))


@st.composite
def _scatter_cases(draw):
    """Few keyframes and landmarks and many observations, so every bin
    takes several values; a third of the values are +0.0 and a third -0.0."""
    pose_count = draw(st.integers(min_value=1, max_value=3))
    landmark_count = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.integers(min_value=1, max_value=24))
    kf_idx = np.array(draw(st.lists(st.integers(min_value=0, max_value=pose_count - 1),
                                    min_size=rows, max_size=rows)), dtype=np.int64)
    lm_idx = np.array(draw(st.lists(st.integers(min_value=0, max_value=landmark_count - 1),
                                    min_size=rows, max_size=rows)), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    terms = []
    for shape in _BLOCK_SHAPES:
        values = rng.uniform(-1e6, 1e6, (rows,) + shape)
        kind = rng.integers(0, 3, values.shape)
        values[kind == 0] = 0.0
        values[kind == 1] = -0.0
        terms.append(values)
    return kf_idx, lm_idx, pose_count, landmark_count, tuple(terms)


def _add_at_blocks(kf_idx, lm_idx, pose_count, landmark_count, terms) -> tuple:
    """The five scatters as ``np.add.at`` into zeros, the form the layout replaced."""
    pose_blocks = np.zeros((pose_count, 6, 6))
    cross_blocks = np.zeros((pose_count, landmark_count, 6, 3))
    landmark_blocks = np.zeros((landmark_count, 3, 3))
    b_pose = np.zeros((pose_count, 6))
    b_landmark = np.zeros((landmark_count, 3))
    np.add.at(pose_blocks, kf_idx, terms[0])
    np.add.at(cross_blocks, (kf_idx, lm_idx), terms[1])
    np.add.at(landmark_blocks, lm_idx, terms[2])
    np.add.at(b_pose, kf_idx, terms[3])
    np.add.at(b_landmark, lm_idx, terms[4])
    return pose_blocks, cross_blocks, landmark_blocks, b_pose, b_landmark


class TestScatterSum:
    """``NormalLayout.fill``'s one ``bincount`` against five ``np.add.at``."""

    @given(case=_scatter_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_add_at(self, case):
        kf_idx, lm_idx, pose_count, landmark_count, terms = case
        got = NormalLayout(kf_idx, lm_idx, pose_count, landmark_count).fill(terms)
        expected = _add_at_blocks(*case)
        assert len(got) == len(expected)
        for block, reference in zip(got, expected):
            assert _same_bits(block, reference)

    def test_negative_zeros_sum_to_positive_zero(self):
        kf_idx, lm_idx = np.array([0, 0, 1]), np.array([1, 1, 0])
        terms = tuple(np.full((3,) + shape, -0.0) for shape in _BLOCK_SHAPES)
        got = NormalLayout(kf_idx, lm_idx, 3, 2).fill(terms)
        for block, reference in zip(got, _add_at_blocks(kf_idx, lm_idx, 3, 2, terms)):
            assert _same_bits(block, reference) and not np.signbit(block).any()


def _ba_frames(seed: int, frames: int, outliers: float, perturbation: float) -> List[tuple]:
    """(frontend result, pose guess) per frame of a platform moving past a
    landmark field: noisy body-frame points, a share of gross outliers (so
    Huber weights kick in) and perturbed pose guesses (so steps get rejected)."""
    rng = np.random.default_rng(seed)
    world = rng.uniform(-6.0, 6.0, (40, 3)) + np.array([4.0, 0.0, 0.0])
    out = []
    for index in range(frames):
        truth = Pose(euler_to_rotation(0.05 * index, 0.0, 0.0), np.array([0.3 * index, 0.0, 0.0]))
        track_ids = np.flatnonzero(rng.random(len(world)) < 0.8)
        points, noise = [], []
        for track_id in track_ids:
            noise_std = rng.uniform(0.01, 0.2, 3)
            point = truth.rotation.T @ (world[track_id] - truth.translation) + rng.normal(0.0, noise_std)
            if rng.random() < outliers:
                point = point + rng.normal(0.0, 2.0, 3)
            points.append(point)
            noise.append(noise_std)
        guess = truth.perturb(rng.normal(0.0, perturbation / 5.0, 3), rng.normal(0.0, perturbation, 3))
        out.append((_frontend_result(index, track_ids, points, noise), guess))
    return out


def _frontend_result(index: int, track_ids, points_body, noise_std) -> FrontendResult:
    """A frontend result with these rows; the left pixels no backend reads are zeros."""
    track_ids = np.asarray(track_ids, dtype=np.int64)
    return FrontendResult(frame_index=index, timestamp=0.1 * index, track_ids=track_ids,
                          points_body=np.array(points_body, dtype=float).reshape(-1, 3),
                          noise_std=np.array(noise_std, dtype=float).reshape(-1, 3),
                          left_pixels=np.zeros((track_ids.size, 2)))


def _records(result: FrontendResult) -> _RecordResult:
    """``result``'s rows as records for the reference readers.  No backend
    reads a record's pixels or camera point, so those are zeros."""
    rows = zip(result.track_ids.tolist(), result.points_body, result.noise_std)
    return _RecordResult(
        frame_index=result.frame_index, timestamp=result.timestamp, workload=result.workload,
        observations=[_TrackObservation(track_id, np.zeros(2), np.zeros(2), np.zeros(3), point_body,
                                        noise_std=noise_std)
                      for track_id, point_body, noise_std in rows])


def _mapper_bits(mapper: KeyframeMapper) -> tuple:
    prior = [None if a is None else a.tobytes()
             for a in (mapper._prior_hessian, mapper._prior_gradient)]
    keyframes = [(kf.frame_index, kf.timestamp,
                  [(track_id, type(track_id), point.tobytes()) for track_id, point in kf.observations.items()],
                  [(track_id, type(track_id), sigma.hex()) for track_id, sigma in kf.observation_sigma.items()])
                 for kf in mapper.keyframes]
    return ([(kf.pose.rotation.tobytes(), kf.pose.translation.tobytes()) for kf in mapper.keyframes],
            [(track_id, position.tobytes()) for track_id, position in mapper.landmarks.items()],
            prior, list(mapper._prior_frames), keyframes)


def _run_pair(config: MappingConfig, frames: List[tuple]) -> int:
    """Feed the columnar mapper and the record-fed reference the same
    keyframes; return how many solves of the array one re-solved the blocks
    of the solve before it (the steps it rejected and retried)."""
    trimmed, reference = KeyframeMapper(config), _ReferenceMapper(config)
    reused = 0
    solve = trimmed._solve_normal_equations
    last_blocks = None

    def counting_solve(blocks, damping, workload):
        nonlocal reused, last_blocks
        reused += blocks is last_blocks
        last_blocks = blocks
        return solve(blocks, damping, workload)

    trimmed._solve_normal_equations = counting_solve
    for frontend, guess in frames:
        got = trimmed.insert_keyframe(frontend, guess)
        expected = reference.insert_keyframe(_records(frontend), guess)
        assert got == expected
        assert _mapper_bits(trimmed) == _mapper_bits(reference)
    return reused


class TestWindowBundleAdjustment:
    """Residual reuse, the array iterate, the one-``bincount`` layout and
    the blocks re-solved after a rejected step leave the window solve, its
    rejected steps and the marginalization prior bit-identical."""

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           frames=st.integers(min_value=2, max_value=9),
           window=st.integers(min_value=2, max_value=5),
           outliers=st.sampled_from([0.0, 0.1, 0.3]),
           perturbation=st.sampled_from([0.0, 0.05, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, seed, frames, window, outliers, perturbation):
        _run_pair(MappingConfig(window_size=window), _ba_frames(seed, frames, outliers, perturbation))

    def test_rejected_steps_restore_the_same_bits(self):
        assert _run_pair(MappingConfig(window_size=3), _ba_frames(0, 8, outliers=0.0, perturbation=0.5)) > 0

    def test_a_solve_leaves_its_blocks_as_they_were(self):
        """The blocks are views of one ``bincount`` output, and the solve adds
        the prior and the damping in place: solving the same blocks twice
        with a marginalization prior active must leave them byte-identical
        and return the same step."""
        mapper = KeyframeMapper(MappingConfig(window_size=3))
        for frontend, guess in _ba_frames(3, 6, outliers=0.1, perturbation=0.05):
            mapper.insert_keyframe(frontend, guess)
        assert mapper._prior_hessian is not None and np.any(mapper._prior_gradient != 0.0)
        landmark_ids = mapper._window_landmark_ids()
        gathered = mapper._gather_window(landmark_ids)
        layout = NormalLayout(gathered[0], gathered[1], len(mapper.keyframes), len(landmark_ids))
        blocks = mapper._assemble_normal_blocks(
            layout, mapper._batched_residuals(gathered, *mapper._window_state(landmark_ids)))
        before = [block.tobytes() for block in blocks]
        first = mapper._solve_normal_equations(blocks, 1e-3, SlamWorkload())
        assert [block.tobytes() for block in blocks] == before
        second = mapper._solve_normal_equations(blocks, 1e-3, SlamWorkload())
        assert [block.tobytes() for block in blocks] == before
        assert [part.tobytes() for part in first] == [part.tobytes() for part in second]


# ------------------------------------------- columnar results in the backends


# Noise rows with equal, tiny (below the SLAM sigma floor) and ordinary values.
_NOISE = st.one_of(st.floats(min_value=1e-6, max_value=0.5),
                   st.sampled_from([0.02, 0.05, 1e-4, 5e-4]))


def _truth(index: int, moving: bool) -> Pose:
    if not moving:
        return Pose.identity()
    return Pose(euler_to_rotation(0.05 * index, 0.0, 0.0), np.array([0.3 * index, 0.0, 0.0]))


@st.composite
def _track_frames(draw, moving: bool, pool: int = 16):
    """(frontend result, ground truth) per frame: ids from a small pool, so
    tracks persist, tie in length and leave; some frames are empty."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    landmarks = rng.uniform(-5.0, 5.0, (pool, 3)) + np.array([8.0, 0.0, 0.0])
    frames = []
    for index in range(draw(st.integers(min_value=1, max_value=10))):
        ids = draw(st.lists(st.integers(min_value=0, max_value=pool - 1), unique=True, max_size=12))
        noise = [draw(st.tuples(_NOISE, _NOISE, _NOISE)) for _ in ids]
        truth = _truth(index, moving)
        points = (landmarks[ids] - truth.translation) @ truth.rotation + rng.normal(0.0, 0.01, (len(ids), 3))
        frames.append((_frontend_result(index, ids, points, noise), truth))
    return frames


def _rows_bits(track) -> list:
    rows = track.observations if isinstance(track, _TrackRecord) else track
    return [(frame, type(frame), point.tobytes(), noise.tobytes()) for frame, point, noise in rows]


def _arrays_bits(arrays) -> Optional[tuple]:
    return None if arrays is None else tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def _recording_updates(vio: Msckf, log: list) -> None:
    """Log the tracks each frame hands the update, with the arrays gathered from them."""
    select = vio._select_update_tracks

    def recording(frontend):
        finished = select(frontend)
        log.append(([_rows_bits(track) for track in finished],
                    _arrays_bits(vio._gather_tracks(finished)) if finished else None))
        return finished

    vio._select_update_tracks = recording


def _msckf_bits(vio: Msckf) -> tuple:
    imu = vio.state.imu
    return ([(track_id, _rows_bits(track)) for track_id, track in vio._tracks.items()],
            vio.state.covariance.tobytes(), imu.rotation.tobytes(), imu.position.tobytes(),
            imu.velocity.tobytes(),
            [(c.frame_index, c.rotation.tobytes(), c.position.tobytes()) for c in vio.state.clones],
            vio.last_workload)


_NO_IMU = (np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))


class TestMsckfReaders:
    """Per-track row lists against ``_TrackRecord``s: the observations kept,
    the tracks selected (longest first, ties in first-seen order), the arrays
    gathered from them and the filter state after the update."""

    @staticmethod
    def _pair(config: MSCKFConfig, pose: Pose) -> Tuple[Msckf, Msckf, list, list]:
        got, reference = Msckf(config), _ReferenceMsckf(config)
        logs: Tuple[list, list] = ([], [])
        for vio, log in zip((got, reference), logs):
            vio.initialize(pose)
            _recording_updates(vio, log)
        return got, reference, logs[0], logs[1]

    @given(frames=_track_frames(moving=False),
           window=st.integers(min_value=2, max_value=6),
           min_track=st.integers(min_value=1, max_value=3),
           max_features=st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, frames, window, min_track, max_features):
        config = MSCKFConfig(window_size=window, min_track_for_update=min_track,
                             max_features_per_update=max_features)
        got, reference, got_log, expected_log = self._pair(config, Pose.identity())
        for frontend, _ in frames:
            got.process_frame(frontend, *_NO_IMU)
            reference.process_frame(_records(frontend), *_NO_IMU)
            assert got_log == expected_log
            assert _msckf_bits(got) == _msckf_bits(reference)

    def test_on_a_synthetic_segment(self, indoor_sequence):
        rig = indoor_sequence.rig
        frontend = VisualFrontend(rig=rig, dropout_probability=0.02, seed=1)
        records = _reference_frontend(rig=rig, dropout_probability=0.02, seed=1)
        got, reference, got_log, expected_log = self._pair(MSCKFConfig(window_size=8),
                                                           indoor_sequence.frames[0].ground_truth)
        used = 0
        for frame in indoor_sequence.frames:
            imu = (frame.imu_timestamps, frame.imu_gyro, frame.imu_accel)
            got.process_frame(frontend.process(frame), *imu)
            reference.process_frame(_reference_process_sparse(records, _dict_frame(frame), rig), *imu)
            assert got_log == expected_log
            assert _msckf_bits(got) == _msckf_bits(reference)
            used += got.last_workload.features_used
        assert used > 0


class _FilterEveryFrameMsckf(Msckf):
    """The MSCKF with its parent's track selection, verbatim: every live
    track's rows are filtered against the clone window on every frame."""

    def _select_update_tracks(self, frontend: FrontendResult) -> List[List[tuple]]:
        """Tracks that are lost this frame or have spanned the full window.

        The longest come first; equal lengths keep the tracks' first-seen order.
        """
        current_ids = set(frontend.track_ids.tolist())
        clone_frames = {clone.frame_index for clone in self.state.clones}
        finished: List[List[tuple]] = []
        for track_id in list(self._tracks.keys()):
            # Keep only observations that still have a clone in the window.
            observations = [row for row in self._tracks[track_id] if row[0] in clone_frames]
            if not observations:
                del self._tracks[track_id]
                continue
            self._tracks[track_id] = observations
            lost = track_id not in current_ids
            saturated = len(observations) >= self.config.window_size
            if (lost or saturated) and len(observations) >= self.config.min_track_for_update:
                finished.append(observations)
                del self._tracks[track_id]
        finished.sort(key=len, reverse=True)
        return finished[: self.config.max_features_per_update]


class TestMsckfSelectAfterPrune:
    """Filtering the tracks only after a clone left the window selects the
    same tracks, gathers the same arrays and leaves the same filter state as
    filtering on every frame."""

    @staticmethod
    def _pair(config: MSCKFConfig, pose: Pose) -> Tuple[Msckf, Msckf, list, list]:
        got, reference = Msckf(config), _FilterEveryFrameMsckf(config)
        logs: Tuple[list, list] = ([], [])
        for vio, log in zip((got, reference), logs):
            vio.initialize(pose)
            _recording_updates(vio, log)
        return got, reference, logs[0], logs[1]

    @given(frames=_track_frames(moving=False),
           window=st.integers(min_value=2, max_value=6),
           min_track=st.integers(min_value=1, max_value=3),
           max_features=st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_filtering_every_frame(self, frames, window, min_track, max_features):
        config = MSCKFConfig(window_size=window, min_track_for_update=min_track,
                             max_features_per_update=max_features)
        got, reference, got_log, expected_log = self._pair(config, Pose.identity())
        for frontend, _ in frames:
            got.process_frame(frontend, *_NO_IMU)
            reference.process_frame(frontend, *_NO_IMU)
            assert got_log == expected_log
            assert _msckf_bits(got) == _msckf_bits(reference)

    def test_on_a_synthetic_segment(self, indoor_sequence):
        rig = indoor_sequence.rig
        frontends = [VisualFrontend(rig=rig, dropout_probability=0.02, seed=1) for _ in range(2)]
        got, reference, got_log, expected_log = self._pair(MSCKFConfig(window_size=8),
                                                           indoor_sequence.frames[0].ground_truth)
        pruned = 0
        for frame in indoor_sequence.frames:
            imu = (frame.imu_timestamps, frame.imu_gyro, frame.imu_accel)
            pruned += len(got.state.clones) == got.config.window_size
            got.process_frame(frontends[0].process(frame), *imu)
            reference.process_frame(frontends[1].process(frame), *imu)
            assert got_log == expected_log
            assert _msckf_bits(got) == _msckf_bits(reference)
        assert pruned > 0, "the window never filled — no prune was exercised"


class TestAutoscalerPercentile:
    """The autoscaler's sorted-list percentile against ``np.percentile``,
    which it replaced on the decision path, bit for bit."""

    @given(values=st.lists(st.one_of(st.sampled_from([0.0, 200.0, 400.0, 0.8, 1.6]),
                                     st.floats(min_value=0.0, max_value=1e4,
                                               allow_nan=False, allow_infinity=False)),
                           min_size=1, max_size=300),
           percent=st.one_of(st.sampled_from([50.0, 95.0]),
                             st.floats(min_value=0.0, max_value=100.0)))
    @settings(max_examples=400, deadline=None)
    def test_matches_numpy(self, values, percent):
        assert _percentile(values, percent).hex() == float(np.percentile(values, percent)).hex()


def _slam_bits(slam: SlamBackend, result: BackendResult) -> tuple:
    relative = slam._last_relative
    return (result.pose.rotation.tobytes(), result.pose.translation.tobytes(), result.workload,
            result.diagnostics, _mapper_bits(slam.mapper),
            None if relative is None else (relative.rotation.tobytes(), relative.translation.tobytes()),
            slam.tracker._descriptor_rng.bit_generator.state)


def _assert_map_mirrors_mapper(slam: SlamBackend, mirror: _ReferenceMap) -> None:
    """``slam.map`` against the per-frame ``update_point`` mirror of the
    mapper's landmarks that the next frame used to start from."""
    for track_id, position in slam.mapper.landmarks.items():
        mirror.update_point(track_id, position)
    assert slam.map.point_ids.dtype == np.int64
    assert slam.map.point_ids.tolist() == list(mirror.points)
    assert slam.map.positions.dtype == mirror.positions.dtype
    assert slam.map.positions.shape == mirror.positions.shape
    assert slam.map.positions.tobytes() == mirror.positions.tobytes()
    assert slam.map.row_of == {point_id: row for row, point_id in enumerate(mirror.points)}
    assert not slam.map.has_descriptor.any()


class TestSlamReaders:
    """The odometry pairs, weights and coverage from the columns against the
    dicts built from records, through whole SLAM steps; and the tracking map,
    rebuilt after each keyframe insertion, against the per-frame sync."""

    @given(frames=_track_frames(moving=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, frames):
        got, reference = SlamBackend(), _ReferenceSlam()
        mirror = _ReferenceMap()
        for frontend, truth in frames:
            frame = Frame(index=frontend.frame_index, timestamp=frontend.timestamp, ground_truth=truth)
            assert _slam_bits(got, got.process(frontend, frame)) == \
                _slam_bits(reference, reference.process(_records(frontend), frame))
            _assert_map_mirrors_mapper(got, mirror)

    def test_odometry_weights_round_as_per_row_powers(self):
        """Noise rows whose mean squares differently under Python's float
        power and numpy's ``**``: the odometry must weight as the records did."""
        rng = np.random.default_rng(9)
        rows = rng.uniform(0.01, 0.5, (100000, 3))
        means = rows.mean(axis=1)
        differ = rows[np.array([m**2 for m in means.tolist()]) != means**2][:12]
        assert len(differ) == 12
        landmarks = rng.uniform(-5.0, 5.0, (12, 3)) + np.array([8.0, 0.0, 0.0])
        got, reference = SlamBackend(), _ReferenceSlam()
        for index in range(3):
            truth = _truth(index, moving=True)
            points = (landmarks - truth.translation) @ truth.rotation
            frontend = _frontend_result(index, np.arange(12), points, differ)
            frame = Frame(index=index, timestamp=frontend.timestamp, ground_truth=truth)
            assert _slam_bits(got, got.process(frontend, frame)) == \
                _slam_bits(reference, reference.process(_records(frontend), frame))
        assert got._last_relative is not None

    def test_on_a_synthetic_segment(self, indoor_sequence):
        rig = indoor_sequence.rig
        frontend = VisualFrontend(rig=rig, dropout_probability=0.02, seed=2)
        records = _reference_frontend(rig=rig, dropout_probability=0.02, seed=2)
        got, reference = SlamBackend(camera=rig.camera), _ReferenceSlam(camera=rig.camera)
        mirror = _ReferenceMap()
        tracked = 0
        for frame in indoor_sequence.frames:
            assert _slam_bits(got, got.process(frontend.process(frame), frame)) == \
                _slam_bits(reference, reference.process(
                    _reference_process_sparse(records, _dict_frame(frame), rig), frame))
            _assert_map_mirrors_mapper(got, mirror)
            tracked += got.tracker.last_workload.map_points > 0
        assert got._last_relative is not None and len(got.mapper.keyframes) > 1
        # Keyframes leave frames in between, which track against the map the
        # last insertion built.
        assert len(got.mapper.keyframes) < len(indoor_sequence.frames) and tracked > 0


@st.composite
def _registration_cases(draw, pool: int = 20):
    """A map whose points match a track by id, by id but with no descriptor,
    only by descriptor (another id), or not at all, in a drawn order; and a
    frame of tracks from a slightly larger pool."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    landmarks = rng.uniform(-5.0, 5.0, (pool + 4, 3)) + np.array([8.0, 0.0, 0.0])
    kinds = [draw(st.sampled_from(["id", "bare", "alias", "absent"])) for _ in range(pool)]
    points = []
    for k in draw(st.permutations(range(pool))):
        position = landmarks[k] + rng.normal(0.0, 0.05, 3)
        descriptor = descriptor_from_seed(k * 2654435761 % (2**31))
        if kinds[k] == "id":
            points.append((k, position, descriptor))
        elif kinds[k] == "bare":
            points.append((k, position, None))
        elif kinds[k] == "alias":
            points.append((1000 + k, position, descriptor))
    ids = draw(st.lists(st.integers(min_value=0, max_value=pool + 3), unique=True, max_size=16))
    truth = Pose(euler_to_rotation(*rng.uniform(-0.3, 0.3, 3)), rng.normal(0.0, 1.0, 3))
    noise = [draw(st.tuples(_NOISE, _NOISE, _NOISE)) for _ in ids]
    body = (landmarks[ids] - truth.translation) @ truth.rotation + rng.normal(0.0, 0.02, (len(ids), 3))
    return points, _frontend_result(3, ids, body, noise), draw(st.sampled_from([1, 3, 8, 30]))


def _map(points: List[tuple]) -> LocalizationMap:
    """The column map of ``(id, position, descriptor or None)`` points."""
    return LocalizationMap([point_id for point_id, _, _ in points],
                           np.array([position for _, position, _ in points]).reshape(-1, 3),
                           np.array([np.zeros(32, dtype=np.uint8) if descriptor is None else descriptor
                                     for _, _, descriptor in points], dtype=np.uint8).reshape(-1, 32),
                           [descriptor is not None for _, _, descriptor in points])


def _reference_map(points: List[tuple]) -> _ReferenceMap:
    return _ReferenceMap([_MapPoint(point_id, position, descriptor)
                          for point_id, position, descriptor in points])


def _tracker_bits(tracker: MapTracker, pose: Optional[Pose], workload, rng: bool = True) -> tuple:
    return (None if pose is None else (pose.rotation.tobytes(), pose.translation.tobytes()), workload,
            [(point_id, type(point_id), observed.tobytes(), residual.hex())
             for point_id, observed, residual in tracker.last_map_observations],
            tracker._descriptor_rng.bit_generator.state if rng else None)


class TestRegistrationReaders:
    """``_match``'s columns against its 4-tuples, ``_estimate_pose`` on them,
    the descriptor fallback's draws and the map-update triples."""

    @given(case=_registration_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, case):
        self._assert_matches_reference(*case)

    def test_some_points_without_descriptors(self):
        """Identity matches run short, so the descriptor fallback runs over a
        column map whose every third point carries no descriptor: the
        described rows must map back to the right ids and positions."""
        rng = np.random.default_rng(11)
        landmarks = rng.uniform(-5.0, 5.0, (24, 3)) + np.array([8.0, 0.0, 0.0])
        points = [(k if k % 3 else 1000 + k, landmarks[k] + rng.normal(0.0, 0.05, 3),
                   None if k % 3 == 1 else descriptor_from_seed(k * 2654435761 % (2**31)))
                  for k in range(24)]
        ids = list(range(0, 24, 2))
        truth = Pose(euler_to_rotation(0.1, -0.2, 0.3), np.array([0.5, -0.3, 0.2]))
        body = (landmarks[ids] - truth.translation) @ truth.rotation + rng.normal(0.0, 0.02, (len(ids), 3))
        frontend = _frontend_result(3, ids, body, [(0.05, 0.02, 0.02)] * len(ids))
        assert not _map(points).has_descriptor.all()
        map_ids = self._assert_matches_reference(points, frontend, 30)
        assert any(map_id >= 1000 for map_id in map_ids) and any(map_id < 1000 for map_id in map_ids)

    def _assert_matches_reference(self, points, frontend, min_inliers) -> List[int]:
        config = TrackingConfig(min_inliers=min_inliers)
        got, reference = MapTracker(config), _ReferenceTracker(config)
        records = _records(frontend)
        map_ids, body, world, sigma = got._match(frontend, _map(points))
        expected = reference._match(records, _reference_map(points))
        assert [(m, type(m)) for m in map_ids.tolist()] == [(int(c[0]), int) for c in expected]
        assert _arrays_bits((body, world, sigma)) == _arrays_bits((
            np.array([c[1] for c in expected]).reshape(-1, 3),
            np.array([c[2] for c in expected]).reshape(-1, 3),
            np.array([c[3] for c in expected], dtype=float)))
        assert _same_state(got._descriptor_rng, reference._descriptor_rng)
        # The flips are drawn per row, in row order.
        assert got._track_descriptors(frontend).tobytes() == \
            reference._track_descriptors(records).tobytes()
        assert _tracker_bits(got, *got.track(frontend, _map(points))) == \
            _tracker_bits(reference, *reference.track(records, _reference_map(points)))
        return map_ids.tolist()

    def test_on_a_survey_map(self, indoor_mapped_sequence):
        """The reference still runs the deleted update stage, drawing each
        tracked frame's descriptors for a keyframe; no pose, workload or
        map-update bit may depend on it.  Only the descriptor generators
        part ways, so their states are left out."""
        rig = indoor_mapped_sequence.rig
        frontend = VisualFrontend(rig=rig, dropout_probability=0.02, seed=3)
        records = _reference_frontend(rig=rig, dropout_probability=0.02, seed=3)
        got, reference = MapTracker(camera=rig.camera), _ReferenceTracker(camera=rig.camera)
        got_map = LocalizationMap.from_world(indoor_mapped_sequence.world, seed=4)
        reference_map, _ = _reference_from_world(_landmark_rows(indoor_mapped_sequence.world), seed=4,
                                                 vocabulary=SimpleNamespace(trained=True))
        for frame in indoor_mapped_sequence.frames:
            prior = frame.ground_truth
            got_bits = _tracker_bits(got, *got.track(frontend.process(frame), got_map, prior), rng=False)
            assert got_bits == _tracker_bits(reference, *reference.track(
                _reference_process_sparse(records, _dict_frame(frame), rig), reference_map, prior),
                rng=False)
        assert len(reference_map.keyframes) > len(indoor_mapped_sequence.frames) // 2


# ------------------------------------------------------------ per-frame trims


def _reference_project(camera, points_camera: np.ndarray) -> tuple:
    points = np.asarray(points_camera, dtype=float).reshape(-1, 3)
    z = points[:, 2]
    in_front = z > 1e-6
    safe_z = np.where(in_front, z, 1.0)
    u = camera.fx * points[:, 0] / safe_z + camera.cx
    v = camera.fy * points[:, 1] / safe_z + camera.cy
    pixels = np.stack([u, v], axis=1)
    inside = (
        (u >= 0.0)
        & (u < camera.width)
        & (v >= 0.0)
        & (v < camera.height)
    )
    return pixels, in_front & inside


def _reference_back_project(camera, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    depths = np.asarray(depths, dtype=float).reshape(-1)
    x = (pixels[:, 0] - camera.cx) / camera.fx * depths
    y = (pixels[:, 1] - camera.cy) / camera.fy * depths
    return np.stack([x, y, depths], axis=1)


def _reference_camera_frame_from_body(points_body: np.ndarray) -> np.ndarray:
    points_body = np.asarray(points_body, dtype=float).reshape(-1, 3)
    return np.stack(
        [
            -points_body[:, 1],
            -points_body[:, 2],
            points_body[:, 0],
        ],
        axis=1,
    )


def _reference_body_frame_from_camera(points_camera: np.ndarray) -> np.ndarray:
    points_camera = np.asarray(points_camera, dtype=float).reshape(-1, 3)
    return np.stack(
        [
            points_camera[:, 2],
            -points_camera[:, 0],
            -points_camera[:, 1],
        ],
        axis=1,
    )


def _reference_stereo_point_noise(depth, fx: float, baseline: float,
                                  pixel_noise: float, floor: float = 0.02) -> np.ndarray:
    depth = np.maximum(np.asarray(depth, dtype=float), 1e-3)
    sigma_disparity = pixel_noise * np.sqrt(2.0)
    sigma_depth = depth * depth * sigma_disparity / max(fx * baseline, 1e-9)
    sigma_lateral = depth * pixel_noise / max(fx, 1e-9)
    return np.maximum(np.stack([sigma_depth, sigma_lateral, sigma_lateral], axis=-1), floor)


def _reference_batched_residuals(self, gathered, rotations, translations, landmarks):
    kf_idx, lm_idx, meas, sigma = gathered
    rot = rotations[kf_idx]                                   # (n, 3, 3)
    delta = landmarks[lm_idx] - translations[kf_idx]          # (n, 3)
    predicted = np.einsum("nji,nj->ni", rot, delta)           # R^T (l - t)
    residual = meas - predicted
    base = 1.0 / sigma**2
    norm = np.linalg.norm(residual, axis=1) / sigma
    weight = np.where(
        norm <= self.config.huber_delta,
        base,
        base * self.config.huber_delta / np.maximum(norm, 1e-12),
    )
    return rot, delta, residual, weight


def _reference_should_insert_keyframe(self, pose: Pose) -> bool:
    if not self.keyframes:
        return True
    last = self.keyframes[-1].pose
    translation = float(np.linalg.norm(pose.translation - last.translation))
    rotation = pose.rotation_angle_to(last)
    return translation > self.config.keyframe_translation or rotation > self.config.keyframe_rotation


def _reference_estimate_pose(self, body, world, sigma):
    sigma = np.maximum(sigma, 1e-3)
    base_weights = 1.0 / sigma**2
    weights = base_weights.copy()
    pose = Pose.identity()
    iterations = 0
    inliers = len(body)
    for iteration in range(self.config.pnp_iterations):
        iterations += 1
        pose = _weighted_horn(body, world, weights)
        predicted = pose.transform_points(body)
        errors = np.linalg.norm(predicted - world, axis=1)
        threshold = self.config.pnp_inlier_threshold * np.maximum(sigma, 0.05)
        inlier_mask = errors <= threshold
        inliers = int(inlier_mask.sum())
        new_weights = base_weights * inlier_mask.astype(float)
        if inliers < self.config.min_inliers:
            new_weights = base_weights
            inliers = len(body)
        if np.allclose(new_weights, weights):
            break
        weights = new_weights
    return pose, inliers, iterations


class _ReferenceStopwatch(StopwatchCollector):
    @contextmanager
    def measure(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self.timings.append(KernelTiming(name, elapsed_ms))


_TRIM_FLOATS = _signed(st.floats(min_value=-1e3, max_value=1e3))
_INF_NAN = st.sampled_from([np.inf, -np.inf, np.nan])


def _matrices(columns: int, min_rows: int = 0, elements=_TRIM_FLOATS):
    return st.integers(min_value=min_rows, max_value=12).flatmap(
        lambda rows: st.lists(st.lists(elements, min_size=columns, max_size=columns),
                              min_size=rows, max_size=rows).map(
            lambda values: np.array(values, dtype=float).reshape(rows, columns)))


def _poses():
    return st.builds(lambda angles, translation: Pose(euler_to_rotation(*angles),
                                                      np.array(translation)),
                     st.lists(st.floats(min_value=-3.2, max_value=3.2), min_size=3, max_size=3),
                     st.lists(_TRIM_FLOATS, min_size=3, max_size=3))


class _NdarraySubclass(np.ndarray):
    pass


class TestPerFrameTrims:
    """Each trim of per-call NumPy overhead against its parent, verbatim."""

    CAMERA = PinholeCamera.from_fov(320, 240, 90.0)

    @given(points=_matrices(3, elements=st.one_of(_TRIM_FLOATS, _INF_NAN)))
    @settings(max_examples=150, deadline=None)
    def test_project(self, points):
        with np.errstate(all="ignore"):
            got = self.CAMERA.project(points)
            expected = _reference_project(self.CAMERA, points)
        assert all(_same_bits(a, b) for a, b in zip(got, expected))

    @given(pixels=_matrices(2), depths=st.lists(_TRIM_FLOATS, min_size=12, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_back_project(self, pixels, depths):
        depths = np.array(depths[:pixels.shape[0]])
        assert _same_bits(self.CAMERA.back_project(pixels, depths),
                          _reference_back_project(self.CAMERA, pixels, depths))

    @given(points=_matrices(3, elements=st.one_of(_TRIM_FLOATS, _INF_NAN)))
    @settings(max_examples=150, deadline=None)
    def test_frame_conversions(self, points):
        # Flat and Fortran-ordered input too: the output is C-ordered (n, 3).
        for given in (points, points.ravel(), np.asfortranarray(points)):
            for convert, reference in ((camera_frame_from_body, _reference_camera_frame_from_body),
                                       (body_frame_from_camera, _reference_body_frame_from_camera)):
                got, expected = convert(given), reference(given)
                assert _same_bits(got, expected)
                assert got.flags.c_contiguous and expected.flags.c_contiguous

    @given(depths=st.one_of(_TRIM_FLOATS, st.lists(_TRIM_FLOATS, max_size=12)),
           fx=st.floats(min_value=1e-12, max_value=1e3), baseline=st.floats(min_value=0.0, max_value=2.0),
           pixel_noise=_signed(st.floats(min_value=0.0, max_value=5.0)),
           floor=_signed(st.floats(min_value=0.0, max_value=0.1)))
    @settings(max_examples=150, deadline=None)
    def test_stereo_point_noise(self, depths, fx, baseline, pixel_noise, floor):
        assert _same_bits(stereo_point_noise(depths, fx, baseline, pixel_noise, floor),
                          _reference_stereo_point_noise(depths, fx, baseline, pixel_noise, floor))

    @given(values=_matrices(3, elements=st.one_of(_TRIM_FLOATS, _INF_NAN)),
           wide=_matrices(9, min_rows=1))
    @settings(max_examples=150, deadline=None)
    def test_row_norms_are_linalg_norm(self, values, wide):
        """The formula the MSCKF gate, window BA and PnP now spell out."""
        for x in (values, wide):
            with np.errstate(all="ignore"):
                assert _same_bits(np.sqrt(np.add.reduce(x * x, axis=1)),
                                  np.linalg.norm(x, axis=1))

    @given(data=st.data(), rows=st.integers(min_value=0, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_batched_residuals(self, data, rows):
        def floats(*shape, elements=_TRIM_FLOATS):
            size = int(np.prod(shape))
            return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                            dtype=float).reshape(shape)

        def indices(bound):
            return np.array(data.draw(st.lists(st.integers(0, bound - 1), min_size=rows,
                                               max_size=rows)), dtype=np.int64)

        gathered = (indices(3), indices(5), floats(rows, 3),
                    floats(rows, elements=st.floats(min_value=1e-3, max_value=2.0)))
        state = (so3_exp_batch(floats(3, 3, elements=st.floats(-3.0, 3.0))), floats(3, 3), floats(5, 3))
        mapper = KeyframeMapper(MappingConfig(huber_delta=data.draw(st.floats(0.1, 5.0))))
        got = mapper._batched_residuals(gathered, *state)
        expected = _reference_batched_residuals(mapper, gathered, *state)
        assert all(_same_bits(a, b) for a, b in zip(got, expected))

    @given(first=_poses(), second=_poses(), translation=st.floats(0.0, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_should_insert_keyframe(self, first, second, translation):
        mapper = KeyframeMapper(MappingConfig(keyframe_translation=translation))
        assert mapper.should_insert_keyframe(second) is _reference_should_insert_keyframe(mapper, second)
        mapper.keyframes.append(SimpleNamespace(pose=first))
        assert mapper.should_insert_keyframe(second) is _reference_should_insert_keyframe(mapper, second)
        # Exactly at the threshold: the strict comparison must agree too.
        offset = second.translation - first.translation
        mapper.config.keyframe_translation = float(np.linalg.norm(offset))
        assert mapper.should_insert_keyframe(second) is _reference_should_insert_keyframe(mapper, second)

    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(3, 30),
           outliers=st.floats(0.0, 0.6), min_inliers=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_estimate_pose(self, seed, count, outliers, min_inliers):
        rng = np.random.default_rng(seed)
        truth = Pose(so3_exp(rng.normal(0.0, 0.5, 3)), rng.normal(0.0, 2.0, 3))
        body = rng.uniform(-5.0, 5.0, (count, 3))
        world = truth.transform_points(body) + rng.normal(0.0, 0.02, (count, 3))
        bad = rng.random(count) < outliers
        world[bad] += rng.normal(0.0, 3.0, (int(bad.sum()), 3))
        sigma = rng.uniform(0.0, 0.3, count)
        sigma[rng.random(count) < 0.2] = 0.0
        tracker = MapTracker(TrackingConfig(min_inliers=min_inliers))
        pose, inliers, iterations = tracker._estimate_pose(body, world, sigma)
        ref_pose, ref_inliers, ref_iterations = _reference_estimate_pose(tracker, body, world, sigma)
        assert (inliers, iterations) == (ref_inliers, ref_iterations)
        assert _same_bits(pose.rotation, ref_pose.rotation)
        assert _same_bits(pose.translation, ref_pose.translation)

    @given(new=_matrices(1, min_rows=1, elements=_signed(st.floats(0.0, 1e6))),
           scale=st.sampled_from([0.0, 1e-9, 1e-8, 1e-6, 1e-5, 1e-3, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_allclose_predicate(self, new, scale):
        """``_estimate_pose``'s convergence test is ``np.allclose``'s own
        predicate on finite weights, at and around its tolerances."""
        new = new.ravel()
        for weights in (new, new * (1.0 + scale), new + scale, np.zeros_like(new), -new):
            assert bool((np.abs(new - weights) <= 1e-08 + 1e-05 * np.abs(weights)).all()) \
                is bool(np.allclose(new, weights))

    def test_stopwatch_sections(self):
        """Same names in the same order, each a float, and a block that
        raises is still timed and still raises."""
        runs = []
        for stopwatch in (StopwatchCollector(), _ReferenceStopwatch()):
            with stopwatch.measure("a") as entered:
                assert entered is None
            with pytest.raises(KeyError):
                with stopwatch.measure("b"):
                    raise KeyError("b")
            with stopwatch.measure("a"):
                stopwatch.reset()
            runs.append([(t.name, type(t.milliseconds)) for t in stopwatch.timings])
            assert all(t.milliseconds >= 0.0 for t in stopwatch.timings)
        assert runs[0] == runs[1] == [("a", float)]

    @given(rotation=_matrices(3, min_rows=3), translation=st.lists(_TRIM_FLOATS, min_size=3, max_size=3),
           form=st.sampled_from(["array", "list", "float32", "flat", "column", "subclass"]))
    @settings(max_examples=150, deadline=None)
    def test_pose_construction(self, rotation, translation, form):
        rotation = rotation[:3]
        translation = np.array(translation)
        given_rotation, given_translation = {
            "array": (rotation, translation),
            "list": (rotation.tolist(), translation.tolist()),
            "float32": (rotation.astype(np.float32), translation.astype(np.float32)),
            "flat": (rotation.ravel(), translation.reshape(1, 3)),
            "column": (rotation, translation.reshape(3, 1)),
            "subclass": (rotation.view(_NdarraySubclass), translation),
        }[form]
        pose = Pose(given_rotation, given_translation)
        expected_rotation = np.asarray(given_rotation, dtype=float).reshape(3, 3)
        expected_translation = np.asarray(given_translation, dtype=float).reshape(3)
        for got, expected in ((pose.rotation, expected_rotation),
                              (pose.translation, expected_translation)):
            assert type(got) is np.ndarray
            assert _same_bits(got, expected)
        if form == "array":
            # Kept, not copied: the parent's reshape made a view of the same memory.
            assert pose.rotation is rotation and pose.translation is translation


# ------------------------------------------------------- host numpy canary


def _host_message(loop: str, kernel: str = "the array ground-truth and IMU synthesis") -> str:
    return (f"this host's numpy {loop} loop differs from its per-element result, so {kernel} "
            "cannot reproduce the scalar bits here.  The code is not at fault: record this host "
            "and the one that pinned the signatures (ROADMAP.md, 'Standing constraints for array "
            "work') and stop; keep the per-row form and never re-pin the goldens to one host.")


_RODRIGUES = "the batched Rodrigues formula (so3_exp_batch)"


class TestHostNumpyLoops:
    """The array synthesis, the batched Rodrigues formula and the SLAM
    readers are exact only while these loops agree, on this host, with the
    per-element values the scalar code computed."""

    @staticmethod
    def _angles(rng: np.random.Generator) -> np.ndarray:
        return np.concatenate([
            rng.uniform(-200.0, 200.0, 20000), rng.uniform(-4.0, 4.0, 5000),
            [0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, np.pi / 2.0, 1e-300, -1e-300, 1e6, -1e6]])

    def test_sin_cos(self):
        angles = self._angles(np.random.default_rng(1))
        for name, ufunc in (("sin", np.sin), ("cos", np.cos)):
            expected = np.array([ufunc(x) for x in angles.tolist()])
            assert _same_bits(ufunc(angles), expected), _host_message(name)

    def test_arctan2(self):
        rng = np.random.default_rng(2)
        y, x = rng.normal(0.0, 1.0, (2, 20000)) * 10.0 ** rng.uniform(-6, 2, (2, 20000))
        y = np.concatenate([y, [0.0, -0.0, 0.0, -0.0, 1.0, -1.0]])
        x = np.concatenate([x, [1.0, 1.0, -1.0, -1.0, 0.0, -0.0]])
        expected = np.array([np.arctan2(a, b) for a, b in zip(y.tolist(), x.tolist())])
        assert _same_bits(np.arctan2(y, x), expected), _host_message("arctan2")

    def test_remainder_and_floor_divide(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([self._angles(rng), rng.uniform(-0.01, 120.0, 10000)])
        for divisor in (2.0 * np.pi, 29.333333333333332, 0.7, 1e-3):
            remainder = np.array([v % divisor for v in values.tolist()])
            quotient = np.array([v // divisor for v in values.tolist()])
            assert _same_bits(np.remainder(values, divisor), remainder), _host_message("remainder")
            assert _same_bits(np.floor_divide(values, divisor), quotient), _host_message("floor_divide")

    def test_stacked_matmul(self):
        rng = np.random.default_rng(4)
        n = 4000
        left = rng.normal(size=(n, 3, 3))
        right = rng.normal(size=(3, 3))
        vectors = rng.normal(size=(n, 3))
        expected = np.array([m @ right for m in left])
        assert _same_bits(left @ right, expected), _host_message("stacked matmul")
        transposed = left.transpose(0, 2, 1)
        expected = np.array([m.T @ v for m, v in zip(left, vectors)])
        assert _same_bits((transposed @ vectors[:, :, None])[:, :, 0], expected), \
            _host_message("stacked matrix-vector matmul")
        planar = vectors[:, :2]
        expected = np.array([np.linalg.norm(v) for v in planar])
        assert _same_bits(np.sqrt((planar[:, None, :] @ planar[:, :, None])[:, 0, 0]), expected), \
            _host_message("stacked dot-product matmul")

    def test_stacked_dot_of_rotation_vectors(self):
        """``so3_exp_batch``'s angles against ``so3_exp``'s per-row norm."""
        rng = np.random.default_rng(5)
        vectors = np.concatenate([
            rng.normal(size=(6000, 3)) * 10.0 ** rng.uniform(-12, 3, (6000, 1)),
            rng.normal(0.0, 1e-10, (500, 3)), rng.normal(0.0, 1e150, (100, 3)),
            [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-300, 0.0, 0.0], [0.0, -5e-10, 0.0]]])
        expected = np.array([float(np.linalg.norm(v)) for v in vectors])
        got = np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])
        assert _same_bits(got, expected), _host_message("stacked dot-product matmul", _RODRIGUES)

    def test_stacked_3x3_products(self):
        """``k @ k`` of the batched Rodrigues, and the stacked rotations and
        running sums of the IMU synthesis."""
        rng = np.random.default_rng(6)
        k = skew_batch(rng.normal(size=(4000, 3)) * 10.0 ** rng.uniform(-6, 2, (4000, 1)))
        expected = np.array([m @ m for m in k])
        assert _same_bits(k @ k, expected), _host_message("stacked 3x3 matmul", _RODRIGUES)
        rotations = np.array([euler_to_rotation(*angles)
                              for angles in rng.uniform(-np.pi, np.pi, (4000, 3))])
        vectors = rng.normal(0.0, 5.0, (4000, 3))
        expected = np.array([r @ v for r, v in zip(rotations, vectors)])
        assert _same_bits((rotations @ vectors[:, :, None])[:, :, 0], expected), \
            _host_message("stacked matrix-vector matmul")
        running = [vectors[0]]
        for row in vectors[1:]:
            running.append(running[-1] + row)
        assert _same_bits(np.cumsum(vectors, axis=0), np.array(running)), \
            _host_message("cumulative sum")

    def test_row_means(self):
        """The SLAM readers take ``noise_std.mean(axis=1)`` (whole columns and
        fancy-indexed rows) where the records took ``float(np.mean(row))``."""
        rng = np.random.default_rng(8)
        rows = np.concatenate([
            rng.uniform(0.0, 1.0, (60000, 3)) * 10.0 ** rng.uniform(-8, 3, (60000, 1)),
            rng.uniform(0.0, 1.0, (20000, 3)) * 10.0 ** rng.uniform(-8, 3, (20000, 3)),
            np.repeat(rng.uniform(0.0, 1.0, (2000, 1)), 3, axis=1),
            [[0.02, 0.02, 0.02], [1e-3, 1e-3, 2e-3], [1e-300, 1e-300, 1e-300],
             [5e-324, 0.0, 5e-324], [0.0, 0.0, 0.0], [1e300, 1e300, 1e300]]])
        expected = np.array([float(np.mean(row)) for row in rows])
        message = _host_message("row-mean reduction", "the columnar SLAM readers")
        assert _same_bits(rows.mean(axis=1), expected), message
        picked = rng.permutation(len(rows))[:5000]
        assert _same_bits(rows[picked].mean(axis=1), expected[picked]), message


# ------------------------------------------------ servbench signature check


class TestServbenchSignatureCheck:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_servbench_signatures.py"
    PINNED = json.loads((Path(__file__).resolve().parent / "data"
                         / "servbench_signatures.json").read_text())

    def _run(self, seed, waves):
        lines = [json.dumps({"host": {}, "workload": "map_lifecycle", "seed": seed, "passes": 2})]
        lines += [f"signature map_lifecycle wave={label} {signature} (checked on 2 passes)"
                  for label, signature in waves.items()]
        lines.append(json.dumps({"correct": True}))
        return subprocess.run([sys.executable, str(self.SCRIPT)], input="\n".join(lines) + "\n",
                              capture_output=True, text=True)

    def test_pinned_run_passes_and_output_passes_through(self):
        waves = self.PINNED["workloads"]["map_lifecycle"]
        done = self._run(self.PINNED["seed"], waves)
        assert done.returncode == 0, done.stderr
        assert '{"correct": true}' in done.stdout

    @pytest.mark.parametrize("change", ["moved_bit", "missing_wave", "other_seed"])
    def test_any_difference_fails(self, change):
        waves = dict(self.PINNED["workloads"]["map_lifecycle"])
        seed = self.PINNED["seed"]
        if change == "moved_bit":
            waves["warm"] = waves["warm"][::-1]
        elif change == "missing_wave":
            del waves["drift"]
        else:
            seed += 1
        assert self._run(seed, waves).returncode == 1
