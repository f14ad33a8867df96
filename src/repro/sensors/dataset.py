"""Synthetic dataset generation: frames, sequences and builders.

A :class:`SyntheticSequence` plays the role of a KITTI/EuRoC/in-house
recording: a list of :class:`Frame` objects carrying noisy landmark
observations, IMU batches, optional GPS fixes and (optionally) rendered
stereo images, plus the ground-truth trajectory and the landmark world the
sequence was generated from.  A frame's observations are columns: the ids
of the visible landmarks in world order and their noisy left and right
pixels, one row per landmark.  Its IMU batch is columns too: the timestamps,
gyro and accelerometer readings since the previous frame, one row per
reading, sliced from the segment's one IMU measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.common.camera import PinholeCamera, StereoRig, world_to_camera
from repro.common.config import SensorConfig
from repro.common.geometry import Pose
from repro.sensors.gps import GpsSample, GpsSimulator
from repro.sensors.imaging import ImageRenderer
from repro.sensors.imu import ImuSimulator
from repro.sensors.scenarios import OperatingScenario, ScenarioKind
from repro.sensors.world import LandmarkWorld, camera_frame_from_body


def segment_frame_count(duration: float, camera_rate_hz: float) -> int:
    """Frames a segment of ``duration`` seconds produces (never below 2)."""
    return max(2, int(round(duration * camera_rate_hz)))


def segment_frame_times(duration: float, camera_rate_hz: float,
                        start_time: float = 0.0) -> np.ndarray:
    """The frame timestamps of a segment starting at ``start_time``.

    :meth:`SequenceBuilder.build` stamps its frames with exactly these
    values, so the serving schedule can be computed without building one.
    """
    return (start_time
            + np.arange(segment_frame_count(duration, camera_rate_hz)) / camera_rate_hz)


@dataclass
class Frame:
    """All sensor data associated with one camera epoch.

    Row ``i`` of ``left_pixels`` and ``right_pixels`` (float64, shape
    ``(n, 2)``) is the noisy stereo observation of landmark
    ``landmark_ids[i]`` (int64, shape ``(n,)``).

    Row ``k`` of ``imu_gyro`` and ``imu_accel`` (float64, shape ``(m, 3)``) is
    the body-frame angular velocity and specific force read at
    ``imu_timestamps[k]`` (float64, shape ``(m,)``).  The batch runs from the
    previous frame's epoch to this one's, both included, so consecutive
    frames share their boundary timestamp; frame 0 of a segment has ``m = 0``.
    The columns are views of the segment's one measurement.
    """

    index: int
    timestamp: float
    ground_truth: Pose
    landmark_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    left_pixels: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    right_pixels: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    imu_timestamps: np.ndarray = field(default_factory=lambda: np.zeros(0))
    imu_gyro: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    imu_accel: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    gps: Optional[GpsSample] = None
    scenario: ScenarioKind = ScenarioKind.OUTDOOR_UNKNOWN
    left_image: Optional[np.ndarray] = None
    right_image: Optional[np.ndarray] = None
    ground_truth_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @property
    def observation_count(self) -> int:
        return self.landmark_ids.size

    @property
    def has_gps(self) -> bool:
        return self.gps is not None and self.gps.valid

    @property
    def has_images(self) -> bool:
        return self.left_image is not None and self.right_image is not None


@dataclass
class SyntheticSequence:
    """A generated sequence together with its world and rig."""

    frames: List[Frame]
    world: LandmarkWorld
    rig: StereoRig
    scenario: ScenarioKind
    config: SensorConfig
    has_prebuilt_map: bool = False

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    @property
    def duration(self) -> float:
        if len(self.frames) < 2:
            return 0.0
        return self.frames[-1].timestamp - self.frames[0].timestamp


class SequenceBuilder:
    """Builds :class:`SyntheticSequence` objects from operating scenarios."""

    def __init__(self, config: Optional[SensorConfig] = None, render_images: bool = False) -> None:
        self.config = config or SensorConfig()
        self.render_images = bool(render_images)

    def _camera(self) -> PinholeCamera:
        return PinholeCamera.from_fov(
            self.config.image_width, self.config.image_height, self.config.horizontal_fov_deg
        )

    def build(self, scenario: OperatingScenario, start_time: float = 0.0,
              start_index: int = 0, seed_offset: int = 0,
              world_seed: Optional[int] = None,
              world_mutator=None) -> SyntheticSequence:
        """Generate a full sequence for one operating scenario.

        ``world_seed`` decouples the landmark world from the session seed:
        sessions passing the same ``world_seed`` (and scenario shape)
        traverse the *same* physical environment while keeping their own
        sensor-noise streams — the substrate for cross-session map sharing.
        ``None`` keeps the legacy behavior (world derived from the session
        seed, every session in its own world).

        ``world_mutator`` (``LandmarkWorld -> LandmarkWorld``, optional) is
        applied to the generated world *before* any observation is sampled —
        the serving layer injects deterministic landmark-displacement bursts
        through it (a world that physically changed since it was first
        mapped), without perturbing the trajectory or sensor-noise streams.
        """
        config = self.config
        camera = self._camera()
        rig = StereoRig(camera=camera, baseline=config.stereo_baseline)
        seed = config.seed + seed_offset

        frame_times = segment_frame_times(scenario.duration, config.camera_rate_hz,
                                          start_time)

        # Sample the trajectory densely first so the world hugs the path.
        truth = scenario.trajectory.sample_array(frame_times - start_time)
        path_points = truth.positions
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

        imu_timestamps, imu_gyro, imu_accel = self._imu_batches(scenario, imu, frame_times, start_time)
        frames: List[Frame] = []
        for i, timestamp in enumerate(frame_times.tolist()):
            pose = Pose(truth.rotations[i], truth.positions[i])
            landmark_ids, left_pixels, right_pixels = self._observe(pose, world, rig, rng)
            gps_sample = gps.measure(timestamp, pose) if scenario.has_gps else None

            frame = Frame(
                index=start_index + i,
                timestamp=timestamp,
                ground_truth=pose,
                landmark_ids=landmark_ids,
                left_pixels=left_pixels,
                right_pixels=right_pixels,
                imu_timestamps=imu_timestamps[i],
                imu_gyro=imu_gyro[i],
                imu_accel=imu_accel[i],
                gps=gps_sample,
                scenario=scenario.kind,
                ground_truth_velocity=truth.velocities[i],
            )
            if renderer is not None:
                frame.left_image, frame.right_image = renderer.render(pose, world, frame_index=i)
            frames.append(frame)

        return SyntheticSequence(
            frames=frames,
            world=world,
            rig=rig,
            scenario=scenario.kind,
            config=config,
            has_prebuilt_map=scenario.has_map,
        )

    def _imu_batches(self, scenario: OperatingScenario, imu: ImuSimulator,
                     frame_times: np.ndarray, start_time: float
                     ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
        """Each frame's IMU columns, from the previous frame's epoch to its own.

        Returns per-frame ``timestamps``, ``gyro`` and ``accel`` slices.  Frame
        ``i > 0`` gets ``steps + 1`` rows at ``previous_time + step *
        (timestamp - previous_time) / steps``, both ends included; frame 0 gets
        none.  A segment has at least two frames; all its sub-steps are
        sampled in one call and measured in one call.
        """
        imu_dt = 1.0 / self.config.imu_rate_hz
        epochs = frame_times.tolist()
        counts = np.array([max(1, int(round((timestamp - previous_time) / imu_dt))) + 1
                           for previous_time, timestamp in zip(epochs, epochs[1:])])
        bounds = np.concatenate([[0], np.cumsum(counts)])
        steps = np.repeat(counts - 1, counts)
        step = np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts)
        previous = np.repeat(frame_times[:-1], counts)
        span = np.repeat(frame_times[1:] - frame_times[:-1], counts)
        times = previous + step * span / steps
        truth = replace(scenario.trajectory.sample_array(times - start_time), timestamps=times)
        gyro, accel = imu.measure_array(truth, span / steps)
        ends = [0] + bounds.tolist()
        return tuple([column[lo:hi] for lo, hi in zip(ends, ends[1:])]
                     for column in (times, gyro, accel))

    def _observe(self, pose: Pose, world: LandmarkWorld, rig: StereoRig,
                 rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project visible landmarks into both cameras, adding pixel noise.

        Returns the visible landmarks' ids and their noisy left and right
        pixels, in world order.
        """
        points_camera = camera_frame_from_body(world_to_camera(pose, world.positions))
        left_pixels, right_pixels, valid = rig.project_stereo(points_camera)
        max_depth = 40.0 if world.is_indoor else 80.0
        in_range = (points_camera[:, 2] > 0.3) & (points_camera[:, 2] < max_depth)
        visible = np.nonzero(valid & in_range)[0]
        # One (left x, left y, right x, right y) row per visible landmark:
        # the same stream order as drawing each landmark's pairs in turn.
        noise = rng.normal(0.0, self.config.pixel_noise_std, size=(visible.size, 4))
        return (world.landmark_ids[visible], left_pixels[visible] + noise[:, :2],
                right_pixels[visible] + noise[:, 2:])
