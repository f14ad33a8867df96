"""Tests for the sensor simulation: trajectories, worlds, IMU, GPS, datasets."""

import numpy as np
import pytest

from repro.backend.vio import VioBackend
from repro.common.geometry import Pose
from repro.frontend.frontend import VisualFrontend
from repro.sensors.dataset import Frame, SequenceBuilder
from repro.sensors.gps import GpsSimulator
from repro.sensors.imu import GRAVITY, ImuSimulator
from repro.sensors.scenarios import (
    OperatingScenario,
    ScenarioKind,
    scenario_catalog,
)
from repro.sensors.trajectory import (
    TrajectoryArrays,
    TrajectorySample,
    circle_trajectory,
    figure_eight_trajectory,
    straight_trajectory,
    warehouse_trajectory,
)
from repro.sensors.world import LandmarkWorld, body_frame_from_camera, camera_frame_from_body
from repro.common.config import SensorConfig


class TestTrajectories:
    def test_circle_radius(self):
        trajectory = circle_trajectory(radius=10.0, period=40.0)
        sample = trajectory.sample(7.0)
        assert np.isclose(np.linalg.norm(sample.pose.translation[:2]), 10.0, atol=1e-6)

    def test_circle_speed_constant(self):
        trajectory = circle_trajectory(radius=10.0, period=40.0)
        speeds = [np.linalg.norm(trajectory.sample(t).velocity) for t in (1.0, 5.0, 13.0)]
        assert np.allclose(speeds, speeds[0], rtol=1e-3)

    def test_straight_moves_forward(self):
        trajectory = straight_trajectory(speed=5.0)
        first = trajectory.sample(0.0).pose.translation
        later = trajectory.sample(4.0).pose.translation
        assert later[0] - first[0] > 15.0

    def test_figure_eight_bounded(self):
        trajectory = figure_eight_trajectory(scale=5.0, period=20.0)
        for t in np.linspace(0, 20, 20):
            position = trajectory.sample(float(t)).pose.translation
            assert np.all(np.abs(position[:2]) <= 5.5)

    def test_warehouse_stays_nonnegative_x(self):
        trajectory = warehouse_trajectory(aisle_length=10.0, speed=1.0)
        for t in np.linspace(0, 30, 30):
            x = trajectory.sample(float(t)).pose.translation[0]
            assert -0.5 <= x <= 10.5

    def test_yaw_follows_direction_of_travel(self):
        trajectory = straight_trajectory(speed=3.0, lateral_wiggle=0.0)
        sample = trajectory.sample(2.0)
        yaw, _, _ = sample.pose.euler()
        assert abs(yaw) < 1e-3

    def test_finite_difference_consistency(self):
        trajectory = circle_trajectory(radius=5.0, period=30.0)
        sample = trajectory.sample(3.0)
        dt = 1e-3
        ahead = trajectory.sample(3.0 + dt).pose.translation
        behind = trajectory.sample(3.0 - dt).pose.translation
        velocity_fd = (ahead - behind) / (2 * dt)
        assert np.allclose(velocity_fd, sample.velocity, atol=1e-3)


class TestLandmarkWorld:
    def _world(self, indoor=True):
        path = np.stack([np.linspace(0, 10, 20), np.zeros(20), np.ones(20)], axis=1)
        factory = LandmarkWorld.indoor if indoor else LandmarkWorld.outdoor
        return factory(path, count=80, seed=1)

    def test_count_and_ids(self):
        world = self._world()
        assert len(world) == 80
        assert world.landmark_ids.tolist() == list(range(80))
        assert world.positions.shape == (80, 3)
        assert world.appearance_seeds.shape == (80,) and world.appearance_seeds.dtype == np.int64

    def test_indoor_closer_than_outdoor(self):
        indoor = self._world(indoor=True)
        outdoor = self._world(indoor=False)
        indoor_spread = np.abs(indoor.positions[:, 1]).mean()
        outdoor_spread = np.abs(outdoor.positions[:, 1]).mean()
        assert indoor_spread < outdoor_spread

    def test_frame_conversion_roundtrip(self, rng):
        points = rng.normal(size=(10, 3))
        roundtrip = body_frame_from_camera(camera_frame_from_body(points))
        assert np.allclose(roundtrip, points, atol=1e-12)

    def test_camera_frame_convention(self):
        # Body +x (forward) should become camera +z (optical axis).
        forward = camera_frame_from_body(np.array([[1.0, 0.0, 0.0]]))[0]
        assert np.allclose(forward, [0.0, 0.0, 1.0])


class TestImu:
    @staticmethod
    def _still(count: int) -> TrajectoryArrays:
        return TrajectoryArrays.stack([
            TrajectorySample(0.01 * k, Pose.identity(), np.zeros(3), np.zeros(3), np.zeros(3))
            for k in range(count)])

    def test_stationary_measures_gravity(self):
        imu = ImuSimulator(gyro_noise=0.0, accel_noise=0.0, gyro_bias_walk=0.0, accel_bias_walk=0.0)
        gyro, accel = imu.measure_array(self._still(4), np.full(4, 0.01))
        assert gyro.shape == accel.shape == (4, 3)
        assert np.allclose(accel, -GRAVITY, atol=1e-9)
        assert np.allclose(gyro, np.zeros(3), atol=1e-9)

    def test_noise_is_reproducible(self):
        a = ImuSimulator(seed=5).measure_array(self._still(3), np.full(3, 0.01))
        b = ImuSimulator(seed=5).measure_array(self._still(3), np.full(3, 0.01))
        c = ImuSimulator(seed=6).measure_array(self._still(3), np.full(3, 0.01))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])


class TestGps:
    def test_indoor_blocked(self):
        gps = GpsSimulator(indoor=True)
        assert gps.measure(0.0, Pose.identity()) is None

    def test_outdoor_fix_near_truth(self):
        gps = GpsSimulator(noise_std=0.1, multipath_probability=0.0, seed=1)
        pose = Pose(np.eye(3), np.array([5.0, -2.0, 1.0]))
        fix = gps.measure(0.0, pose)
        assert fix is not None
        assert np.linalg.norm(fix.position - pose.translation) < 1.0

    def test_outages(self):
        gps = GpsSimulator(outage_probability=1.0)
        assert gps.measure(0.0, Pose.identity()) is None

    def test_availability_matches_outage(self):
        gps = GpsSimulator(outage_probability=0.25)
        fixes = sum(gps.measure(0.0, Pose.identity()) is not None for _ in range(2000))
        assert fixes / 2000 == pytest.approx(0.75, abs=0.03)


class TestScenariosAndDataset:
    def test_scenario_taxonomy(self):
        assert not ScenarioKind.INDOOR_UNKNOWN.has_gps
        assert ScenarioKind.OUTDOOR_KNOWN.has_map

    def test_catalog_covers_all_scenarios(self):
        catalog = scenario_catalog(duration=5.0)
        assert set(catalog.keys()) == set(ScenarioKind)

    def test_sequence_structure(self, outdoor_sequence):
        assert len(outdoor_sequence) > 10
        frame = outdoor_sequence.frames[5]
        assert isinstance(frame, Frame)
        assert frame.observation_count > 0
        batch = len(frame.imu_timestamps)
        assert batch > 0
        assert frame.imu_timestamps.shape == (batch,)
        assert frame.imu_gyro.shape == frame.imu_accel.shape == (batch, 3)
        for column in (frame.imu_timestamps, frame.imu_gyro, frame.imu_accel):
            assert column.dtype == np.float64
        assert frame.has_gps  # outdoor scenario provides GPS
        assert np.isclose((len(outdoor_sequence) - 1) / outdoor_sequence.duration, 10.0, atol=0.5)

    def test_indoor_sequence_has_no_gps(self, indoor_sequence):
        assert all(not frame.has_gps for frame in indoor_sequence.frames)
        assert not indoor_sequence.has_prebuilt_map

    def test_mapped_sequence_flag(self, indoor_mapped_sequence):
        assert indoor_mapped_sequence.has_prebuilt_map

    def test_observations_match_projection(self, outdoor_sequence):
        frame = outdoor_sequence.frames[3]
        rig = outdoor_sequence.rig
        world = outdoor_sequence.world
        left, right = frame.left_pixels[:10], frame.right_pixels[:10]
        disparity = left[:, 0] - right[:, 0]
        assert np.all(disparity > -2.0)  # disparity is positive up to noise
        assert np.all((0 <= left[:, 0]) & (left[:, 0] <= rig.camera.width))
        assert len(world) == outdoor_sequence.config.landmark_count

    def test_imu_batches_cover_frame_interval(self, outdoor_sequence):
        frames = outdoor_sequence.frames
        config = outdoor_sequence.config
        first = frames[0]
        assert first.imu_timestamps.shape == (0,)
        assert first.imu_gyro.shape == first.imu_accel.shape == (0, 3)
        for previous, frame in zip(frames, frames[1:]):
            stamps = frame.imu_timestamps
            # Each batch runs from the previous epoch to its own, both included,
            # so consecutive batches share their boundary timestamp.
            assert stamps[0] == previous.timestamp
            assert stamps[-1] == pytest.approx(frame.timestamp, abs=1e-9)
            if previous is not first:
                assert previous.imu_timestamps[-1] == pytest.approx(stamps[0], abs=1e-9)
            assert np.all(np.diff(stamps) > 0)
            assert len(stamps) >= round(config.imu_rate_hz / config.camera_rate_hz)

    def test_vio_workload_counts_the_frame_batch(self, outdoor_sequence):
        """The modeled CPU and accelerator VIO latencies read this count."""
        frontend = VisualFrontend(rig=outdoor_sequence.rig)
        backend = VioBackend()
        for frame in outdoor_sequence.frames[:4]:
            backend.process(frontend.process(frame), frame)
            assert backend.filter.last_workload.imu_samples == len(frame.imu_timestamps)


class TestImageRendering:
    def test_rendered_images_present(self, rendered_sequence):
        frame = rendered_sequence.frames[0]
        assert frame.has_images
        assert frame.left_image.shape == (120, 160)
        assert frame.left_image.max() <= 255.0
        assert frame.left_image.min() >= 0.0

    def test_rendered_images_differ_between_views(self, rendered_sequence):
        frame = rendered_sequence.frames[0]
        assert not np.allclose(frame.left_image, frame.right_image)
