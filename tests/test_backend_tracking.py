"""Tests for map tracking, the registration backend, modes and metrics."""

import numpy as np
import pytest

from repro.backend import tracking
from repro.backend.registration import RegistrationBackend
from repro.backend.mapping import KeyframeMapper
from repro.backend.slam import SlamBackend
from repro.backend.tracking import LocalizationMap, MapTracker, RegistrationWorkload
from repro.common.config import BackendConfig, TrackingConfig
from repro.common.geometry import Pose, euler_to_rotation
from repro.core.modes import BackendMode, ModeSelector
from repro.frontend.frontend import FrontendResult, VisualFrontend, synthetic_descriptors_for_tracks
from repro.metrics.trajectory import (
    absolute_trajectory_error,
    relative_trajectory_error_percent,
    rmse,
    trajectory_length,
    umeyama_alignment,
)
from repro.sensors.scenarios import ScenarioKind


class TestLocalizationMap:
    def test_from_world(self, indoor_mapped_sequence):
        localization_map = LocalizationMap.from_world(indoor_mapped_sequence.world, position_noise=0.01)
        assert len(localization_map) == len(indoor_mapped_sequence.world)
        assert localization_map.positions.shape == (len(localization_map), 3)
        np.testing.assert_array_equal(localization_map.point_ids, indoor_mapped_sequence.world.landmark_ids)
        rows, descriptors = localization_map.descriptors()
        assert rows.tolist() == list(range(len(localization_map)))
        assert descriptors.shape == (len(localization_map), 32)

    def test_columns_and_row_index(self):
        descriptor = synthetic_descriptors_for_tracks(np.array([2]))[0]
        localization_map = LocalizationMap([9, 2], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                                           np.stack([np.zeros(32, dtype=np.uint8), descriptor]),
                                           [False, True])
        assert len(localization_map) == 2
        assert localization_map.row_of == {9: 0, 2: 1}
        rows, descriptors = localization_map.descriptors()
        assert rows.tolist() == [1]
        assert descriptors.tobytes() == descriptor.tobytes()
        empty = LocalizationMap()
        assert len(empty) == 0 and empty.positions.shape == (0, 3) and empty.row_of == {}
        assert empty.descriptors()[1].shape == (0, 32)

    def test_from_mapper_columns(self):
        slam = SlamBackend()
        slam.mapper.landmarks.update({7: np.array([4.0, 5.0, 6.0]), 3: np.array([1.0, 2.0, 3.0])})
        ids, positions = slam.mapper.landmark_columns()
        assert ids.dtype == np.int64 and ids.tolist() == [7, 3]
        assert positions.tolist() == [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]]
        persisted = slam.persist_map()
        assert persisted.point_ids.tolist() == [7, 3]
        assert persisted.row_of == {7: 0, 3: 1}
        assert not persisted.has_descriptor.any()
        ids, positions = KeyframeMapper().landmark_columns()
        assert ids.shape == (0,) and positions.shape == (0, 3)


class TestMapTracker:
    def test_recovers_pose_against_survey_map(self, indoor_mapped_sequence):
        localization_map = LocalizationMap.from_world(indoor_mapped_sequence.world, position_noise=0.02)
        tracker = MapTracker(TrackingConfig(), camera=indoor_mapped_sequence.rig.camera)
        frontend = VisualFrontend(rig=indoor_mapped_sequence.rig, dropout_probability=0.0)
        errors = []
        for frame in indoor_mapped_sequence.frames[:10]:
            pose, workload = tracker.track(frontend.process(frame), localization_map)
            assert pose is not None
            errors.append(pose.distance_to(frame.ground_truth))
            assert workload.map_points == len(localization_map)
            assert workload.matches >= workload.inliers
        assert np.mean(errors) < 0.3

    def test_returns_none_without_enough_matches(self, indoor_sequence):
        tracker = MapTracker(TrackingConfig(min_inliers=8))
        frontend = VisualFrontend(rig=indoor_sequence.rig)
        empty_map = LocalizationMap()
        pose, workload = tracker.track(frontend.process(indoor_sequence.frames[0]), empty_map)
        assert pose is None
        assert workload.map_points == 0

    def test_fresh_trackers_draw_identical_descriptors(self, indoor_mapped_sequence, monkeypatch):
        # The descriptor fallback's descriptors carry DESCRIPTOR_NOISE_BITS
        # flips; two fresh trackers on the same frames must draw the same
        # bytes.  The map ids are offset from the track ids, so no track
        # matches by identity and every frame takes the fallback.
        drawn = []

        def recording(track_ids, *args, **kwargs):
            descriptors = synthetic_descriptors_for_tracks(track_ids, *args, **kwargs)
            drawn[-1].append(descriptors.tobytes())
            return descriptors

        monkeypatch.setattr(tracking, "synthetic_descriptors_for_tracks", recording)
        frontend = VisualFrontend(rig=indoor_mapped_sequence.rig, dropout_probability=0.0)
        results = [frontend.process(frame) for frame in indoor_mapped_sequence.frames[:6]]
        survey = LocalizationMap.from_world(indoor_mapped_sequence.world)
        localization_map = LocalizationMap(survey.point_ids + 10000, survey.positions, survey.point_descriptors)
        for _ in range(2):
            drawn.append([])
            tracker = MapTracker(camera=indoor_mapped_sequence.rig.camera)
            for result in results:
                _pose, workload = tracker.track(result, localization_map)
                assert workload.matches > 0
        assert len(drawn[0]) == len(results)
        assert drawn[0] == drawn[1]

    def test_descriptor_fallback_skips_points_without_descriptors(self):
        # A descriptor-less point ahead of the described one must not shift
        # the match onto itself.
        descriptor = synthetic_descriptors_for_tracks(np.array([7]))[0]
        localization_map = LocalizationMap([5, 1007], [[1.0, 0.0, 5.0], [0.0, 1.0, 5.0]],
                                           np.stack([np.zeros(32, dtype=np.uint8), descriptor]),
                                           [False, True])
        frontend = FrontendResult(frame_index=0, timestamp=0.0, track_ids=np.array([7], dtype=np.int64),
                                  points_body=np.zeros((1, 3)), noise_std=np.full((1, 3), 0.1),
                                  left_pixels=np.zeros((1, 2)))
        map_ids, _body, world, _sigma = MapTracker()._match(frontend, localization_map)
        assert map_ids.tolist() == [1007]
        assert world.tolist() == [[0.0, 1.0, 5.0]]

    def test_kernel_timings(self, indoor_mapped_sequence):
        localization_map = LocalizationMap.from_world(indoor_mapped_sequence.world)
        tracker = MapTracker(camera=indoor_mapped_sequence.rig.camera)
        frontend = VisualFrontend(rig=indoor_mapped_sequence.rig)
        tracker.track(frontend.process(indoor_mapped_sequence.frames[0]), localization_map)
        assert set(tracker.last_kernel_ms) == {"projection", "match", "pose_optimization"}


class TestRegistrationBackend:
    def test_accuracy_on_mapped_indoor(self, indoor_mapped_sequence):
        backend = RegistrationBackend.from_world(
            indoor_mapped_sequence.world, map_noise=0.03, camera=indoor_mapped_sequence.rig.camera
        )
        frontend = VisualFrontend(rig=indoor_mapped_sequence.rig, dropout_probability=0.0)
        errors = []
        for frame in indoor_mapped_sequence.frames[:20]:
            result = backend.process(frontend.process(frame), frame)
            errors.append(result.pose.distance_to(frame.ground_truth))
            assert result.mode == "registration"
        assert np.sqrt(np.mean(np.square(errors))) < 0.3

    def test_holds_last_pose_when_tracking_fails(self, indoor_mapped_sequence):
        backend = RegistrationBackend(LocalizationMap(), camera=indoor_mapped_sequence.rig.camera)
        frontend = VisualFrontend(rig=indoor_mapped_sequence.rig)
        result = backend.process(frontend.process(indoor_mapped_sequence.frames[0]),
                                 indoor_mapped_sequence.frames[0])
        assert not result.valid
        assert isinstance(result.workload, RegistrationWorkload)

    def test_reset(self, indoor_mapped_sequence):
        backend = RegistrationBackend.from_world(indoor_mapped_sequence.world)
        backend._last_pose = Pose.identity()
        backend.reset()
        assert backend._last_pose is None


class TestModeSelector:
    def test_scenario_mapping(self):
        assert ModeSelector.select_for_scenario(ScenarioKind.OUTDOOR_UNKNOWN) is BackendMode.VIO
        assert ModeSelector.select_for_scenario(ScenarioKind.OUTDOOR_KNOWN) is BackendMode.VIO
        assert ModeSelector.select_for_scenario(ScenarioKind.INDOOR_KNOWN) is BackendMode.REGISTRATION
        assert ModeSelector.select_for_scenario(ScenarioKind.INDOOR_UNKNOWN) is BackendMode.SLAM

    def test_override(self, outdoor_sequence):
        selector = ModeSelector(override=BackendMode.SLAM)
        assert selector.select(outdoor_sequence.frames[0], has_map=True) is BackendMode.SLAM

    def test_map_availability_overrides_scenario_flag(self, indoor_sequence):
        selector = ModeSelector()
        assert selector.select(indoor_sequence.frames[0], has_map=True) is BackendMode.REGISTRATION
        assert selector.select(indoor_sequence.frames[0], has_map=False) is BackendMode.SLAM


class TestMetrics:
    def test_rmse(self):
        assert rmse([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
        assert rmse([]) == 0.0

    def test_umeyama_recovers_transform(self, rng):
        points = rng.normal(size=(20, 3))
        rotation_true = euler_to_rotation(0.4, 0.1, -0.2)
        translation_true = np.array([1.0, -2.0, 0.5])
        transformed = points @ rotation_true.T + translation_true
        rotation, translation, scale = umeyama_alignment(points, transformed)
        assert np.allclose(rotation, rotation_true, atol=1e-6)
        assert np.allclose(translation, translation_true, atol=1e-6)
        assert np.isclose(scale, 1.0)

    def test_umeyama_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            umeyama_alignment(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_absolute_trajectory_error(self):
        reference = [Pose(np.eye(3), np.array([float(i), 0, 0])) for i in range(10)]
        estimated = [Pose(np.eye(3), np.array([float(i), 0.5, 0])) for i in range(10)]
        assert absolute_trajectory_error(estimated, reference) == pytest.approx(0.5)

    def test_aligned_error_removes_constant_offset(self):
        reference = [Pose(np.eye(3), np.array([float(i), 0, 0])) for i in range(10)]
        estimated = [Pose(np.eye(3), np.array([float(i) + 3.0, 0, 0])) for i in range(10)]
        assert absolute_trajectory_error(estimated, reference, align=True) < 1e-6

    def test_relative_error_zero_for_perfect(self):
        reference = [Pose(np.eye(3), np.array([0.3 * i, 0, 0])) for i in range(30)]
        assert relative_trajectory_error_percent(reference, reference) == pytest.approx(0.0)

    def test_trajectory_length(self):
        poses = [Pose(np.eye(3), np.array([float(i), 0, 0])) for i in range(5)]
        assert trajectory_length(poses) == pytest.approx(4.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            absolute_trajectory_error([Pose.identity()], [Pose.identity(), Pose.identity()])
