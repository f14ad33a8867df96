"""Tests for the VisualFrontend orchestrator (sparse and dense paths)."""

import numpy as np
import pytest

from repro.common.config import FrontendConfig
from repro.frontend.frontend import (
    FrontendWorkload,
    TrackObservation,
    VisualFrontend,
    stereo_point_noise,
    synthetic_descriptors_for_tracks,
)


class TestStereoPointNoise:
    def test_grows_with_depth(self):
        near = stereo_point_noise(2.0, fx=320.0, baseline=0.2, pixel_noise=0.3)
        far = stereo_point_noise(40.0, fx=320.0, baseline=0.2, pixel_noise=0.3)
        assert far[0] > near[0]
        assert far[1] > near[1]

    def test_depth_noise_quadratic(self):
        a = stereo_point_noise(10.0, 320.0, 0.2, 0.3)[0]
        b = stereo_point_noise(20.0, 320.0, 0.2, 0.3)[0]
        assert 3.5 <= b / a <= 4.5

    def test_floor_applied(self):
        noise = stereo_point_noise(0.5, 320.0, 0.2, 0.3, floor=0.02)
        assert np.all(noise >= 0.02)


class TestTrackObservation:
    def test_derived_quantities(self):
        obs = TrackObservation(
            track_id=7,
            left_pixel=[100.0, 50.0],
            right_pixel=[90.0, 50.0],
            point_camera=[0.1, 0.2, 6.4],
            point_body=[6.4, -0.1, -0.2],
            noise_std=[0.3, 0.01, 0.01],
        )
        assert obs.disparity == 10.0
        assert np.isclose(obs.depth, 6.4)
        assert np.isclose(obs.depth_std, 0.3)

    def test_default_noise(self):
        obs = TrackObservation(1, [0, 0], [0, 0], [0, 0, 1], [1, 0, 0])
        assert obs.noise_std.shape == (3,)


class TestSparseFrontend:
    def test_produces_observations(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True, dropout_probability=0.0)
        result = frontend.process(outdoor_sequence.frames[0])
        assert result.feature_count > 10
        assert result.workload.stereo_matches == result.feature_count
        assert all(obs.depth > 0 for obs in result.observations)

    def test_track_persistence(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True, dropout_probability=0.0)
        first = frontend.process(outdoor_sequence.frames[0])
        second = frontend.process(outdoor_sequence.frames[1])
        common = set(first.track_ids) & set(second.track_ids)
        assert len(common) > 5
        # Ages increase for persistent tracks.
        for obs in second.observations:
            if obs.track_id in common:
                assert obs.age >= 2

    def test_triangulation_accuracy(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True, dropout_probability=0.0)
        frame = outdoor_sequence.frames[2]
        result = frontend.process(frame)
        errors = []
        for obs in result.observations:
            landmark = outdoor_sequence.world.landmarks[obs.track_id].position
            world_point = frame.ground_truth.transform_point(obs.point_body)
            errors.append(np.linalg.norm(world_point - landmark))
        assert np.median(errors) < 3.0

    def test_max_features_respected(self, outdoor_sequence):
        config = FrontendConfig(max_features=20)
        frontend = VisualFrontend(config=config, rig=outdoor_sequence.rig, sparse=True)
        result = frontend.process(outdoor_sequence.frames[0])
        assert result.feature_count <= 20

    def test_min_disparity_filter(self, outdoor_sequence):
        config = FrontendConfig(min_disparity=5.0)
        frontend = VisualFrontend(config=config, rig=outdoor_sequence.rig, sparse=True,
                                  dropout_probability=0.0)
        result = frontend.process(outdoor_sequence.frames[0])
        assert all(obs.disparity >= 5.0 - 1.0 for obs in result.observations)

    def test_lost_tracks_reported(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True, dropout_probability=0.0)
        for frame in outdoor_sequence.frames[:6]:
            result = frontend.process(frame)
        # After several frames of forward motion some tracks must have left the view.
        assert frontend.active_track_count > 0

    def test_reset(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True)
        frontend.process(outdoor_sequence.frames[0])
        frontend.reset()
        assert frontend.active_track_count == 0

    def test_missing_rig_raises(self, outdoor_sequence):
        frontend = VisualFrontend(sparse=True)
        with pytest.raises(ValueError):
            frontend.process(outdoor_sequence.frames[0])

    def test_workload_counters(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True, dropout_probability=0.0)
        result = frontend.process(outdoor_sequence.frames[0])
        workload = result.workload
        assert workload.image_pixels == outdoor_sequence.rig.camera.width * outdoor_sequence.rig.camera.height
        assert workload.correspondence_bytes > 0
        assert workload.descriptors_computed == 2 * workload.keypoints_left

    def test_measured_timings_present(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True)
        result = frontend.process(outdoor_sequence.frames[0])
        assert set(result.measured_ms) == {"feature_extraction", "stereo_matching", "temporal_matching"}

    def test_observation_lookup(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True, dropout_probability=0.0)
        result = frontend.process(outdoor_sequence.frames[0])
        track_id = result.track_ids[0]
        assert result.observation_for(track_id).track_id == track_id
        assert result.observation_for(-1) is None


class TestDenseFrontend:
    def test_dense_pipeline_runs(self, rendered_sequence):
        config = FrontendConfig(max_features=60, fast_threshold=18.0, min_disparity=0.5)
        frontend = VisualFrontend(config=config, rig=rendered_sequence.rig, sparse=False)
        results = [frontend.process(frame) for frame in rendered_sequence.frames[:3]]
        assert all(r.workload.keypoints_left > 0 for r in results)
        # At least some stereo correspondences should be found on rendered frames.
        assert any(r.feature_count > 0 for r in results)

    def test_dense_tracks_propagate(self, rendered_sequence):
        config = FrontendConfig(max_features=60, fast_threshold=18.0, min_disparity=0.5)
        frontend = VisualFrontend(config=config, rig=rendered_sequence.rig, sparse=False)
        first = frontend.process(rendered_sequence.frames[0])
        second = frontend.process(rendered_sequence.frames[1])
        if first.feature_count and second.feature_count:
            assert second.workload.tracked_points >= 0

    def test_sparse_fallback_without_images(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=False)
        result = frontend.process(outdoor_sequence.frames[0])
        # No rendered images: the frontend falls back to the sparse path.
        assert result.feature_count > 0


class TestSyntheticDescriptors:
    def test_shapes_and_determinism(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True, dropout_probability=0.0)
        result = frontend.process(outdoor_sequence.frames[0])
        descriptors = synthetic_descriptors_for_tracks(result.observations, noise_bits=0)
        again = synthetic_descriptors_for_tracks(result.observations, noise_bits=0)
        assert descriptors.shape == (result.feature_count, 32)
        assert np.array_equal(descriptors, again)

    def test_noise_flips_come_from_the_caller_rng(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, sparse=True, dropout_probability=0.0)
        observations = frontend.process(outdoor_sequence.frames[0]).observations
        with pytest.raises(ValueError):
            synthetic_descriptors_for_tracks(observations, noise_bits=4)
        noisy = synthetic_descriptors_for_tracks(observations, 4, np.random.default_rng(4))
        again = synthetic_descriptors_for_tracks(observations, 4, np.random.default_rng(4))
        clean = synthetic_descriptors_for_tracks(observations)
        assert noisy.tobytes() == again.tobytes()
        assert not np.array_equal(noisy, clean)

    def test_empty(self):
        assert synthetic_descriptors_for_tracks([]).shape == (0, 32)
