"""Tests for the VisualFrontend orchestrator (sparse and dense paths)."""

import numpy as np
import pytest

from repro.common.config import FrontendConfig
from repro.frontend.frontend import (
    FrontendWorkload,
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


class TestSparseFrontend:
    def test_produces_observations(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, dropout_probability=0.0)
        result = frontend.process(outdoor_sequence.frames[0])
        assert result.feature_count > 10
        assert result.workload.stereo_matches == result.feature_count
        n = result.feature_count
        assert result.track_ids.dtype == np.int64 and result.track_ids.shape == (n,)
        assert result.points_body.shape == result.noise_std.shape == (n, 3)
        assert result.left_pixels.shape == (n, 2)
        # Body x is the camera depth.
        assert np.all(result.points_body[:, 0] > 0)

    def test_track_persistence(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, dropout_probability=0.0)
        first = frontend.process(outdoor_sequence.frames[0])
        second = frontend.process(outdoor_sequence.frames[1])
        common = set(first.track_ids.tolist()) & set(second.track_ids.tolist())
        assert len(common) > 5
        assert second.workload.tracked_points == first.feature_count
        assert second.workload.temporal_matches == len(common)

    def test_triangulation_accuracy(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, dropout_probability=0.0)
        frame = outdoor_sequence.frames[2]
        result = frontend.process(frame)
        landmarks = outdoor_sequence.world.positions[result.track_ids]
        errors = np.linalg.norm(frame.ground_truth.transform_points(result.points_body) - landmarks, axis=1)
        assert np.median(errors) < 3.0

    def test_max_features_respected(self, outdoor_sequence):
        config = FrontendConfig(max_features=20)
        frontend = VisualFrontend(config=config, rig=outdoor_sequence.rig)
        result = frontend.process(outdoor_sequence.frames[0])
        assert result.feature_count <= 20

    def test_min_disparity_filter(self, outdoor_sequence):
        config = FrontendConfig(min_disparity=5.0)
        frontend = VisualFrontend(config=config, rig=outdoor_sequence.rig,
                                  dropout_probability=0.0)
        frame = outdoor_sequence.frames[0]
        result = frontend.process(frame)
        disparity = frame.left_pixels[:, 0] - frame.right_pixels[:, 0]
        wide = set(frame.landmark_ids[disparity >= 5.0].tolist())
        assert 0 < result.feature_count < frame.observation_count
        assert set(result.track_ids.tolist()) <= wide

    def test_lost_tracks_reported(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, dropout_probability=0.0)
        first = frontend.process(outdoor_sequence.frames[0])
        for frame in outdoor_sequence.frames[1:6]:
            result = frontend.process(frame)
        # After several frames of forward motion some tracks must have left the view.
        assert frontend.active_track_count == result.feature_count > 0
        assert set(first.track_ids.tolist()) - set(result.track_ids.tolist())

    def test_reset(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig)
        frontend.process(outdoor_sequence.frames[0])
        frontend.reset()
        assert frontend.active_track_count == 0

    def test_missing_rig_raises(self, outdoor_sequence):
        frontend = VisualFrontend()
        with pytest.raises(ValueError):
            frontend.process(outdoor_sequence.frames[0])

    def test_workload_counters(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, dropout_probability=0.0)
        result = frontend.process(outdoor_sequence.frames[0])
        workload = result.workload
        assert workload.image_pixels == outdoor_sequence.rig.camera.width * outdoor_sequence.rig.camera.height
        assert workload.descriptors_computed == 2 * workload.keypoints_left

    def test_measured_timings_present(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig)
        result = frontend.process(outdoor_sequence.frames[0])
        assert set(result.measured_ms) == {"feature_extraction", "stereo_matching", "temporal_matching"}


class TestDenseFrontend:
    def test_dense_pipeline_runs(self, rendered_sequence):
        config = FrontendConfig(max_features=60, fast_threshold=18.0, min_disparity=0.5)
        frontend = VisualFrontend(config=config, rig=rendered_sequence.rig)
        results = [frontend.process(frame) for frame in rendered_sequence.frames[:3]]
        assert all(r.workload.keypoints_left > 0 for r in results)
        # At least some stereo correspondences should be found on rendered frames.
        assert any(r.feature_count > 0 for r in results)

    def test_dense_tracks_propagate(self, rendered_sequence):
        config = FrontendConfig(max_features=60, fast_threshold=18.0, min_disparity=0.5)
        frontend = VisualFrontend(config=config, rig=rendered_sequence.rig)
        previous = frontend.process(rendered_sequence.frames[0])
        for frame in rendered_sequence.frames[1:6]:
            result = frontend.process(frame)
            # Lucas-Kanade carries some of the previous frame's tracks over.
            shared = set(previous.track_ids.tolist()) & set(result.track_ids.tolist())
            assert len(shared) >= 1
            assert result.workload.temporal_matches == len(shared)
            assert result.workload.tracked_points == previous.feature_count
            previous = result

    def test_sparse_fallback_without_images(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig)
        frame = outdoor_sequence.frames[0]
        assert not frame.has_images
        result = frontend.process(frame)
        # No rendered images: the frontend runs the sparse path.
        assert result.feature_count > 0


class TestSyntheticDescriptors:
    def test_shapes_and_determinism(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, dropout_probability=0.0)
        result = frontend.process(outdoor_sequence.frames[0])
        descriptors = synthetic_descriptors_for_tracks(result.track_ids, noise_bits=0)
        again = synthetic_descriptors_for_tracks(result.track_ids, noise_bits=0)
        assert descriptors.shape == (result.feature_count, 32)
        assert np.array_equal(descriptors, again)

    def test_noise_flips_come_from_the_caller_rng(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig, dropout_probability=0.0)
        track_ids = frontend.process(outdoor_sequence.frames[0]).track_ids
        with pytest.raises(ValueError):
            synthetic_descriptors_for_tracks(track_ids, noise_bits=4)
        noisy = synthetic_descriptors_for_tracks(track_ids, 4, np.random.default_rng(4))
        again = synthetic_descriptors_for_tracks(track_ids, 4, np.random.default_rng(4))
        clean = synthetic_descriptors_for_tracks(track_ids)
        assert noisy.tobytes() == again.tobytes()
        assert not np.array_equal(noisy, clean)

    def test_empty(self):
        assert synthetic_descriptors_for_tracks(np.zeros(0, dtype=np.int64)).shape == (0, 32)
