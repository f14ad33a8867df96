"""Tests for mapping (bundle adjustment), marginalization and SLAM."""

import numpy as np
import pytest

from repro.backend.mapping import KeyframeMapper, SlamWorkload
from repro.backend.marginalization import marginalize_schur
from repro.backend.slam import SlamBackend
from repro.common.config import BackendConfig, MappingConfig
from repro.common.geometry import Pose, so3_exp
from repro.experiments.runner import sensor_config_for
from repro.frontend.frontend import VisualFrontend
from repro.sensors.scenarios import ScenarioKind
from repro.serving.streams import ScenarioStream, StreamSegment, StreamSpec


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestMarginalization:
    def test_matches_dense_schur(self):
        hessian = random_spd(12, seed=1)
        gradient = np.random.default_rng(1).normal(size=12)
        result = marginalize_schur(hessian, gradient, list(range(4)))
        a_mm, a_mr = hessian[:4, :4], hessian[:4, 4:]
        a_rm, a_rr = hessian[4:, :4], hessian[4:, 4:]
        expected_h = a_rr - a_rm @ np.linalg.inv(a_mm) @ a_mr
        expected_b = gradient[4:] - a_rm @ np.linalg.inv(a_mm) @ gradient[:4]
        assert np.allclose(result.hessian, expected_h, atol=1e-5)
        assert np.allclose(result.gradient, expected_b, atol=1e-5)
        assert result.marginalized_dim == 4
        assert result.remaining_dim == 8

    def test_no_indices_is_identity(self):
        hessian = random_spd(5, seed=2)
        gradient = np.ones(5)
        result = marginalize_schur(hessian, gradient, [])
        assert np.allclose(result.hessian, hessian)
        assert np.allclose(result.gradient, gradient)

    def test_all_indices_yields_empty(self):
        hessian = random_spd(4, seed=3)
        result = marginalize_schur(hessian, np.ones(4), [0, 1, 2, 3])
        assert result.remaining_dim == 0
        assert result.hessian.shape == (0, 0)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            marginalize_schur(np.eye(3), np.ones(3), [5])

    def test_inconsistent_shapes_raise(self):
        with pytest.raises(ValueError):
            marginalize_schur(np.eye(3), np.ones(4), [0])

    def test_prior_hessian_positive_semidefinite(self):
        hessian = random_spd(10, seed=5)
        result = marginalize_schur(hessian, np.zeros(10), [0, 1, 2])
        assert np.all(np.linalg.eigvalsh(result.hessian) > -1e-8)


class TestKeyframeMapper:
    def _frontend_results(self, sequence, count):
        frontend = VisualFrontend(rig=sequence.rig, dropout_probability=0.0)
        return [frontend.process(frame) for frame in sequence.frames[:count]]

    def test_keyframe_insertion_and_map_growth(self, indoor_sequence):
        mapper = KeyframeMapper(MappingConfig(window_size=4))
        results = self._frontend_results(indoor_sequence, 6)
        for result, frame in zip(results, indoor_sequence.frames[:6]):
            mapper.insert_keyframe(result, frame.ground_truth)
        assert len(mapper.keyframes) <= 4
        assert mapper.map_size > 20
        assert mapper.latest_pose() is not None

    def test_should_insert_keyframe_thresholds(self):
        mapper = KeyframeMapper(MappingConfig(keyframe_translation=0.5, keyframe_rotation=0.3))
        assert mapper.should_insert_keyframe(Pose.identity())  # first keyframe always
        mapper.keyframes.append(
            type("KF", (), {"pose": Pose.identity(), "frame_index": 0, "observations": {}})()
        )
        near = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        far = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        assert not mapper.should_insert_keyframe(near)
        assert mapper.should_insert_keyframe(far)

    def test_bundle_adjustment_improves_noisy_pose(self, indoor_sequence):
        mapper = KeyframeMapper(MappingConfig(window_size=5, max_iterations=6))
        results = self._frontend_results(indoor_sequence, 5)
        rng = np.random.default_rng(0)
        errors_before, errors_after = [], []
        for i, (result, frame) in enumerate(zip(results, indoor_sequence.frames[:5])):
            guess = frame.ground_truth
            if i > 0:
                guess = frame.ground_truth.perturb(rng.normal(0, 0.01, 3), rng.normal(0, 0.05, 3))
            errors_before.append(guess.distance_to(frame.ground_truth))
            mapper.insert_keyframe(result, guess)
        for keyframe, frame in zip(mapper.keyframes, indoor_sequence.frames[:5]):
            errors_after.append(keyframe.pose.distance_to(frame.ground_truth))
        assert np.mean(errors_after) <= np.mean(errors_before) + 0.02

    def test_marginalization_produces_prior_and_workload(self, indoor_sequence):
        mapper = KeyframeMapper(MappingConfig(window_size=3))
        results = self._frontend_results(indoor_sequence, 6)
        for result, frame in zip(results, indoor_sequence.frames[:6]):
            workload = mapper.insert_keyframe(result, frame.ground_truth)
        assert mapper._prior_hessian is not None
        assert workload.marginalized_dim > 0
        assert workload.feature_points > 0
        assert workload.keyframes == 3

    def test_kernel_timings_reported(self, indoor_sequence):
        mapper = KeyframeMapper(MappingConfig(window_size=3))
        results = self._frontend_results(indoor_sequence, 4)
        for result, frame in zip(results, indoor_sequence.frames[:4]):
            mapper.insert_keyframe(result, frame.ground_truth)
        assert {"init", "solver", "marginalization"}.issubset(mapper.last_kernel_ms.keys())


class TestSlamBackend:
    def test_tracks_indoor_sequence(self, indoor_sequence):
        frontend = VisualFrontend(rig=indoor_sequence.rig, dropout_probability=0.0)
        slam = SlamBackend(BackendConfig(), camera=indoor_sequence.rig.camera)
        errors = []
        for frame in indoor_sequence.frames[:30]:
            result = slam.process(frontend.process(frame), frame)
            errors.append(result.pose.distance_to(frame.ground_truth))
        # The fixture uses a low-resolution (320x240) rig, so stereo depth is
        # noisy; the requirement is staying localized, not centimetre accuracy.
        assert np.mean(errors) < 0.8
        assert errors[-1] < 1.5

    def test_map_grows_and_persists(self, indoor_sequence):
        frontend = VisualFrontend(rig=indoor_sequence.rig, dropout_probability=0.0)
        slam = SlamBackend(BackendConfig(), camera=indoor_sequence.rig.camera)
        for frame in indoor_sequence.frames[:15]:
            slam.process(frontend.process(frame), frame)
        persisted = slam.persist_map()
        assert len(persisted) == slam.mapper.map_size
        assert len(persisted) > 20

    def test_workload_and_kernels(self, indoor_sequence):
        frontend = VisualFrontend(rig=indoor_sequence.rig)
        slam = SlamBackend(BackendConfig(), camera=indoor_sequence.rig.camera)
        result = slam.process(frontend.process(indoor_sequence.frames[0]), indoor_sequence.frames[0])
        assert result.mode == "slam"
        assert isinstance(result.workload, SlamWorkload)
        assert {"solver", "marginalization", "init"}.issubset(result.kernel_ms.keys())

    def test_reset(self, indoor_sequence):
        frontend = VisualFrontend(rig=indoor_sequence.rig)
        slam = SlamBackend(BackendConfig(), camera=indoor_sequence.rig.camera)
        slam.process(frontend.process(indoor_sequence.frames[0]), indoor_sequence.frames[0])
        slam.reset()
        assert not slam.initialized
        assert slam.mapper.map_size == 0


class TestKeyframeSpacing:
    """The default keyframe spacing must skip frames at fleet speeds.

    Counts, not timings: each inserted keyframe runs window bundle adjustment,
    so the insertion rate is what the SLAM backend's cost scales with.
    """

    def test_fleet_speed_segment_inserts_on_at_most_60_percent_of_frames(self):
        # One serving segment at the fleet's 5 Hz camera rate, moving 0.3 m
        # per frame: a keyframe on every frame at the old 0.25 m spacing.
        spec = StreamSpec("keyframes", (StreamSegment(ScenarioKind.INDOOR_KNOWN, 8.0),), seed=1)
        sequence = ScenarioStream(spec, sensor_config_for("drone", spec.camera_rate_hz, spec.seed)
                                  ).build_segment(0)
        steps = [np.linalg.norm(b.ground_truth.translation - a.ground_truth.translation)
                 for a, b in zip(sequence.frames, sequence.frames[1:])]
        assert 0.24 <= np.median(steps) <= 0.31
        frontend = VisualFrontend(rig=sequence.rig, dropout_probability=0.0)
        slam = SlamBackend(BackendConfig(), camera=sequence.rig.camera)
        inserted = 0
        for frame in sequence.frames:
            slam.process(frontend.process(frame), frame)
            inserted += slam.mapper.keyframes[-1].frame_index == frame.index
        assert inserted <= 0.6 * len(sequence.frames), (inserted, len(sequence.frames))

    def test_one_frame_of_motion_is_not_a_keyframe(self):
        mapper = KeyframeMapper()
        mapper.keyframes.append(
            type("KF", (), {"pose": Pose.identity(), "frame_index": 0, "observations": {}})()
        )
        turn = so3_exp(np.array([0.0, 0.0, 0.05]))
        assert not mapper.should_insert_keyframe(Pose(turn, np.array([0.3, 0.0, 0.0])))
        assert mapper.should_insert_keyframe(Pose(turn, np.array([0.7, 0.0, 0.0])))
