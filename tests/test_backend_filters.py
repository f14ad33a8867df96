"""Tests for the MSCKF state, filter, and GPS fusion (VIO mode)."""

import numpy as np
import pytest

from repro.backend.fusion import GpsFusion
from repro.backend.msckf import Msckf, VioWorkload
from repro.backend.state import CLONE_ERROR_DIM, IMU_ERROR_DIM, MsckfState
from repro.backend.vio import VioBackend
from repro.common.config import BackendConfig, FusionConfig, MSCKFConfig
from repro.common.geometry import Pose
from repro.frontend.frontend import VisualFrontend
from repro.sensors.gps import GpsSample
from repro.sensors.imu import ImuSimulator
from repro.sensors.trajectory import straight_trajectory


class TestMsckfState:
    def test_initial_dimensions(self):
        state = MsckfState()
        assert state.error_dim == IMU_ERROR_DIM
        assert state.covariance.shape == (IMU_ERROR_DIM, IMU_ERROR_DIM)

    def test_augmentation_grows_state(self):
        state = MsckfState()
        state.augment(0, 0.0)
        assert state.error_dim == IMU_ERROR_DIM + CLONE_ERROR_DIM
        assert state.covariance.shape == (state.error_dim, state.error_dim)
        assert [clone.frame_index for clone in state.clones] == [0]

    def test_clone_shares_imu_pose(self):
        state = MsckfState()
        state.imu.position = np.array([1.0, 2.0, 3.0])
        state.augment(5, 1.0)
        clone = state.clones[-1]
        assert clone.frame_index == 5
        assert np.allclose(clone.position, [1.0, 2.0, 3.0])

    def test_pruning_restores_window(self):
        state = MsckfState(window_size=3)
        for i in range(5):
            state.augment(i, float(i))
        removed = state.prune_oldest(3)
        assert len(removed) == 2
        assert len(state.clones) == 3
        assert state.covariance.shape[0] == IMU_ERROR_DIM + 3 * CLONE_ERROR_DIM
        assert [clone.frame_index for clone in state.clones] == [2, 3, 4]

    def test_apply_correction_moves_states(self):
        state = MsckfState()
        state.augment(0, 0.0)
        delta = np.zeros(state.error_dim)
        delta[3:6] = [1.0, 0.0, 0.0]          # IMU position
        delta[IMU_ERROR_DIM + 3] = -1.0       # clone position x
        state.apply_correction(delta)
        assert np.allclose(state.imu.position, [1.0, 0.0, 0.0])
        assert np.allclose(state.clones[0].position, [-1.0, 0.0, 0.0])

    def test_symmetrize(self):
        state = MsckfState()
        state.covariance[0, 1] = 1.0
        state.symmetrize()
        assert np.allclose(state.covariance, state.covariance.T)


class TestMsckf:
    def _run(self, sequence, frames=20, use_gps=False):
        frontend = VisualFrontend(rig=sequence.rig, dropout_probability=0.0)
        backend = VioBackend(BackendConfig(), use_gps=use_gps)
        errors = []
        for frame in sequence.frames[:frames]:
            result = frontend.process(frame)
            backend_result = backend.process(result, frame)
            errors.append(backend_result.pose.distance_to(frame.ground_truth))
        return backend, errors

    def test_requires_initialization(self):
        filter_ = Msckf()
        with pytest.raises(RuntimeError):
            filter_.process_frame(None, np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))

    def test_initialize_sets_pose(self):
        filter_ = Msckf()
        pose = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        filter_.initialize(pose, np.array([0.5, 0.0, 0.0]))
        assert filter_.initialized
        assert np.allclose(filter_.pose().translation, pose.translation)

    def test_tracks_outdoor_motion(self, outdoor_sequence):
        backend, errors = self._run(outdoor_sequence, frames=25, use_gps=False)
        # Pure VIO should stay within a metre over 2.5 s of motion.
        assert errors[-1] < 1.0
        assert np.mean(errors) < 0.6

    def test_gps_fusion_reduces_error(self, outdoor_sequence):
        _, errors_without = self._run(outdoor_sequence, frames=30, use_gps=False)
        _, errors_with = self._run(outdoor_sequence, frames=30, use_gps=True)
        assert np.mean(errors_with) <= np.mean(errors_without) + 0.2

    def test_window_is_bounded(self, outdoor_sequence):
        backend, _ = self._run(outdoor_sequence, frames=25)
        assert len(backend.filter.state.clones) <= backend.config.msckf.window_size

    def test_workload_populated(self, outdoor_sequence):
        backend, _ = self._run(outdoor_sequence, frames=15)
        workload = backend.filter.last_workload
        assert isinstance(workload, VioWorkload)
        assert workload.clone_count > 0
        assert workload.state_dim == IMU_ERROR_DIM + CLONE_ERROR_DIM * workload.clone_count
        assert workload.imu_samples > 0

    def test_kernel_timings_present(self, outdoor_sequence):
        frontend = VisualFrontend(rig=outdoor_sequence.rig)
        backend = VioBackend(BackendConfig())
        result = backend.process(frontend.process(outdoor_sequence.frames[0]), outdoor_sequence.frames[0])
        backend.process(frontend.process(outdoor_sequence.frames[1]), outdoor_sequence.frames[1])
        assert "imu_processing" in backend.filter.last_kernel_ms
        assert result.mode == "vio"

    def test_covariance_stays_symmetric_positive(self, outdoor_sequence):
        backend, _ = self._run(outdoor_sequence, frames=20)
        cov = backend.filter.state.covariance
        assert np.allclose(cov, cov.T, atol=1e-8)
        assert np.all(np.linalg.eigvalsh(cov) > -1e-6)

    def test_reset(self, outdoor_sequence):
        backend, _ = self._run(outdoor_sequence, frames=5)
        backend.reset()
        assert not backend.initialized


class TestMsckfPropagation:
    """IMU-only propagation of the filter over a batch of IMU columns."""

    @staticmethod
    def _propagate(imu: ImuSimulator, duration: float, rate_hz: float):
        times = np.arange(int(round(duration * rate_hz)) + 1) / rate_hz
        truth = straight_trajectory(speed=2.0).sample_array(times)
        gyro, accel = imu.measure_array(truth, np.full(times.size, 1.0 / rate_hz))
        filter_ = Msckf()
        filter_.initialize(Pose(truth.rotations[0], truth.positions[0]), truth.velocities[0])
        position_variance = filter_.state.covariance.diagonal()[3:6].copy()
        filter_._propagate(times, gyro, accel)
        error = np.linalg.norm(filter_.state.imu.position - truth.positions[-1])
        return filter_, error, position_variance

    @staticmethod
    def _noiseless() -> ImuSimulator:
        return ImuSimulator(gyro_noise=0.0, accel_noise=0.0, gyro_bias_walk=0.0, accel_bias_walk=0.0)

    def test_noiseless_imu_recovers_straight_motion(self):
        _, error, _ = self._propagate(self._noiseless(), duration=1.0, rate_hz=200.0)
        assert error < 0.05

    def test_noisy_imu_drifts_and_grows_position_covariance(self):
        # Noiseless, the same 3 s path ends about 0.3 mm off (discretization);
        # this noise level drifts by 18-66 mm on seeds 0-9.
        _, noiseless_error, _ = self._propagate(self._noiseless(), duration=3.0, rate_hz=100.0)
        filter_, error, variance_before = self._propagate(
            ImuSimulator(gyro_noise=5e-3, accel_noise=5e-2, seed=2), duration=3.0, rate_hz=100.0)
        assert noiseless_error < 1e-3
        assert error > 5e-3
        assert np.all(filter_.state.covariance.diagonal()[3:6] > 10.0 * variance_before)


class TestGpsFusion:
    def test_offset_estimation(self):
        fusion = GpsFusion(FusionConfig())
        vio_pose = Pose(np.eye(3), np.zeros(3))
        true_offset = np.array([2.0, -1.0, 0.5])
        rng = np.random.default_rng(0)
        for i in range(20):
            gps = GpsSample(timestamp=float(i), position=true_offset + rng.normal(0, 0.05, 3))
            fusion.update(vio_pose, gps)
        assert fusion.has_converged
        assert np.allclose(fusion.offset, true_offset, atol=0.2)
        corrected = fusion.corrected_pose(vio_pose)
        assert np.allclose(corrected.translation, true_offset, atol=0.2)

    def test_invalid_fix_ignored(self):
        fusion = GpsFusion()
        gps = GpsSample(timestamp=0.0, position=np.zeros(3), valid=False)
        fusion.update(Pose.identity(), gps)
        assert fusion.fix_count == 0

    def test_multipath_glitch_gated(self):
        fusion = GpsFusion(FusionConfig(gate_threshold=9.0))
        vio_pose = Pose.identity()
        for i in range(10):
            fusion.update(vio_pose, GpsSample(float(i), np.zeros(3), covariance=np.eye(3) * 0.01))
        offset_before = fusion.offset.copy()
        fusion.update(vio_pose, GpsSample(11.0, np.array([50.0, 0.0, 0.0]), covariance=np.eye(3) * 0.01))
        assert np.allclose(fusion.offset, offset_before, atol=1e-6)

    def test_gate_reopens_after_persistent_innovation(self):
        fusion = GpsFusion(FusionConfig(gate_threshold=9.0))
        vio_pose = Pose.identity()
        for i in range(10):
            fusion.update(vio_pose, GpsSample(float(i), np.zeros(3), covariance=np.eye(3) * 0.01))
        # A persistent jump (VIO drift, not a glitch) must eventually be accepted.
        for i in range(10):
            fusion.update(vio_pose, GpsSample(20.0 + i, np.array([5.0, 0.0, 0.0]), covariance=np.eye(3) * 0.01))
        assert fusion.offset[0] > 1.0

    def test_reset(self):
        fusion = GpsFusion()
        fusion.update(Pose.identity(), GpsSample(0.0, np.ones(3)))
        fusion.reset()
        assert fusion.fix_count == 0
        assert np.allclose(fusion.offset, 0.0)
