"""Tests for the runtime scheduler, regression models and CPU baseline models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.mapping import SlamWorkload
from repro.backend.msckf import VioWorkload
from repro.backend.tracking import RegistrationWorkload
from repro.baselines.cpu import BackendCostModel, CpuLatencyModel, FrontendCostModel
from repro.baselines.platforms import (
    ADRENO_GPU,
    ARM_A57_MULTI,
    KABY_LAKE_MULTI,
    KABY_LAKE_SINGLE,
    TABLE_III_PLATFORMS,
)
from repro.frontend.frontend import FrontendWorkload
from repro.hardware.backend_accel import BackendAcceleratorModel
from repro.scheduler.regression import PolynomialRegression, r_squared
from repro.scheduler.scheduler import (
    KERNEL_SIZE_ATTRIBUTE,
    OracleScheduler,
    RuntimeScheduler,
    kernel_size,
    train_test_split,
)


class TestRegression:
    def test_linear_fit_exact(self):
        x = np.arange(10.0)
        y = 2.0 * x + 1.0
        model = PolynomialRegression(degree=1).fit(x, y)
        assert np.allclose(model.coefficients, [1.0, 2.0], atol=1e-6)
        assert model.score(x, y) == pytest.approx(1.0)

    def test_quadratic_fit(self):
        x = np.linspace(0, 10, 20)
        y = 0.5 * x**2 - x + 3.0
        model = PolynomialRegression(degree=2).fit(x, y)
        assert model.predict_scalar(4.0) == pytest.approx(0.5 * 16 - 4 + 3, rel=1e-6)

    def test_fit_with_noise_has_high_r2(self):
        rng = np.random.default_rng(0)
        x = np.linspace(1, 100, 50)
        y = 3.0 * x + rng.normal(0, 1.0, size=50)
        model = PolynomialRegression(degree=1).fit(x, y)
        assert model.score(x, y) > 0.95

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PolynomialRegression().predict([1.0])

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            PolynomialRegression(degree=3).fit([1.0, 2.0], [1.0, 2.0])

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            PolynomialRegression(degree=0)

    def test_r_squared_edge_cases(self):
        assert r_squared([], []) == 0.0
        assert r_squared([1.0, 1.0], [1.0, 1.0]) == 1.0
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_linear_fit_recovers_coefficients(self, slope, intercept):
        x = np.linspace(0, 10, 30)
        y = slope * x + intercept
        model = PolynomialRegression(degree=1).fit(x, y)
        assert model.predict_scalar(5.0) == pytest.approx(slope * 5.0 + intercept, abs=1e-6)


class TestScheduler:
    def _vio_samples(self, count=40, seed=0):
        rng = np.random.default_rng(seed)
        cost = BackendCostModel()
        samples = []
        for _ in range(count):
            dim = int(rng.integers(20, 190))
            workload = VioWorkload(kalman_gain_dim=dim, state_dim=195, features_used=dim // 3,
                                   jacobian_rows=dim, qr_rows=dim, imu_samples=10)
            samples.append((workload, cost.vio_ms(workload)["kalman_gain"]))
        return samples

    def test_kernel_size_attributes(self):
        assert kernel_size("registration", RegistrationWorkload(map_points=123)) == 123
        assert kernel_size("vio", VioWorkload(kalman_gain_dim=44)) == 44
        assert kernel_size("slam", SlamWorkload(feature_points=77)) == 77
        assert set(KERNEL_SIZE_ATTRIBUTE) == {"registration", "vio", "slam"}

    def test_training_and_prediction(self):
        scheduler = RuntimeScheduler(BackendAcceleratorModel())
        samples = self._vio_samples()
        r2 = scheduler.train_from_frames("vio", [s[0] for s in samples], [s[1] for s in samples])
        assert r2 > 0.95
        assert "vio" in scheduler.models

    def test_offload_decision_prefers_cheaper_side(self):
        accel = BackendAcceleratorModel(offload_setup_ms=5.0)
        scheduler = RuntimeScheduler(accel)
        samples = self._vio_samples()
        scheduler.train_from_frames("vio", [s[0] for s in samples], [s[1] for s in samples])
        cheap = VioWorkload(kalman_gain_dim=10, state_dim=195)
        expensive = VioWorkload(kalman_gain_dim=180, state_dim=195)
        cost = BackendCostModel()
        cheap_decision = scheduler.decide("vio", cheap, cost.vio_ms(cheap)["kalman_gain"])
        expensive_decision = scheduler.decide("vio", expensive, cost.vio_ms(expensive)["kalman_gain"])
        assert expensive_decision.offload
        assert not cheap_decision.offload

    def test_untrained_mode_offloads_conservatively(self):
        scheduler = RuntimeScheduler(BackendAcceleratorModel())
        decision = scheduler.decide("slam", SlamWorkload(feature_points=100, marginalized_dim=150,
                                                         keyframes=8), actual_cpu_ms=50.0)
        assert decision.offload

    def test_evaluation_close_to_oracle(self):
        scheduler = RuntimeScheduler(BackendAcceleratorModel())
        samples = self._vio_samples(count=60)
        train, test = train_test_split(samples, train_fraction=0.25, seed=1)
        scheduler.train_from_frames("vio", [s[0] for s in train], [s[1] for s in train])
        evaluation = scheduler.evaluate("vio", [s[0] for s in test], [s[1] for s in test])
        assert evaluation.r2 > 0.9
        assert evaluation.gap_to_oracle_percent < 5.0
        assert evaluation.mean_latency_ms <= evaluation.never_offload_mean_latency_ms + 1e-9

    def test_oracle_scheduler(self):
        oracle = OracleScheduler(BackendAcceleratorModel())
        workload = RegistrationWorkload(map_points=4000)
        decision = oracle.decide("registration", workload, actual_cpu_ms=100.0)
        assert decision.offload
        decision = oracle.decide("registration", workload, actual_cpu_ms=0.0001)
        assert not decision.offload

    def test_train_test_split_deterministic(self):
        items = list(range(20))
        a = train_test_split(items, 0.25, seed=3)
        b = train_test_split(items, 0.25, seed=3)
        assert a == b
        assert len(a[0]) == 5
        assert len(a[0]) + len(a[1]) == 20


class TestFrontendCostModel:
    def _workload(self, width=1280, height=720, features=200):
        return FrontendWorkload(
            image_width=width, image_height=height, keypoints_left=features,
            keypoints_right=features, descriptors_computed=2 * features,
            stereo_candidates=features * features, stereo_matches=150,
            tracked_points=160, temporal_matches=140,
        )

    def test_car_frontend_magnitude(self):
        # The paper's baseline frontend latency is ~92 ms at 1280x720.
        total = FrontendCostModel().total_ms(self._workload())
        assert 60.0 < total < 130.0

    def test_scales_with_resolution(self):
        model = FrontendCostModel()
        assert model.total_ms(self._workload()) > model.total_ms(self._workload(640, 480, 120))

    def test_kernel_names(self):
        kernels = FrontendCostModel().kernel_ms(self._workload())
        assert set(kernels) == {"feature_extraction", "stereo_matching", "temporal_matching"}
        assert all(v >= 0 for v in kernels.values())


class TestBackendCostModel:
    def test_projection_linear(self):
        model = BackendCostModel()
        a = model.registration_ms(RegistrationWorkload(map_points=100))["projection"]
        b = model.registration_ms(RegistrationWorkload(map_points=200))["projection"]
        assert b == pytest.approx(2 * a)

    def test_kalman_quadratic(self):
        model = BackendCostModel()
        a = model.vio_ms(VioWorkload(kalman_gain_dim=100, state_dim=195))["kalman_gain"]
        b = model.vio_ms(VioWorkload(kalman_gain_dim=200, state_dim=195))["kalman_gain"]
        assert b > 2 * a  # super-linear growth of the quadratic term

    def test_marginalization_zero_without_marginalized_state(self):
        model = BackendCostModel()
        kernels = model.slam_ms(SlamWorkload(marginalized_dim=0, feature_points=100))
        assert kernels["marginalization"] == 0.0

    def test_mode_dispatch(self):
        model = BackendCostModel()
        with pytest.raises(ValueError):
            model.kernel_ms("bogus", None)


class TestCpuLatencyModel:
    def test_platform_factor_applied(self):
        workload = FrontendWorkload(image_width=640, image_height=480, keypoints_left=100,
                                    keypoints_right=100, descriptors_computed=200,
                                    stereo_matches=80, tracked_points=80)
        backend_workload = RegistrationWorkload(map_points=300, matches=80, pose_iterations=5)
        fast = CpuLatencyModel(platform=KABY_LAKE_MULTI).frame_record(0, "registration", workload, backend_workload)
        slow = CpuLatencyModel(platform=ARM_A57_MULTI).frame_record(0, "registration", workload, backend_workload)
        assert slow.total > fast.total

    def test_fixed_overhead_recorded(self):
        workload = FrontendWorkload(image_width=640, image_height=480)
        record = CpuLatencyModel(platform=ADRENO_GPU).frame_record(
            0, "registration", workload, RegistrationWorkload(map_points=10))
        assert record.backend.get("platform_overhead", 0.0) == pytest.approx(40.0)

    def test_table_iii_ordering(self):
        # The single-core variants must be slower than the multi-core baseline.
        assert KABY_LAKE_SINGLE.speed_factor > KABY_LAKE_MULTI.speed_factor
        assert set(TABLE_III_PLATFORMS) >= {"single_core", "multi_core", "adreno_gpu"}
