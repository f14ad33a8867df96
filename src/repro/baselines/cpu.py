"""Workload-driven CPU latency model.

Our algorithms run as Python reference implementations, so their wall-clock
times are not representative of the optimized C++ stacks the paper measures.
Instead, the characterization pipeline records *workloads* — image sizes,
keypoint counts, matrix dimensions — for every frame, and this model converts
them to milliseconds on a given :class:`PlatformSpec` using per-operation
costs calibrated so that the paper's typical magnitudes are reproduced
(frontend around 90 ms at 1280x720 on the Kaby Lake baseline, VIO backend
around 20 ms, SLAM backend the heaviest and most variable).

Because the costs are driven by the per-frame workload, the latency
*variation* of Figs. 9-11 emerges from the same source it does in the real
system: frames with more features, larger Jacobians or bigger marginalization
problems take proportionally longer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.backend.mapping import SlamWorkload
from repro.backend.msckf import VioWorkload
from repro.backend.tracking import RegistrationWorkload
from repro.baselines.platforms import KABY_LAKE_MULTI, PlatformSpec
from repro.common.timing import LatencyRecord
from repro.frontend.frontend import FrontendWorkload


@dataclass
class FrontendCostModel:
    """Per-operation costs (milliseconds) of the vision frontend on the baseline CPU."""

    # Feature extraction: per-pixel filtering/detection cost and per-keypoint
    # descriptor cost, applied to both images of the stereo pair.
    ms_per_pixel: float = 3.6e-5
    ms_per_descriptor: float = 0.02
    # Stereo matching: descriptor comparison cost per candidate pair and
    # block-matching refinement cost per accepted match.
    ms_per_stereo_candidate: float = 1.0e-4
    ms_per_stereo_match: float = 0.05
    # Temporal matching: per tracked point (derivatives + iterative solve).
    ms_per_tracked_point: float = 0.045

    def kernel_ms(self, workload: FrontendWorkload) -> Dict[str, float]:
        feature_extraction = (
            2.0 * workload.image_pixels * self.ms_per_pixel
            + workload.descriptors_computed * self.ms_per_descriptor
        )
        stereo = (
            workload.keypoints_left * max(workload.keypoints_right, 1) * self.ms_per_stereo_candidate
            + workload.stereo_matches * self.ms_per_stereo_match
        )
        temporal = workload.tracked_points * self.ms_per_tracked_point
        return {
            "feature_extraction": feature_extraction,
            "stereo_matching": stereo,
            "temporal_matching": temporal,
        }

    def total_ms(self, workload: FrontendWorkload) -> float:
        return float(sum(self.kernel_ms(workload).values()))


@dataclass
class BackendCostModel:
    """Per-operation costs (milliseconds) of the three backend modes."""

    # Registration mode (Fig. 6): projection scales linearly with map points
    # (Fig. 16a); matching and pose optimization scale with correspondences.
    registration_ms_per_map_point: float = 0.055
    registration_ms_per_match: float = 0.03
    registration_ms_per_pose_iteration: float = 0.9
    registration_update_ms_per_match: float = 0.045

    # VIO mode (Fig. 7): the Kalman gain scales quadratically with the size of
    # the innovation system (which grows with the feature points used in the
    # update, Fig. 16b); the Jacobian, covariance and QR costs scale with the
    # stacked rows and the state size.
    vio_ms_per_imu_sample: float = 0.12
    vio_ms_per_jacobian_row: float = 0.02
    vio_kalman_quadratic: float = 3.2e-4
    vio_kalman_linear: float = 0.012
    vio_ms_per_qr_row: float = 0.012
    vio_covariance_ms_per_dim: float = 0.012
    vio_fusion_ms: float = 0.6

    # SLAM mode (Fig. 8): the solver scales with LM iterations times the
    # reduced Hessian dimension; marginalization scales quadratically with the
    # feature points of the departing keyframe (Fig. 16c).
    slam_solver_ms_per_iteration_dim: float = 0.045
    slam_solver_ms_per_observation: float = 0.035
    slam_marginalization_quadratic: float = 2.4e-3
    slam_marginalization_linear: float = 0.06
    slam_others_ms_per_observation: float = 0.03
    slam_init_ms: float = 1.5

    # ------------------------------------------------------------- per mode

    def registration_ms(self, workload: RegistrationWorkload) -> Dict[str, float]:
        return {
            "projection": workload.projection_points * self.registration_ms_per_map_point,
            "match": workload.matches * self.registration_ms_per_match,
            "pose_optimization": workload.pose_iterations * self.registration_ms_per_pose_iteration,
            "update": workload.matches * self.registration_update_ms_per_match,
        }

    def vio_ms(self, workload: VioWorkload) -> Dict[str, float]:
        innovation_dim = max(workload.kalman_gain_dim, 3 * workload.features_used)
        return {
            "imu_processing": workload.imu_samples * self.vio_ms_per_imu_sample,
            "jacobian": workload.jacobian_rows * self.vio_ms_per_jacobian_row,
            "covariance": workload.state_dim * self.vio_covariance_ms_per_dim,
            "kalman_gain": self.vio_kalman_quadratic * innovation_dim**2
            + self.vio_kalman_linear * workload.state_dim,
            "qr": workload.qr_rows * self.vio_ms_per_qr_row,
            "fusion": self.vio_fusion_ms,
        }

    def slam_ms(self, workload: SlamWorkload) -> Dict[str, float]:
        solver = (
            workload.solver_iterations * workload.keyframes * 6 * self.slam_solver_ms_per_iteration_dim
            + workload.observations * self.slam_solver_ms_per_observation
        )
        marginalization = 0.0
        if workload.marginalized_dim > 0:
            marginalization = (
                self.slam_marginalization_quadratic * workload.feature_points**2
                + self.slam_marginalization_linear * workload.marginalized_dim
            )
        others = self.slam_init_ms + workload.observations * self.slam_others_ms_per_observation
        return {
            "solver": solver,
            "marginalization": marginalization,
            "others": others,
        }

    def kernel_ms(self, mode: str, workload) -> Dict[str, float]:
        if mode == "registration":
            return self.registration_ms(workload)
        if mode == "vio":
            return self.vio_ms(workload)
        if mode == "slam":
            return self.slam_ms(workload)
        raise ValueError(f"unknown backend mode: {mode}")


@dataclass
class CpuLatencyModel:
    """Combines the frontend and backend cost models for one platform."""

    platform: PlatformSpec = field(default_factory=lambda: KABY_LAKE_MULTI)
    frontend: FrontendCostModel = field(default_factory=FrontendCostModel)
    backend: BackendCostModel = field(default_factory=BackendCostModel)

    def frame_record(self, frame_index: int, mode: str,
                     frontend_workload: FrontendWorkload, backend_workload) -> LatencyRecord:
        """Build a platform-latency record for one frame."""
        record = LatencyRecord(frame_index=frame_index, mode=mode)
        factor = self.platform.speed_factor
        for name, value in self.frontend.kernel_ms(frontend_workload).items():
            record.add_frontend(name, value * factor)
        for name, value in self.backend.kernel_ms(mode, backend_workload).items():
            record.add_backend(name, value * factor)
        if self.platform.fixed_overhead_ms > 0:
            record.add_backend("platform_overhead", self.platform.fixed_overhead_ms)
        return record

    def records_from_results(self, trajectory_result) -> list:
        """Latency records for every frame of a :class:`TrajectoryResult`."""
        records = []
        for frontend_result, backend_result in zip(
            trajectory_result.frontend_results, trajectory_result.backend_results
        ):
            records.append(
                self.frame_record(
                    frontend_result.frame_index,
                    backend_result.mode,
                    frontend_result.workload,
                    backend_result.workload,
                )
            )
        return records
