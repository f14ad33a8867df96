"""Multi-State Constraint Kalman Filter (the Filtering block of VIO mode).

The MSCKF keeps a sliding window of past camera poses (clones) rather than
just the most recent state (Sec. IV-A).  IMU samples drive the propagation;
stereo feature tracks that finish (or grow too long) drive the update.  The
measurement model uses the stereo-triangulated 3-D point of each observation
expressed in the body frame of the observing clone, which matches the stereo
MSCKF the paper builds on.

The Kalman-gain computation — the VIO mode's dominant latency-variation
kernel (Fig. 7/10) — is implemented exactly as the accelerator executes it:
form ``S = H P H^T + R`` exploiting symmetry, Cholesky-decompose ``S`` and
forward/backward-substitute to solve ``S K^T = H P`` (Equ. 1a/1b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.state import CLONE_ERROR_DIM, IMU_ERROR_DIM, MsckfState
from repro.common.config import MSCKFConfig
from repro.common.geometry import Pose, skew_batch, so3_exp_batch
from repro.common.timing import StopwatchCollector
from repro.frontend.frontend import FrontendResult
from repro.linalg.decompositions import qr_reduced
from repro.linalg.ops import matmul, quadratic_form, transpose
from repro.linalg.solvers import solve_cholesky
from repro.obs.profile import profile_kernel
from repro.sensors.imu import GRAVITY


@dataclass
class VioWorkload:
    """Matrix sizes the VIO backend kernels operated on this frame."""

    imu_samples: int = 0
    clone_count: int = 0
    state_dim: int = IMU_ERROR_DIM
    features_used: int = 0
    jacobian_rows: int = 0
    kalman_gain_dim: int = 0
    qr_rows: int = 0

    @property
    def feature_points(self) -> int:
        """Number of feature points driving the update (Fig. 16b x-axis)."""
        return self.features_used


# One observation of a track: (frame index, body point, noise std).
_Observation = Tuple[int, np.ndarray, np.ndarray]


class Msckf:
    """Stereo MSCKF with body-frame point measurements."""

    def __init__(self, config: Optional[MSCKFConfig] = None) -> None:
        self.config = config or MSCKFConfig()
        self.state = MsckfState(window_size=self.config.window_size)
        self._tracks: Dict[int, List[_Observation]] = {}
        self._initialized = False
        self.last_workload = VioWorkload()
        self.last_kernel_ms: Dict[str, float] = {}

    # ------------------------------------------------------------ lifecycle

    def initialize(self, pose: Pose, velocity: Optional[np.ndarray] = None) -> None:
        """Initialize the filter at a known pose (first frame of a segment)."""
        self.state = MsckfState(window_size=self.config.window_size)
        self.state.imu.rotation = pose.rotation.copy()
        self.state.imu.position = pose.translation.copy()
        self.state.imu.velocity = (
            np.asarray(velocity, dtype=float).reshape(3) if velocity is not None else np.zeros(3)
        )
        self._tracks = {}
        self._initialized = True

    @property
    def initialized(self) -> bool:
        return self._initialized

    def pose(self) -> Pose:
        return self.state.imu.pose()

    # ----------------------------------------------------------- processing

    def process_frame(self, frontend: FrontendResult, imu_timestamps: np.ndarray,
                      imu_gyro: np.ndarray, imu_accel: np.ndarray) -> Pose:
        """Propagate with the IMU batch, then update with finished tracks.

        The batch is a frame's IMU columns (see :class:`~repro.sensors.dataset.Frame`).
        """
        if not self._initialized:
            raise RuntimeError("Msckf.initialize must be called before process_frame")
        stopwatch = StopwatchCollector()
        workload = VioWorkload()

        with stopwatch.measure("imu_processing"):
            self._propagate(imu_timestamps, imu_gyro, imu_accel)
            workload.imu_samples = len(imu_timestamps)

        with stopwatch.measure("covariance"):
            self.state.augment(frontend.frame_index, frontend.timestamp)
            self.state.prune_oldest(self.config.window_size)
            workload.clone_count = len(self.state.clones)
            workload.state_dim = self.state.error_dim

        self._record_observations(frontend)
        finished = self._select_update_tracks(frontend)
        if finished:
            with profile_kernel("msckf.update", tracks=len(finished)):
                self._update(finished, stopwatch, workload)

        self.last_workload = workload
        self.last_kernel_ms = stopwatch.as_dict()
        return self.pose()

    # ---------------------------------------------------------- propagation

    def _propagate(self, timestamps: np.ndarray, gyro: np.ndarray, accel: np.ndarray) -> None:
        """Integrate the IMU batch into the nominal state and the covariance.

        Reading ``k`` drives the step from ``timestamps[k]`` to
        ``timestamps[k + 1]``; steps whose ``dt`` is not positive are dropped
        up front.  The biases are fixed within a batch, so all the rotation
        increments ``so3_exp((gyro - bias) * dt)`` come from one batched
        Rodrigues call.  What stays sequential, in the per-step operation
        order: the rotation chain, the velocity and position updates (running
        sums over the per-step terms) and the covariance recurrence.  The
        specific forces, transition matrices and process noises are arrays
        over the steps.  The recurrence runs on local copies of the IMU block
        and the IMU-to-clone cross-covariance, written back once, with the
        cross block's transpose.
        """
        if len(timestamps) < 2:
            return
        imu = self.state.imu
        cfg = self.config
        dts = np.diff(timestamps)
        kept = dts > 0
        dts = dts[kept]
        steps = dts.size
        increments = so3_exp_batch((gyro[:-1][kept] - imu.gyro_bias) * dts[:, None])
        accel = accel[:-1][kept] - imu.accel_bias
        rotation = imu.rotation
        rotations = []                           # at the start of each step
        for increment in increments:
            rotations.append(rotation)
            rotation = rotation @ increment
        rotations = np.array(rotations).reshape(steps, 3, 3)
        specific_force_world = (rotations @ accel[:, :, None])[:, :, 0]
        accel_world = specific_force_world + GRAVITY

        # Nominal state integration: v + a dt, and p + v dt + 0.5 a dt dt.
        step_dts = dts[:, None]
        velocities = np.cumsum(np.vstack([imu.velocity, accel_world * step_dts]), axis=0)
        position_terms = np.empty((2 * steps + 1, 3))
        position_terms[0] = imu.position
        position_terms[1::2] = velocities[:-1] * step_dts
        position_terms[2::2] = 0.5 * accel_world * step_dts * step_dts
        imu.rotation = rotation
        imu.position = np.cumsum(position_terms, axis=0)[-1]
        imu.velocity = velocities[-1]

        # Error-state transitions (world-frame rotation error convention).
        block_dts = dts[:, None, None]
        transitions = np.repeat(np.eye(IMU_ERROR_DIM)[None], steps, axis=0)
        neg_rotation_dt = -rotations * block_dts
        transitions[:, 0:3, 9:12] = neg_rotation_dt
        transitions[:, 3:6, 6:9] = np.eye(3) * block_dts
        transitions[:, 6:9, 0:3] = -skew_batch(specific_force_world) * block_dts
        transitions[:, 6:9, 12:15] = neg_rotation_dt
        # Process noise per unit time: scaling it by dt gives the same bits as
        # scaling each diagonal block by dt.
        noise_rate = np.zeros((IMU_ERROR_DIM, IMU_ERROR_DIM))
        noise_rate[0:3, 0:3] = np.eye(3) * cfg.imu_gyro_noise**2
        noise_rate[6:9, 6:9] = np.eye(3) * cfg.imu_accel_noise**2
        noise_rate[9:12, 9:12] = np.eye(3) * cfg.imu_gyro_bias_noise**2
        noise_rate[12:15, 12:15] = np.eye(3) * cfg.imu_accel_bias_noise**2
        noises = noise_rate * block_dts

        cov = self.state.covariance
        p_imu = cov[:IMU_ERROR_DIM, :IMU_ERROR_DIM].copy()
        p_cross = cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:].copy()
        has_clones = p_cross.shape[1] > 0
        for phi_imu, noise in zip(transitions, noises):
            p_imu = phi_imu @ p_imu @ phi_imu.T + noise
            if has_clones:
                p_cross = phi_imu @ p_cross
        cov[:IMU_ERROR_DIM, :IMU_ERROR_DIM] = p_imu
        if has_clones:
            cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:] = p_cross
            cov[IMU_ERROR_DIM:, :IMU_ERROR_DIM] = p_cross.T
        self.state.symmetrize()

    # -------------------------------------------------------------- updates

    def _record_observations(self, frontend: FrontendResult) -> None:
        rows = zip(frontend.track_ids.tolist(), frontend.points_body, frontend.noise_std)
        for track_id, point_body, noise_std in rows:
            self._tracks.setdefault(track_id, []).append((frontend.frame_index, point_body, noise_std))

    def _select_update_tracks(self, frontend: FrontendResult) -> List[List[_Observation]]:
        """Tracks that are lost this frame or have spanned the full window.

        The longest come first; equal lengths keep the tracks' first-seen order.
        """
        current_ids = set(frontend.track_ids.tolist())
        clone_frames = {clone.frame_index for clone in self.state.clones}
        finished: List[List[_Observation]] = []
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

    def _clone_observation_arrays(self, observations: List[_Observation]) -> Optional[Tuple[np.ndarray, ...]]:
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

    def _update(self, tracks: List[List[_Observation]], stopwatch: StopwatchCollector,
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

    def _feature_jacobian(self, observations: List[_Observation]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
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
