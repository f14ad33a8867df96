"""Multi-State Constraint Kalman Filter (the Filtering block of VIO mode).

The MSCKF keeps a sliding window of past camera poses (clones) rather than
just the most recent state (Sec. IV-A).  IMU samples drive the propagation;
stereo feature tracks that finish (or grow too long) drive the update.  The
measurement model uses the stereo-triangulated 3-D point of each observation
expressed in the body frame of the observing clone, which matches the stereo
MSCKF the paper builds on.

Each camera frame makes one covariance propagation: the frame's per-step
IMU transitions and noises are folded into one ``(Phi, Q)`` pair (a prefix
scan over the steps), as OpenVINS' ``propagate_and_clone`` does, and applied
once to the IMU block and the IMU-to-clone cross-covariance.  The update
builds the nullspace-projected Jacobians of all finished tracks of one
length in one pass of stacked array calls.

The Kalman-gain computation — the VIO mode's dominant latency-variation
kernel (Fig. 7/10) — follows the accelerator's steps: form
``S = H P H^T + R`` exploiting symmetry, Cholesky-decompose ``S`` and
forward/backward-substitute to solve ``S K^T = H P`` (Equ. 1a/1b).  The
measured path makes the decomposition and the substitutions as LAPACK calls
(:func:`~repro.linalg.solvers.solve_spd`); they are recorded as the same
building blocks, so the modeled Cholesky + F/B ledger is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.state import CLONE_ERROR_DIM, IMU_ERROR_DIM, MsckfState
from repro.common.config import MSCKFConfig
from repro.common.geometry import Pose, skew_batch, so3_exp_batch
from repro.common.timing import StopwatchCollector
from repro.frontend.frontend import FrontendResult
from repro.linalg.decompositions import qr_reduced
from repro.linalg.ops import matmul, quadratic_form, transpose
from repro.linalg.solvers import solve_spd
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

_IMU_IDENTITY = np.eye(IMU_ERROR_DIM)


def _prefix_products(matrices: np.ndarray) -> np.ndarray:
    """Running products ``M_0 M_1 ... M_k`` of an ``(n, d, d)`` stack.

    A Hillis-Steele scan: ``ceil(log2 n)`` stacked products instead of ``n``
    sequential ones.  Equal to the sequential chain to rounding.
    """
    out = matrices.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = out[:-shift] @ out[shift:]
        shift *= 2
    return out


def _fold_transitions(transitions: np.ndarray, noise_diagonals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One ``(Phi, Q)`` for a sequence of per-step ``(Phi_k, diag(q_k))``.

    Applying the steps in order, ``P <- Phi_k P Phi_k^T + Q_k``, equals one
    application of ``Phi = Phi_n ... Phi_1`` and
    ``Q = sum_k G_k Q_k G_k^T`` with ``G_k = Phi_n ... Phi_{k+1}``.  All the
    ``G_k`` are prefix products of the reversed steps, and ``Q`` is one
    product of them side by side, ``[G_n q_n ... G_1 q_1] [G_n ... G_1]^T``.
    """
    products = _prefix_products(transitions[::-1])          # Phi_n, Phi_n Phi_{n-1}, ...
    gains = np.concatenate([_IMU_IDENTITY[None], products[:-1]]).transpose(1, 0, 2)
    gains = gains.reshape(IMU_ERROR_DIM, -1)
    return products[-1], (gains * noise_diagonals[::-1].reshape(-1)) @ gains.T


class Msckf:
    """Stereo MSCKF with body-frame point measurements."""

    def __init__(self, config: Optional[MSCKFConfig] = None) -> None:
        self.config = config or MSCKFConfig()
        self.state = MsckfState(window_size=self.config.window_size)
        self._tracks: Dict[int, List[_Observation]] = {}
        # Whether a clone left the window since the tracks were last filtered.
        self._clones_pruned = False
        self._initialized = False
        self.last_workload = VioWorkload()
        self.last_kernel_ms: Dict[str, float] = {}
        # Diagonal of the process noise per unit time; a step's is this times its dt.
        cfg = self.config
        self._noise_rate = np.repeat([cfg.imu_gyro_noise**2, 0.0, cfg.imu_accel_noise**2,
                                      cfg.imu_gyro_bias_noise**2, cfg.imu_accel_bias_noise**2], 3)

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
        self._clones_pruned = False
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
            if self.state.prune_oldest(self.config.window_size):
                self._clones_pruned = True
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
        Rodrigues call, and the rotation at each step is a prefix product of
        them.  Velocity and position are running sums over the per-step
        terms.  The per-step error-state transitions ``Phi_k`` and noises
        ``Q_k`` are folded into one ``(Phi, Q)`` (:func:`_fold_transitions`),
        so the covariance sees one ``P_II <- Phi P_II Phi^T + Q`` and one
        ``P_IC <- Phi P_IC`` per batch, as in OpenVINS'
        ``Propagator::propagate_and_clone``.
        """
        if len(timestamps) < 2:
            return
        imu = self.state.imu
        dts = np.diff(timestamps)
        kept = dts > 0
        dts = dts[kept]
        steps = dts.size
        if steps == 0:
            return
        increments = so3_exp_batch((gyro[:-1][kept] - imu.gyro_bias) * dts[:, None])
        accel = accel[:-1][kept] - imu.accel_bias
        ends = imu.rotation @ _prefix_products(increments)      # after each step
        rotations = np.concatenate([imu.rotation[None], ends[:-1]])   # at the start of each step
        specific_force_world = (rotations @ accel[:, :, None])[:, :, 0]
        accel_world = specific_force_world + GRAVITY

        # Nominal state integration: v + a dt, and p + v dt + 0.5 a dt dt.
        step_dts = dts[:, None]
        velocities = np.cumsum(np.vstack([imu.velocity, accel_world * step_dts]), axis=0)
        position_terms = np.empty((2 * steps + 1, 3))
        position_terms[0] = imu.position
        position_terms[1::2] = velocities[:-1] * step_dts
        position_terms[2::2] = 0.5 * accel_world * step_dts * step_dts
        imu.rotation = ends[-1]
        imu.position = np.cumsum(position_terms, axis=0)[-1]
        imu.velocity = velocities[-1]

        # Error-state transitions (world-frame rotation error convention).
        block_dts = dts[:, None, None]
        transitions = np.repeat(_IMU_IDENTITY[None], steps, axis=0)
        neg_rotation_dt = -rotations * block_dts
        transitions[:, 0:3, 9:12] = neg_rotation_dt
        transitions[:, 3:6, 6:9] = np.eye(3) * block_dts
        transitions[:, 6:9, 0:3] = -skew_batch(specific_force_world) * block_dts
        transitions[:, 6:9, 12:15] = neg_rotation_dt
        phi, noise = _fold_transitions(transitions, self._noise_rate * step_dts)

        # Only the IMU block and the cross-covariance change, and the cross
        # block is written with its exact transpose, so symmetrizing the IMU
        # block keeps an exactly symmetric covariance (as the update, the
        # clone augmentation and the pruning leave it) exactly symmetric.
        cov = self.state.covariance
        p_imu = phi @ cov[:IMU_ERROR_DIM, :IMU_ERROR_DIM] @ phi.T + noise
        cov[:IMU_ERROR_DIM, :IMU_ERROR_DIM] = 0.5 * (p_imu + p_imu.T)
        if cov.shape[0] > IMU_ERROR_DIM:
            cross = phi @ cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:]
            cov[:IMU_ERROR_DIM, IMU_ERROR_DIM:] = cross
            cov[IMU_ERROR_DIM:, :IMU_ERROR_DIM] = cross.T

    # -------------------------------------------------------------- updates

    def _record_observations(self, frontend: FrontendResult) -> None:
        rows = zip(frontend.track_ids.tolist(), frontend.points_body, frontend.noise_std)
        for track_id, point_body, noise_std in rows:
            self._tracks.setdefault(track_id, []).append((frontend.frame_index, point_body, noise_std))

    def _select_update_tracks(self, frontend: FrontendResult) -> List[List[_Observation]]:
        """Tracks that are lost this frame or have spanned the full window.

        The longest come first; equal lengths keep the tracks' first-seen order.
        Observations whose clone left the window are dropped first.  Every
        recorded frame has a clone and only ``prune_oldest`` removes one, so
        that filter runs only after a prune.
        """
        if self._clones_pruned:
            self._clones_pruned = False
            clone_frames = {clone.frame_index for clone in self.state.clones}
            for track_id in list(self._tracks.keys()):
                observations = [row for row in self._tracks[track_id] if row[0] in clone_frames]
                if observations:
                    self._tracks[track_id] = observations
                else:
                    del self._tracks[track_id]
        current_ids = set(frontend.track_ids.tolist())
        finished: List[List[_Observation]] = []
        for track_id, observations in list(self._tracks.items()):
            lost = track_id not in current_ids
            saturated = len(observations) >= self.config.window_size
            if (lost or saturated) and len(observations) >= self.config.min_track_for_update:
                finished.append(observations)
                del self._tracks[track_id]
        finished.sort(key=len, reverse=True)
        return finished[: self.config.max_features_per_update]

    def _gather_tracks(self, tracks: List[List[_Observation]]) -> Tuple[np.ndarray, ...]:
        """Stack the tracks' observations, track after track.

        Returns ``(lengths, clone_indices, points_body, noise_std)``: one
        length per track, then one row per observation.  Every observation
        has a clone in the window (:meth:`_select_update_tracks` keeps only
        those).
        """
        index_by_frame = {clone.frame_index: i for i, clone in enumerate(self.state.clones)}
        rows = [row for observations in tracks for row in observations]
        return (np.array([len(observations) for observations in tracks]),
                np.array([index_by_frame[row[0]] for row in rows]),
                np.array([row[1] for row in rows]),
                np.array([row[2] for row in rows]))

    def _update(self, tracks: List[List[_Observation]], stopwatch: StopwatchCollector,
                workload: VioWorkload) -> None:
        state_dim = self.state.error_dim

        with stopwatch.measure("jacobian"):
            h_stack, r_stack, passed = self._stacked_jacobians(tracks)
            if not passed.any():
                return
            workload.features_used = int(passed.sum())

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
            k_transposed = solve_spd(s_matrix, transpose(ph_t))
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

    def _stacked_jacobians(self, tracks: List[List[_Observation]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nullspace-projected Jacobian rows and residuals of the tracks.

        Returns ``(h, r, passed)``: the rows of every track that passes the
        residual gate, in track order, and the per-track gate outcome.  A
        track with fewer than two observations does not pass.  Each run of
        equal-length tracks (:meth:`_select_update_tracks` sorts them, so
        each length is one run) is one :meth:`_group_jacobians` call.
        """
        lengths, clone_idx, points, noise = self._gather_tracks(tracks)
        clone_rotations = np.array([clone.rotation for clone in self.state.clones])
        clone_positions = np.array([clone.position for clone in self.state.clones])
        h_blocks: List[np.ndarray] = [np.zeros((0, self.state.error_dim))]
        r_blocks: List[np.ndarray] = [np.zeros(0)]
        passed: List[np.ndarray] = []
        start = 0
        for length, run in groupby(lengths.tolist()):
            count = len(list(run))
            stop = start + count * length
            if length < 2:
                passed.append(np.zeros(count, dtype=bool))
            else:
                rows = slice(start, stop)
                index = clone_idx[rows].reshape(count, length)
                h, r, group_passed = self._group_jacobians(
                    clone_rotations[index], clone_positions[index], index,
                    points[rows].reshape(count, length, 3), noise[rows].reshape(count, length, 3))
                h_blocks.append(h.reshape(-1, self.state.error_dim))
                r_blocks.append(r.reshape(-1))
                passed.append(group_passed)
            start = stop
        return np.concatenate(h_blocks), np.concatenate(r_blocks), np.concatenate(passed)

    def _group_jacobians(self, rotations: np.ndarray, positions: np.ndarray, clone_idx: np.ndarray,
                         points_body: np.ndarray, noise_std: np.ndarray,
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Projected Jacobians of ``t`` tracks of ``n`` observations each.

        Inputs are ``(t, n, ...)`` stacks: the observing clones' rotations,
        positions and indices, and the body-frame points and their per-axis
        noise.  Returns the gated tracks' ``(t', 3n - 3, D)`` Jacobians and
        ``(t', 3n - 3)`` residuals, and the ``(t,)`` gate outcome.
        """
        count, length = clone_idx.shape
        # Inverse-variance weighted triangulation, so close-range (accurate)
        # stereo points dominate over distant (noisy) ones.
        world = np.einsum("tnij,tnj->tni", rotations, points_body) + positions
        weights = 1.0 / noise_std[:, :, :1] ** 2
        feature_world = (world * weights).sum(axis=1) / weights.sum(axis=1)

        deltas = feature_world[:, None, :] - positions                # (t, n, 3)
        rotation_t = rotations.swapaxes(2, 3)
        predicted = np.einsum("tnij,tnj->tni", rotation_t, deltas)     # R^T (f - p)
        residuals = ((points_body - predicted) / noise_std).reshape(count, 3 * length)

        # Per-observation blocks: dh/d(rot) = R^T [f - p]_x, dh/d(pos) = -R^T,
        # dh/d(feature) = R^T; whitened by the per-axis stereo noise so the
        # update can use an identity measurement covariance (scaled by
        # observation_noise).
        whitening = (1.0 / noise_std)[..., None]                       # (t, n, 3, 1)
        h_f = whitening * rotation_t

        # Project onto the left nullspace of H_f to remove the feature error.
        q_full, _ = np.linalg.qr(h_f.reshape(count, 3 * length, 3), mode="complete")
        nullspace = q_full[:, :, 3:]                                   # (t, 3n, 3n - 3)
        projected_r = np.einsum("tkm,tk->tm", nullspace, residuals)

        # Chi-square style gating on the residual magnitude.
        rows = 3 * length - 3
        passed = ~(np.sqrt(np.add.reduce(projected_r * projected_r, axis=1))
                   > 10.0 * self.config.observation_noise * np.sqrt(rows))
        kept = int(passed.sum())
        rotation_t, deltas, whitening = rotation_t[passed], deltas[passed], whitening[passed]
        h_rot = whitening * (rotation_t @ skew_batch(deltas).reshape(kept, length, 3, 3))
        blocks = np.concatenate([h_rot, -whitening * rotation_t], axis=3)   # (t', n, 3, 6)

        # Only each observation's 3x6 clone block is nonzero in the full-state
        # Jacobian, so project the blocks and scatter them to their columns.
        projected_blocks = np.einsum("tnam,tnab->tnbm",
                                     nullspace[passed].reshape(kept, length, 3, rows), blocks)
        columns = self.state.clone_offset(clone_idx[passed])[:, :, None] + np.arange(CLONE_ERROR_DIM)
        projected_h = np.zeros((kept, rows, self.state.error_dim))
        projected_h[np.arange(kept)[:, None, None], :, columns] = projected_blocks
        return projected_h, projected_r[passed], passed
