"""Mapping block: sliding-window bundle adjustment (SLAM mode).

The mapping block solves a non-linear least-squares problem over a window of
keyframe poses and the landmarks they observe, minimizing the discrepancy
between the stereo-measured body-frame points and the map (Sec. IV-A).  The
problem is solved with Levenberg-Marquardt, mirroring the Ceres LM solver the
paper targets, and uses the Schur complement over landmarks so the reduced
system only involves keyframe poses.  When the window overflows, the oldest
keyframe and its exclusive landmarks are marginalized into a prior — the
SLAM mode's dominant latency-variation kernel (Fig. 8/11).

The solver works on arrays: the window's rotations, translations and
landmark positions are stacked once per solve, every iterate is a new set of
arrays, and the keyframe poses and :attr:`KeyframeMapper.landmarks` are
written once, at the end.  The five normal-equation scatters of a solve fill
through one :class:`NormalLayout`, and a rejected step re-solves the blocks
it already assembled with more damping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.marginalization import MarginalizationResult, marginalize_schur
from repro.common.config import MappingConfig
from repro.common.geometry import Pose, skew_batch, so3_exp_batch
from repro.common.timing import StopwatchCollector
from repro.frontend.frontend import FrontendResult
from repro.linalg.ops import matmul, transpose
from repro.linalg.solvers import batched_symmetric_inverse, solve_spd
from repro.obs.profile import profile_kernel


class NormalLayout:
    """Where every observation's normal-equation terms land, for one solve.

    The window's observation structure is fixed while the solver iterates,
    so the flat ``np.bincount`` index of all five scatters (6x6 pose blocks,
    6x3 cross blocks, 3x3 landmark blocks and the two gradient halves) is
    built once.  :meth:`fill` sums them in one ``bincount`` call.  Like
    ``np.add.at`` into zeros, every bin adds its values in observation order
    starting from 0.0, so the sums are bit-identical (a sum of signed zeros
    is +0.0).
    """

    def __init__(self, kf_idx: np.ndarray, lm_idx: np.ndarray,
                 pose_count: int, landmark_count: int) -> None:
        scatters = (  # (block index of each observation, entries per block, blocks)
            (kf_idx, 36, pose_count),
            (kf_idx * landmark_count + lm_idx, 18, pose_count * landmark_count),
            (lm_idx, 9, landmark_count),
            (kf_idx, 6, pose_count),
            (lm_idx, 3, landmark_count),
        )
        flat: List[np.ndarray] = []
        self.bounds = [0]
        for index, size, count in scatters:
            flat.append((index[:, None] * size + (self.bounds[-1] + np.arange(size))).reshape(-1))
            self.bounds.append(self.bounds[-1] + count * size)
        self.index = np.concatenate(flat)
        self.shapes = ((pose_count, 6, 6), (pose_count, landmark_count, 6, 3),
                       (landmark_count, 3, 3), (pose_count, 6), (landmark_count, 3))

    def fill(self, terms: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, ...]:
        """Sum the five per-observation term stacks into their blocks.

        The blocks are views of one array, so a caller that adds into one
        in place must copy it first.
        """
        sums = np.bincount(self.index, weights=np.concatenate([t.reshape(-1) for t in terms]),
                           minlength=self.bounds[-1])
        return tuple(sums[start:end].reshape(shape)
                     for start, end, shape in zip(self.bounds, self.bounds[1:], self.shapes))


@dataclass
class SlamWorkload:
    """Problem sizes the SLAM backend kernels operated on this frame."""

    keyframes: int = 0
    landmarks: int = 0
    observations: int = 0
    solver_iterations: int = 0
    hessian_dim: int = 0
    marginalized_dim: int = 0
    feature_points: int = 0


@dataclass
class Keyframe:
    """One keyframe in the optimization window."""

    frame_index: int
    timestamp: float
    pose: Pose
    observations: Dict[int, np.ndarray] = field(default_factory=dict)  # track -> body point
    observation_sigma: Dict[int, float] = field(default_factory=dict)  # track -> noise std

    def sigma(self, track_id: int) -> float:
        return self.observation_sigma.get(track_id, 0.1)


class KeyframeMapper:
    """Sliding-window bundle adjustment with Schur-complement marginalization."""

    def __init__(self, config: Optional[MappingConfig] = None) -> None:
        self.config = config or MappingConfig()
        self.keyframes: List[Keyframe] = []
        self.landmarks: Dict[int, np.ndarray] = {}
        # Marginalization prior over the keyframe poses currently in the window.
        self._prior_hessian: Optional[np.ndarray] = None
        self._prior_gradient: Optional[np.ndarray] = None
        self._prior_frames: List[int] = []
        self.last_workload = SlamWorkload()
        self.last_kernel_ms: Dict[str, float] = {}

    # ------------------------------------------------------------ interface

    @property
    def map_size(self) -> int:
        return len(self.landmarks)

    def landmark_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every landmark as ``(ids int64 (n,), positions (n, 3))``, in insertion order."""
        ids = np.fromiter(self.landmarks, dtype=np.int64, count=len(self.landmarks))
        positions = np.stack(list(self.landmarks.values())) if self.landmarks else np.zeros((0, 3))
        return ids, positions

    def latest_pose(self) -> Optional[Pose]:
        if not self.keyframes:
            return None
        return self.keyframes[-1].pose.copy()

    def residual_stats(self) -> Tuple[float, float, int]:
        """Window self-consistency: (mean, max, count) of observation residuals.

        The residual of one observation is the distance between the
        keyframe-observed body point transformed into the world and the
        current landmark estimate — the quantity the bundle adjustment
        minimizes.  This is the observable map-quality statistic a fleet
        can compute without ground truth; the map service records it in
        every published snapshot.
        """
        residuals: List[float] = []
        for keyframe in self.keyframes:
            for track_id, point_body in keyframe.observations.items():
                landmark = self.landmarks.get(track_id)
                if landmark is None:
                    continue
                predicted = keyframe.pose.transform_point(point_body)
                residuals.append(float(np.linalg.norm(predicted - landmark)))
        if not residuals:
            return 0.0, 0.0, 0
        return float(np.mean(residuals)), float(np.max(residuals)), len(residuals)

    def should_insert_keyframe(self, pose: Pose) -> bool:
        """Insert a keyframe when the pose moved enough since the last one."""
        if not self.keyframes:
            return True
        last = self.keyframes[-1].pose
        translation = float(np.linalg.norm(pose.translation - last.translation))
        rotation = pose.rotation_angle_to(last)
        return translation > self.config.keyframe_translation or rotation > self.config.keyframe_rotation

    def insert_keyframe(self, frontend: FrontendResult, pose_guess: Pose) -> SlamWorkload:
        """Add a keyframe, run the solver, and marginalize if needed."""
        stopwatch = StopwatchCollector()
        workload = SlamWorkload()

        with stopwatch.measure("init"):
            track_ids = frontend.track_ids.tolist()
            keyframe = Keyframe(
                frame_index=frontend.frame_index,
                timestamp=frontend.timestamp,
                pose=pose_guess.copy(),
                observations=dict(zip(track_ids, frontend.points_body.copy())),
                observation_sigma=dict(zip(track_ids, np.maximum(frontend.noise_std.mean(axis=1),
                                                                 1e-3).tolist())),
            )
            self.keyframes.append(keyframe)
            self._initialize_landmarks(keyframe)

        with stopwatch.measure("solver"):
            with profile_kernel("slam.bundle_adjustment",
                                keyframes=len(self.keyframes)):
                iterations = self._optimize(workload)
            workload.solver_iterations = iterations

        with stopwatch.measure("marginalization"):
            if len(self.keyframes) > self.config.window_size:
                with profile_kernel("slam.marginalization"):
                    self._marginalize_oldest(workload)

        workload.keyframes = len(self.keyframes)
        workload.landmarks = len(self.landmarks)
        workload.observations = sum(len(kf.observations) for kf in self.keyframes)
        self.last_workload = workload
        self.last_kernel_ms = stopwatch.as_dict()
        return workload

    # ------------------------------------------------------------ internals

    def _initialize_landmarks(self, keyframe: Keyframe) -> None:
        for track_id, point_body in keyframe.observations.items():
            if track_id not in self.landmarks:
                self.landmarks[track_id] = keyframe.pose.transform_point(point_body)

    def _window_landmark_ids(self) -> List[int]:
        """Landmarks observed by at least two keyframes in the window."""
        counts: Dict[int, int] = {}
        for keyframe in self.keyframes:
            for track_id in keyframe.observations:
                counts[track_id] = counts.get(track_id, 0) + 1
        return sorted(track_id for track_id, count in counts.items() if count >= 2 and track_id in self.landmarks)

    def _optimize(self, workload: SlamWorkload) -> int:
        """Levenberg-Marquardt over window poses and landmarks (Schur trick).

        The iterate is three arrays: rotations ``(K, 3, 3)``, translations
        ``(K, 3)`` and window-landmark positions ``(L, 3)``.  A step builds
        new ones; a rejected step keeps the old ones, whose residuals and
        assembled blocks it re-solves with more damping.  The final iterate
        is written to the keyframe poses and :attr:`landmarks` once.
        """
        landmark_ids = self._window_landmark_ids()
        if len(self.keyframes) < 2 or not landmark_ids:
            return 0
        gathered = self._gather_window(landmark_ids)
        if gathered is None:
            return 0
        layout = NormalLayout(gathered[0], gathered[1], len(self.keyframes), len(landmark_ids))
        state = self._window_state(landmark_ids)
        damping = self.config.initial_damping
        residuals = self._batched_residuals(gathered, *state)
        blocks = None
        previous_cost = self._cost(residuals)
        iterations = 0
        for _ in range(self.config.max_iterations):
            iterations += 1
            if blocks is None:
                blocks = self._assemble_normal_blocks(layout, residuals)
            step = self._solve_normal_equations(blocks, damping, workload)
            if step is None:
                break
            rotations, translations, positions = state
            pose_delta, landmark_delta = step[0].reshape(-1, 6), step[1].reshape(-1, 3)
            trial_state = (so3_exp_batch(pose_delta[:, :3]) @ rotations,
                           translations + pose_delta[:, 3:],
                           positions + landmark_delta)
            trial = self._batched_residuals(gathered, *trial_state)
            cost = self._cost(trial)
            if cost < previous_cost:
                state, residuals, blocks = trial_state, trial, None
                damping = max(damping * self.config.damping_down, 1e-9)
                if previous_cost - cost < self.config.convergence_tolerance * max(previous_cost, 1.0):
                    break
                previous_cost = cost
            else:
                damping *= self.config.damping_up
        rotations, translations, positions = state
        for keyframe, rotation, translation in zip(self.keyframes, rotations, translations):
            keyframe.pose = Pose(rotation.copy(), translation.copy())
        for track_id, position in zip(landmark_ids, positions):
            self.landmarks[track_id] = position.copy()
        return iterations

    def _window_state(self, landmark_ids: List[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The window's rotations, translations and ``landmark_ids`` positions, stacked."""
        return (np.stack([kf.pose.rotation for kf in self.keyframes]),
                np.stack([kf.pose.translation for kf in self.keyframes]),
                np.stack([self.landmarks[track_id] for track_id in landmark_ids]))

    def _gather_window(self, landmark_ids: List[int]) -> Optional[Tuple[np.ndarray, ...]]:
        """Flatten the window's (keyframe, landmark) observations into index arrays.

        The observation structure is fixed while the solver iterates (only the
        pose and landmark values move), so the gather runs once per solve and
        every residual/Jacobian evaluation afterwards is a batched array op.
        """
        index_of = {track_id: i for i, track_id in enumerate(landmark_ids)}
        kf_idx: List[int] = []
        lm_idx: List[int] = []
        meas: List[np.ndarray] = []
        sigma: List[float] = []
        for k, keyframe in enumerate(self.keyframes):
            for track_id, measurement in keyframe.observations.items():
                j = index_of.get(track_id)
                if j is None:
                    continue
                kf_idx.append(k)
                lm_idx.append(j)
                meas.append(measurement)
                sigma.append(keyframe.sigma(track_id))
        if not kf_idx:
            return None
        return (
            np.asarray(kf_idx),
            np.asarray(lm_idx),
            np.asarray(meas, dtype=float),
            np.maximum(np.asarray(sigma, dtype=float), 1e-3),
        )

    def _batched_residuals(self, gathered: Tuple[np.ndarray, ...], rotations: np.ndarray,
                           translations: np.ndarray, landmarks: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Residuals and Huber weights for every gathered observation at once."""
        kf_idx, lm_idx, meas, sigma = gathered
        rot = rotations[kf_idx]                                   # (n, 3, 3)
        delta = landmarks[lm_idx] - translations[kf_idx]          # (n, 3)
        predicted = np.einsum("nji,nj->ni", rot, delta)           # R^T (l - t)
        residual = meas - predicted
        base = 1.0 / sigma**2
        norm = np.linalg.norm(residual, axis=1) / sigma
        weight = np.where(
            norm <= self.config.huber_delta,
            base,
            base * self.config.huber_delta / np.maximum(norm, 1e-12),
        )
        return rot, delta, residual, weight

    @staticmethod
    def _batched_jacobians(rot: np.ndarray, delta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pose and landmark Jacobian blocks for a batch of observations.

        ``j_pose`` is the (n, 3, 6) stack of ``[-R^T [l - t]_x | R^T]`` blocks
        and ``j_landmark`` the (n, 3, 3) stack of ``-R^T`` blocks.
        """
        rotation_t = np.transpose(rot, (0, 2, 1))
        j_rotation = -np.einsum("nji,njk->nik", rot, skew_batch(delta))
        j_pose = np.concatenate([j_rotation, rotation_t], axis=2)
        return j_pose, -rotation_t

    def _assemble_normal_blocks(self, layout: NormalLayout,
                                residuals: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, ...]:
        """Accumulate the weighted Gauss-Newton blocks for all observations.

        Returns ``(pose_blocks, cross_blocks, landmark_blocks, b_pose,
        b_landmark)``: per-keyframe 6x6 diagonal blocks, per-(keyframe,
        landmark) 6x3 cross blocks, per-landmark 3x3 diagonal blocks, and the
        negated gradient halves, as views of one :meth:`NormalLayout.fill`.
        Shared by the solver and marginalization so the two linearizations
        can never drift apart.  ``residuals`` is the
        :meth:`_batched_residuals` tuple at the current iterate.
        """
        rot, delta, residual, weight = residuals
        j_pose, j_landmark = self._batched_jacobians(rot, delta)
        w = weight[:, None, None]
        return layout.fill((
            w * np.einsum("nki,nkj->nij", j_pose, j_pose),
            w * np.einsum("nki,nkj->nij", j_pose, j_landmark),
            w * np.einsum("nki,nkj->nij", j_landmark, j_landmark),
            -weight[:, None] * np.einsum("nki,nk->ni", j_pose, residual),
            -weight[:, None] * np.einsum("nki,nk->ni", j_landmark, residual),
        ))

    @staticmethod
    def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
        """Dense block-diagonal matrix from an ``(n, d, d)`` stack."""
        n, d = blocks.shape[0], blocks.shape[1]
        out = np.zeros((n * d, n * d))
        out.reshape(n, d, n, d)[np.arange(n), :, np.arange(n), :] = blocks
        return out

    @staticmethod
    def _cost(residuals: Tuple[np.ndarray, ...]) -> float:
        """Weighted squared error of a :meth:`_batched_residuals` tuple."""
        _, _, residual, weight = residuals
        return float(np.sum(weight * np.einsum("ni,ni->n", residual, residual)))

    def _solve_normal_equations(self, blocks: Tuple[np.ndarray, ...], damping: float,
                                workload: SlamWorkload) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Solve the damped normal equations of ``blocks`` with a Schur complement.

        Returns the stacked pose step ``(6K,)`` and landmark step ``(3L,)``.
        ``blocks`` is left as it was, so a rejected step can re-solve it.
        """
        pose_blocks, cross_blocks, landmark_blocks, b_pose, b_landmark = blocks
        pose_count, landmark_count = pose_blocks.shape[0], landmark_blocks.shape[0]
        pose_dim = 6 * pose_count
        landmark_dim = 3 * landmark_count

        h_pp = self._block_diagonal(pose_blocks)
        h_pl = cross_blocks.transpose(0, 2, 1, 3).reshape(pose_dim, landmark_dim)
        # A copy: the prior is added into it in place.
        b_p = b_pose.reshape(-1).copy()
        b_l = b_landmark.reshape(-1)

        # Gauge fixing: anchor the first keyframe with a strong prior.
        h_pp[:6, :6] += np.eye(6) * 1e8
        # Marginalization prior from previously removed keyframes.
        self._apply_prior(h_pp, b_p)

        h_pp += np.eye(pose_dim) * damping
        landmark_blocks = landmark_blocks + np.eye(3) * damping

        workload.hessian_dim = max(workload.hessian_dim, pose_dim + landmark_dim)

        try:
            # Schur complement over landmarks: H_ll is block diagonal (3x3), so
            # its inverse is one batched 3x3 inversion.
            h_ll_inv = self._block_diagonal(batched_symmetric_inverse(landmark_blocks))
            h_pl_h_ll_inv = matmul(h_pl, h_ll_inv)
            reduced_h = h_pp - matmul(h_pl_h_ll_inv, transpose(h_pl))
            reduced_b = b_p - h_pl_h_ll_inv @ b_l
            pose_delta = solve_spd(reduced_h + np.eye(pose_dim) * 1e-9, reduced_b)
            landmark_delta = h_ll_inv @ (b_l - h_pl.T @ pose_delta)
        except np.linalg.LinAlgError:
            return None
        return pose_delta, landmark_delta

    def _apply_prior(self, h_pp: np.ndarray, b_p: np.ndarray) -> None:
        """Add the marginalization prior over the keyframes it references."""
        if self._prior_hessian is None:
            return
        frame_to_slot = {kf.frame_index: i for i, kf in enumerate(self.keyframes)}
        slots = [frame_to_slot.get(frame) for frame in self._prior_frames]
        for a, slot_a in enumerate(slots):
            if slot_a is None:
                continue
            b_p[6 * slot_a : 6 * slot_a + 6] += self._prior_gradient[6 * a : 6 * a + 6]
            for b, slot_b in enumerate(slots):
                if slot_b is None:
                    continue
                h_pp[6 * slot_a : 6 * slot_a + 6, 6 * slot_b : 6 * slot_b + 6] += self._prior_hessian[
                    6 * a : 6 * a + 6, 6 * b : 6 * b + 6
                ]

    def _marginalize_oldest(self, workload: SlamWorkload) -> None:
        """Marginalize the oldest keyframe into a prior on the remaining poses.

        The landmarks the departing keyframe shares with the window are
        marginalized with it through the Schur complement.  Landmarks only it
        observed carry no information about the remaining states, so they stay
        out of the linearization; they leave the active window but stay in
        :attr:`landmarks`, available to the tracking block and the persisted map.
        """
        departing = self.keyframes[0]
        remaining_frames = [kf.frame_index for kf in self.keyframes[1:]]

        shared_landmarks = [
            track_id for track_id in departing.observations
            if track_id in self.landmarks
            and any(track_id in kf.observations for kf in self.keyframes[1:])
        ]
        workload.feature_points = len(departing.observations)

        # Build a small linearized system over (departing pose, shared landmarks,
        # remaining poses) and marginalize the first two groups.
        pose_count = len(self.keyframes)
        landmark_count = len(shared_landmarks)
        pose_dim = 6 * pose_count
        landmark_dim = 3 * landmark_count
        total_dim = pose_dim + landmark_dim
        hessian = np.zeros((total_dim, total_dim))
        gradient = np.zeros(total_dim)

        gathered = self._gather_window(shared_landmarks) if shared_landmarks else None
        if gathered is not None:
            layout = NormalLayout(gathered[0], gathered[1], pose_count, landmark_count)
            residuals = self._batched_residuals(gathered, *self._window_state(shared_landmarks))
            pose_blocks, cross_blocks, landmark_blocks, b_pose, b_landmark = (
                self._assemble_normal_blocks(layout, residuals)
            )
            cross = cross_blocks.transpose(0, 2, 1, 3).reshape(pose_dim, landmark_dim)
            hessian[:pose_dim, :pose_dim] = self._block_diagonal(pose_blocks)
            hessian[:pose_dim, pose_dim:] = cross
            hessian[pose_dim:, :pose_dim] = cross.T
            hessian[pose_dim:, pose_dim:] = self._block_diagonal(landmark_blocks)
            gradient[:pose_dim] = b_pose.reshape(-1)
            gradient[pose_dim:] = b_landmark.reshape(-1)

        marginalize_indices = list(range(0, 6)) + list(range(pose_dim, total_dim))
        result: MarginalizationResult = marginalize_schur(hessian, gradient, marginalize_indices)
        workload.marginalized_dim = result.marginalized_dim

        self._prior_hessian = result.hessian
        self._prior_gradient = result.gradient
        self._prior_frames = remaining_frames
        self.keyframes.pop(0)
