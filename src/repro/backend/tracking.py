"""Tracking block: pose estimation against a map (registration and SLAM).

Given the current frame's stereo features and a map of 3-D points, the
tracking block estimates the absolute pose.  Its pipeline follows the
registration-mode breakdown of Fig. 6:

* **Projection** — project every map point through the camera model at the
  pose prior (the ``C @ X`` matrix multiplication whose latency scales with
  the number of map points, Fig. 16a).
* **Match** — associate current observations with map points by persistent
  identity, falling back to descriptor matching when too few identities
  name map points.
* **Pose optimization** — closed-form absolute orientation (Horn/SVD) on the
  3-D/3-D correspondences followed by robust re-weighted refinement.

The paper's fourth stage, **Update**, is kept only in the modeled ledgers
(the CPU baseline and the accelerator models); the tracker measures the
three stages above and writes nothing back to the map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.camera import PinholeCamera
from repro.common.config import TrackingConfig
from repro.common.geometry import Pose, homogeneous
from repro.common.timing import StopwatchCollector
from repro.frontend.frontend import FrontendResult, synthetic_descriptors_for_tracks
from repro.frontend.orb import descriptor_from_seed, hamming_distance_matrix
from repro.linalg.ops import matmul
from repro.sensors.world import LandmarkWorld, camera_frame_from_body


@dataclass
class RegistrationWorkload:
    """Problem sizes the registration-mode kernels operated on this frame."""

    map_points: int = 0
    # Visible (frustum-culled) subset actually pushed through projection.
    # None means "not measured" (synthetic workloads), distinct from a
    # legitimate zero-visibility frame.
    projected_points: Optional[int] = None
    matches: int = 0
    inliers: int = 0
    pose_iterations: int = 0

    @property
    def projection_points(self) -> int:
        """The Fig. 16a x-axis: number of points pushed through projection.

        With frustum culling this is the per-frame visible subset of the map
        (the source of the registration mode's latency variation); synthetic
        workloads that only populate ``map_points`` fall back to the full map.
        """
        return self.map_points if self.projected_points is None else self.projected_points


class LocalizationMap:
    """A map of 3-D points as columns, one row per point.

    ``point_ids`` (int64) and ``positions`` ``(n, 3)`` name and place every
    point; ``point_descriptors`` ``(n, 32)`` uint8 holds the binary
    descriptor of the rows that ``has_descriptor`` marks (zeros elsewhere);
    ``row_of`` maps a point id to its row.  The columns are read, never
    written: a map that changes is built anew.

    A map given ``has_descriptor`` but no descriptors is a survey map
    (:meth:`from_world`): each marked row carries the appearance of its
    landmark id, built on the first read of ``point_descriptors``, since
    most survey maps are never matched by descriptor.
    """

    def __init__(self, point_ids: np.ndarray = (), positions: np.ndarray = (),
                 point_descriptors: Optional[np.ndarray] = None,
                 has_descriptor: Optional[np.ndarray] = None) -> None:
        self.point_ids = np.asarray(point_ids, dtype=np.int64)
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        described = point_descriptors is not None
        self._point_descriptors = np.asarray(point_descriptors, dtype=np.uint8) if described else None
        self.has_descriptor = (np.full(self.point_ids.size, described) if has_descriptor is None
                               else np.asarray(has_descriptor, dtype=bool))
        self.row_of: Dict[int, int] = {point_id: row for row, point_id in enumerate(self.point_ids.tolist())}

    def __len__(self) -> int:
        return self.point_ids.size

    @property
    def point_descriptors(self) -> np.ndarray:
        if self._point_descriptors is None:
            descriptors = np.zeros((self.point_ids.size, 32), dtype=np.uint8)
            rows = np.flatnonzero(self.has_descriptor)
            for row, point_id in zip(rows.tolist(), self.point_ids[rows].tolist()):
                descriptors[row] = descriptor_from_seed(point_id * 2654435761 % (2**31))
            self._point_descriptors = descriptors
        return self._point_descriptors

    def descriptors(self) -> Tuple[np.ndarray, np.ndarray]:
        """The rows of the points that carry a descriptor, and their descriptors."""
        rows = np.flatnonzero(self.has_descriptor)
        return rows, self.point_descriptors[rows]

    @classmethod
    def from_world(cls, world: LandmarkWorld, position_noise: float = 0.05,
                   position_bias_std: float = 0.0, seed: int = 0) -> "LocalizationMap":
        """Build a pre-constructed map from a simulated landmark world.

        This models the paper's "known environment": the environment has been
        mapped on a previous traversal, so the map is accurate up to a small
        survey noise.  ``position_bias_std`` additionally draws one common
        offset applied to every point — the datum error of a georeferenced
        outdoor survey, which per-point averaging in the pose solver cannot
        remove.
        """
        rng = np.random.default_rng(seed)
        bias = rng.normal(0.0, position_bias_std, size=3) if position_bias_std > 0.0 else np.zeros(3)
        positions = world.positions + bias + rng.normal(0.0, position_noise, size=(len(world), 3))
        return cls(world.landmark_ids, positions, has_descriptor=np.ones(len(world), dtype=bool))


class MapTracker:
    """Estimates the pose of each frame against a :class:`LocalizationMap`.

    The tracker reads the map's columns as they are: projection takes the
    whole ``positions`` column, and matching looks up rows through
    ``row_of`` (or the described rows, on the descriptor fallback) and
    gathers their ids and positions.
    """

    # Bit flips per track descriptor, drawn from a generator with a fixed
    # seed: two trackers fed the same frames draw the same flips.
    DESCRIPTOR_NOISE_BITS = 4
    DESCRIPTOR_NOISE_SEED = 0

    def __init__(self, config: Optional[TrackingConfig] = None,
                 camera: Optional[PinholeCamera] = None) -> None:
        self.config = config or TrackingConfig()
        self.camera = camera
        self._descriptor_rng = np.random.default_rng(self.DESCRIPTOR_NOISE_SEED)
        self.last_workload = RegistrationWorkload()
        self.last_kernel_ms: Dict[str, float] = {}
        # Basis of the last tracked frame's per-landmark evidence; the
        # triples themselves are computed lazily in last_map_observations —
        # only registration sessions with an active fleet map ever read
        # them, and every other MapTracker frame must not pay for them.
        self._observation_basis: Optional[Tuple[Pose, np.ndarray, np.ndarray, np.ndarray]] = None
        self._map_observations: Optional[List[Tuple[int, np.ndarray, float]]] = None

    def track(self, frontend: FrontendResult, localization_map: LocalizationMap,
              prior_pose: Optional[Pose] = None) -> Tuple[Optional[Pose], RegistrationWorkload]:
        """Estimate the frame pose; returns (pose, workload)."""
        stopwatch = StopwatchCollector()
        workload = RegistrationWorkload(map_points=len(localization_map))
        prior = prior_pose or Pose.identity()

        with stopwatch.measure("projection"):
            projected = self._project_map(localization_map, prior)
            workload.projected_points = projected.shape[1] if projected.size else 0

        with stopwatch.measure("match"):
            map_ids, body, world, sigma = self._match(frontend, localization_map)
            workload.matches = map_ids.size

        pose: Optional[Pose] = None
        with stopwatch.measure("pose_optimization"):
            if map_ids.size >= self.config.min_inliers:
                pose, inliers, iterations = self._estimate_pose(body, world, sigma)
                workload.inliers = inliers
                workload.pose_iterations = iterations

        # Stash the basis for the fleet map-update lifecycle's per-landmark
        # evidence; the triples are derived lazily (see
        # last_map_observations) so frames nobody asks about cost nothing.
        self._observation_basis = ((pose, map_ids, body, world)
                                   if pose is not None and map_ids.size else None)
        self._map_observations = None

        self.last_workload = workload
        self.last_kernel_ms = stopwatch.as_dict()
        return pose, workload

    @property
    def last_map_observations(self) -> List[Tuple[int, np.ndarray, float]]:
        """Per-landmark evidence of the last tracked frame, computed lazily.

        ``(map point id, observed world position — the body point through
        the solved pose — residual against the map)`` triples; empty when
        tracking failed.  The serving layer's map-update lifecycle is the
        only consumer, so the array work happens on first access per frame
        (cached until the next :meth:`track`), not on every tracked frame
        of every experiment.
        """
        if self._map_observations is None:
            basis = self._observation_basis
            if basis is None:
                self._map_observations = []
            else:
                pose, map_ids, body, world = basis
                observed = pose.transform_points(body)
                residuals = np.linalg.norm(observed - world, axis=1)
                self._map_observations = list(zip(map_ids.tolist(), observed, residuals.tolist()))
        return self._map_observations

    # ------------------------------------------------------------ internals

    def _track_descriptors(self, frontend: FrontendResult) -> np.ndarray:
        return synthetic_descriptors_for_tracks(
            frontend.track_ids, self.DESCRIPTOR_NOISE_BITS, self._descriptor_rng)

    def _project_map(self, localization_map: LocalizationMap, prior: Pose) -> np.ndarray:
        """Project all map points through the camera model at the prior pose.

        This is the registration-mode Projection kernel: a 3x4 camera matrix
        multiplied with a 4xM homogeneous point matrix (Sec. VI-A).
        """
        positions = localization_map.positions
        if positions.shape[0] == 0:
            return np.zeros((3, 0))
        camera = self.camera or PinholeCamera.from_fov(640, 480, 90.0)
        points_body = (positions - prior.translation) @ prior.rotation
        points_camera = camera_frame_from_body(points_body)
        # Coarse frustum culling (local-map tracking): only points plausibly
        # visible from the prior pose are pushed through the projection
        # kernel.  The visible subset changes as the platform moves, which is
        # the source of the projection kernel's per-frame latency variation.
        # The lateral cone follows the camera's actual half-FOV (plus a
        # margin for prior-pose error), so narrow-FOV rigs cull tighter.
        depth = points_camera[:, 2]
        slope_x = self.config.cull_fov_margin * camera.width / (2.0 * camera.fx)
        slope_y = self.config.cull_fov_margin * camera.height / (2.0 * camera.fy)
        visible = (
            (depth > self.config.cull_near_m)
            & (depth < self.config.cull_far_m)
            & (np.abs(points_camera[:, 0]) < slope_x * depth + 1.0)
            & (np.abs(points_camera[:, 1]) < slope_y * depth + 1.0)
        )
        points_camera = points_camera[visible]
        if points_camera.shape[0] == 0:
            return np.zeros((3, 0))
        homogeneous_points = homogeneous(points_camera).T  # 4 x M
        return matmul(camera.projection_matrix, homogeneous_points)

    def _match(self, frontend: FrontendResult,
               localization_map: LocalizationMap) -> Tuple[np.ndarray, ...]:
        """Associate observations to map points.

        Returns ``(map point ids, body points, map points, noise std)``
        columns, one row per match, where the noise std is the depth std of
        the stereo-triangulated body point.  Matches by track identity come
        first, in frontend row order; too few of them add the descriptor
        matches of every row after them.
        """
        row_of = localization_map.row_of
        track_ids = frontend.track_ids.tolist()
        rows = [row for row, track_id in enumerate(track_ids) if track_id in row_of]
        map_rows = [row_of[track_ids[row]] for row in rows]
        if len(rows) < self.config.min_inliers:
            # Fall back to descriptor matching (needed when track identities do
            # not align with map identities, e.g. dense-frontend relocalization).
            descriptors = self._track_descriptors(frontend)
            described_rows, map_descriptors = localization_map.descriptors()
            if descriptors.shape[0] > 0 and map_descriptors.shape[0] > 0:
                distances = hamming_distance_matrix(descriptors, map_descriptors)
                for row, nearest in enumerate(np.argmin(distances, axis=1).tolist()):
                    if distances[row, nearest] <= 64:
                        rows.append(row)
                        map_rows.append(int(described_rows[nearest]))
        map_rows = np.array(map_rows, dtype=np.int64)
        return (localization_map.point_ids[map_rows], frontend.points_body[rows],
                localization_map.positions[map_rows], frontend.noise_std[rows, 0])

    def _estimate_pose(self, body: np.ndarray, world: np.ndarray,
                       sigma: np.ndarray) -> Tuple[Pose, int, int]:
        """Robust absolute-orientation estimation from 3-D/3-D matches."""
        sigma = np.maximum(sigma, 1e-3)
        base_weights = 1.0 / sigma**2
        weights = base_weights.copy()
        pose = Pose.identity()
        iterations = 0
        inliers = len(body)
        for iteration in range(self.config.pnp_iterations):
            iterations += 1
            pose = _weighted_horn(body, world, weights)
            predicted = pose.transform_points(body)
            errors = np.linalg.norm(predicted - world, axis=1)
            threshold = self.config.pnp_inlier_threshold * np.maximum(sigma, 0.05)
            inlier_mask = errors <= threshold
            inliers = int(inlier_mask.sum())
            new_weights = base_weights * inlier_mask.astype(float)
            if inliers < self.config.min_inliers:
                new_weights = base_weights
                inliers = len(body)
            if np.allclose(new_weights, weights):
                break
            weights = new_weights
        return pose, inliers, iterations


def _weighted_horn(body: np.ndarray, world: np.ndarray, weights: np.ndarray) -> Pose:
    """Weighted Horn's method: find R, t with ``world ~= R @ body + t``."""
    weights = np.asarray(weights, dtype=float)
    total = max(weights.sum(), 1e-9)
    body_centroid = (weights[:, None] * body).sum(axis=0) / total
    world_centroid = (weights[:, None] * world).sum(axis=0) / total
    body_centered = body - body_centroid
    world_centered = world - world_centroid
    covariance = (weights[:, None] * body_centered).T @ world_centered
    u, _, vt = np.linalg.svd(covariance)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    correction = np.diag([1.0, 1.0, d])
    rotation = vt.T @ correction @ u.T
    translation = world_centroid - rotation @ body_centroid
    return Pose(rotation, translation)
