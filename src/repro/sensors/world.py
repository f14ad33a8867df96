"""Synthetic 3-D landmark worlds.

Visual localization algorithms consume feature correspondences, which
ultimately come from salient 3-D landmarks in the environment.  The world
model generates persistent landmark clouds along the trajectory corridor
(walls for indoor scenes, building facades / roadside structure for outdoor
scenes).  A world is three columns, one row per landmark: ``landmark_ids``,
``positions`` and ``appearance_seeds``, the identifier from which the
frontend synthesizes the landmark's stable ORB descriptor and the renderer
its image patch.
"""

from __future__ import annotations

import numpy as np


class LandmarkWorld:
    """A landmark cloud as columns, one row per landmark.

    Parameters
    ----------
    landmark_ids:
        ``(n,)`` int64 persistent identities.
    positions:
        ``(n, 3)`` world positions.
    appearance_seeds:
        ``(n,)`` int64 appearance identities.
    is_indoor:
        Indoor scenes have denser, closer structure; outdoor scenes have
        sparser, farther structure.  The flag is carried along so scenario
        generators can reason about GPS availability.
    """

    def __init__(self, landmark_ids: np.ndarray, positions: np.ndarray,
                 appearance_seeds: np.ndarray, is_indoor: bool = False) -> None:
        self.landmark_ids = np.asarray(landmark_ids, dtype=np.int64)
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.appearance_seeds = np.asarray(appearance_seeds, dtype=np.int64)
        self.is_indoor = is_indoor

    def __len__(self) -> int:
        return self.landmark_ids.size

    @classmethod
    def corridor(cls, trajectory_points: np.ndarray, count: int, lateral_spread: float,
                 height_spread: float, is_indoor: bool, seed: int = 0,
                 forward_spread: float = 5.0) -> "LandmarkWorld":
        """Scatter landmarks in a corridor around a trajectory.

        Landmarks are placed around randomly selected trajectory points with
        lateral and vertical offsets, mimicking walls/racking indoors and
        facades/vegetation outdoors.
        """
        rng = np.random.default_rng(seed)
        trajectory_points = np.asarray(trajectory_points, dtype=float).reshape(-1, 3)
        anchors = trajectory_points[rng.integers(0, len(trajectory_points), size=count)]
        offsets = np.stack(
            [
                rng.uniform(-forward_spread, forward_spread, size=count),
                rng.choice([-1.0, 1.0], size=count) * rng.uniform(0.3 * lateral_spread, lateral_spread, size=count),
                rng.uniform(-0.2 * height_spread, height_spread, size=count),
            ],
            axis=1,
        )
        positions = anchors + offsets
        appearance_seeds = rng.integers(0, 2**31 - 1, size=count)
        return cls(np.arange(count, dtype=np.int64), positions, appearance_seeds, is_indoor=is_indoor)

    @classmethod
    def indoor(cls, trajectory_points: np.ndarray, count: int = 400, seed: int = 0) -> "LandmarkWorld":
        """Dense, close-range structure typical of warehouses and offices."""
        return cls.corridor(
            trajectory_points,
            count=count,
            lateral_spread=4.0,
            height_spread=3.0,
            is_indoor=True,
            seed=seed,
            forward_spread=3.0,
        )

    @classmethod
    def outdoor(cls, trajectory_points: np.ndarray, count: int = 400, seed: int = 0) -> "LandmarkWorld":
        """Sparser, longer-range structure typical of urban driving."""
        return cls.corridor(
            trajectory_points,
            count=count,
            lateral_spread=15.0,
            height_spread=8.0,
            is_indoor=False,
            seed=seed,
            forward_spread=12.0,
        )


def camera_frame_from_body(points_body: np.ndarray) -> np.ndarray:
    """Convert body-frame points (x forward, y left, z up) to camera frame.

    The camera frame follows the computer-vision convention: z forward,
    x right, y down.
    """
    points_body = np.asarray(points_body, dtype=float).reshape(-1, 3)
    return np.stack(
        [
            -points_body[:, 1],
            -points_body[:, 2],
            points_body[:, 0],
        ],
        axis=1,
    )


def body_frame_from_camera(points_camera: np.ndarray) -> np.ndarray:
    """Inverse of :func:`camera_frame_from_body`."""
    points_camera = np.asarray(points_camera, dtype=float).reshape(-1, 3)
    return np.stack(
        [
            points_camera[:, 2],
            -points_camera[:, 0],
            -points_camera[:, 1],
        ],
        axis=1,
    )
