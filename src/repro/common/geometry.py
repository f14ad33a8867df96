"""Rigid-body geometry: rotations and 6-DoF poses.

Localization estimates the six degree-of-freedom pose of a body: a 3-D
translation ``(x, y, z)`` plus a rotation (yaw, pitch, roll), exactly the
quantity depicted in Fig. 1 of the paper.  This module provides the SO(3) /
SE(3) machinery used by the sensor simulator, the MSCKF filter, the bundle
adjustment backend and the evaluation metrics.

All rotations are represented as 3x3 orthonormal matrices; conversions to
and from Euler angles are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_EPS = 1e-12


def skew(v: np.ndarray) -> np.ndarray:
    """Return the 3x3 skew-symmetric (cross-product) matrix of a 3-vector."""
    v = np.asarray(v, dtype=float).reshape(3)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def skew_batch(vectors: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrices for a batch of 3-vectors: ``(n, 3) -> (n, 3, 3)``."""
    v = np.asarray(vectors, dtype=float).reshape(-1, 3)
    out = np.zeros((v.shape[0], 3, 3))
    out[:, 0, 1] = -v[:, 2]
    out[:, 0, 2] = v[:, 1]
    out[:, 1, 0] = v[:, 2]
    out[:, 1, 2] = -v[:, 0]
    out[:, 2, 0] = -v[:, 1]
    out[:, 2, 1] = v[:, 0]
    return out


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Exponential map from a rotation vector to a rotation matrix.

    Uses the Rodrigues formula with a Taylor fallback for small angles so the
    map is smooth through the identity.
    """
    phi = np.asarray(phi, dtype=float).reshape(3)
    angle = float(np.linalg.norm(phi))
    if angle < 1e-9:
        return np.eye(3) + skew(phi)
    axis = phi / angle
    k = skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def so3_exp_batch(phis: np.ndarray) -> np.ndarray:
    """:func:`so3_exp` of every row: ``(n, 3) -> (n, 3, 3)``, bit for bit.

    Each row's angle is the square root of its stacked-matmul dot with
    itself, the value ``np.linalg.norm`` computes for one row; an einsum or
    an axis-wise norm can round it differently.
    """
    phis = np.asarray(phis, dtype=float).reshape(-1, 3)
    angles = np.sqrt((phis[:, None, :] @ phis[:, :, None])[:, 0, 0])
    small = angles < 1e-9
    # Small rows divide by 1.0 here and take the Taylor branch below.
    angles = np.where(small, 1.0, angles)[:, None, None]
    k = skew_batch(phis / angles[:, :, 0])
    out = np.eye(3) + np.sin(angles) * k + (1.0 - np.cos(angles)) * (k @ k)
    if small.any():
        out[small] = np.eye(3) + skew_batch(phis[small])
    return out


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Logarithm map from a rotation matrix to a rotation vector."""
    rotation = np.asarray(rotation, dtype=float).reshape(3, 3)
    cos_angle = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    if angle < 1e-9:
        return np.array(
            [
                rotation[2, 1] - rotation[1, 2],
                rotation[0, 2] - rotation[2, 0],
                rotation[1, 0] - rotation[0, 1],
            ]
        ) / 2.0
    if abs(angle - np.pi) < 1e-6:
        # Near pi the standard formula is ill conditioned; recover the axis
        # from the diagonal of the rotation matrix instead.
        diag = np.diag(rotation)
        axis = np.sqrt(np.maximum((diag + 1.0) / 2.0, 0.0))
        # Fix signs using the off-diagonal terms.
        if rotation[0, 1] + rotation[1, 0] < 0:
            axis[1] = -axis[1]
        if rotation[0, 2] + rotation[2, 0] < 0:
            axis[2] = -axis[2]
        return axis / max(np.linalg.norm(axis), _EPS) * angle
    factor = angle / (2.0 * np.sin(angle))
    return factor * np.array(
        [
            rotation[2, 1] - rotation[1, 2],
            rotation[0, 2] - rotation[2, 0],
            rotation[1, 0] - rotation[0, 1],
        ]
    )


def euler_to_rotation(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Build a rotation matrix from intrinsic Z-Y-X (yaw, pitch, roll) angles."""
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    return rz @ ry @ rx


def rotation_to_euler(rotation: np.ndarray) -> tuple:
    """Recover (yaw, pitch, roll) from a rotation matrix (Z-Y-X convention)."""
    m = np.asarray(rotation, dtype=float).reshape(3, 3)
    pitch = float(np.arcsin(np.clip(-m[2, 0], -1.0, 1.0)))
    if abs(np.cos(pitch)) > 1e-8:
        yaw = float(np.arctan2(m[1, 0], m[0, 0]))
        roll = float(np.arctan2(m[2, 1], m[2, 2]))
    else:  # Gimbal lock: distribute the rotation to yaw.
        yaw = float(np.arctan2(-m[0, 1], m[1, 1]))
        roll = 0.0
    return yaw, pitch, roll


@dataclass
class Pose:
    """A 6-DoF pose: rotation (body-to-world) and translation (world frame)."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """Return the 4x4 homogeneous transform (body to world)."""
        out = np.eye(4)
        out[:3, :3] = self.rotation
        out[:3, 3] = self.translation
        return out

    def euler(self) -> tuple:
        return rotation_to_euler(self.rotation)

    def inverse(self) -> "Pose":
        rot_t = self.rotation.T
        return Pose(rot_t, -rot_t @ self.translation)

    def compose(self, other: "Pose") -> "Pose":
        """Return ``self * other`` (apply ``other`` first, then ``self``)."""
        return Pose(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def transform_point(self, point: np.ndarray) -> np.ndarray:
        """Map a point from the body frame into the world frame."""
        return self.rotation @ np.asarray(point, dtype=float).reshape(3) + self.translation

    def transform_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`transform_point` for an ``(N, 3)`` array."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        return points @ self.rotation.T + self.translation

    def relative_to(self, other: "Pose") -> "Pose":
        """Return the pose of ``self`` expressed in the frame of ``other``."""
        return other.inverse().compose(self)

    def distance_to(self, other: "Pose") -> float:
        """Euclidean distance between the two translations."""
        return float(np.linalg.norm(self.translation - other.translation))

    def rotation_angle_to(self, other: "Pose") -> float:
        """Geodesic rotation angle (radians) between the two orientations."""
        relative = self.rotation.T @ other.rotation
        return float(np.linalg.norm(so3_log(relative)))

    def perturb(self, delta_rotation: np.ndarray, delta_translation: np.ndarray) -> "Pose":
        """Apply a small left perturbation ``(exp(dr), dt)`` to the pose."""
        return Pose(so3_exp(delta_rotation) @ self.rotation, self.translation + delta_translation)

    def copy(self) -> "Pose":
        return Pose(self.rotation.copy(), self.translation.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        yaw, pitch, roll = self.euler()
        return (
            f"Pose(t=[{self.translation[0]:.3f}, {self.translation[1]:.3f}, "
            f"{self.translation[2]:.3f}], ypr=[{yaw:.3f}, {pitch:.3f}, {roll:.3f}])"
        )


def homogeneous(points: np.ndarray) -> np.ndarray:
    """Append a unit coordinate to an ``(N, 3)`` array, yielding ``(N, 4)``."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    return np.hstack([points, np.ones((points.shape[0], 1))])
