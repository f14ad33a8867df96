"""State representation for the MSCKF filtering block.

The filter state consists of the current IMU state (orientation, position,
velocity, gyro bias, accelerometer bias) plus a sliding window of historical
camera poses ("clones"), following the multi-state constraint Kalman filter
formulation.  The error state is minimal: 3 rotation + 3 position + 3
velocity + 3 gyro bias + 3 accel bias for the IMU (15), and 3 rotation + 3
position per clone (6 each).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.common.geometry import Pose, so3_exp

IMU_ERROR_DIM = 15
CLONE_ERROR_DIM = 6


@dataclass
class ImuState:
    """The evolving IMU state."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))
    accel_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def pose(self) -> Pose:
        return Pose(self.rotation.copy(), self.position.copy())

    def copy(self) -> "ImuState":
        return ImuState(
            rotation=self.rotation.copy(),
            position=self.position.copy(),
            velocity=self.velocity.copy(),
            gyro_bias=self.gyro_bias.copy(),
            accel_bias=self.accel_bias.copy(),
        )

    def apply_correction(self, delta: np.ndarray) -> None:
        """Apply a 15-dimensional error-state correction."""
        delta = np.asarray(delta, dtype=float).reshape(IMU_ERROR_DIM)
        self.rotation = so3_exp(delta[0:3]) @ self.rotation
        self.position = self.position + delta[3:6]
        self.velocity = self.velocity + delta[6:9]
        self.gyro_bias = self.gyro_bias + delta[9:12]
        self.accel_bias = self.accel_bias + delta[12:15]


@dataclass
class CloneState:
    """A historical camera pose kept in the sliding window."""

    frame_index: int
    timestamp: float
    rotation: np.ndarray
    position: np.ndarray

    def pose(self) -> Pose:
        return Pose(self.rotation.copy(), self.position.copy())

    def apply_correction(self, delta: np.ndarray) -> None:
        delta = np.asarray(delta, dtype=float).reshape(CLONE_ERROR_DIM)
        self.rotation = so3_exp(delta[0:3]) @ self.rotation
        self.position = self.position + delta[3:6]


class MsckfState:
    """Full filter state: IMU state, clone window and error covariance."""

    def __init__(self, window_size: int = 30) -> None:
        self.window_size = int(window_size)
        self.imu = ImuState()
        self.clones: List[CloneState] = []
        self.covariance = np.eye(IMU_ERROR_DIM) * 1e-4

    @property
    def error_dim(self) -> int:
        return IMU_ERROR_DIM + CLONE_ERROR_DIM * len(self.clones)

    def clone_offset(self, clone_index: int) -> int:
        """Column offset of clone ``clone_index`` in the error state."""
        return IMU_ERROR_DIM + CLONE_ERROR_DIM * clone_index

    def augment(self, frame_index: int, timestamp: float) -> None:
        """Add a clone of the current IMU pose to the window.

        The covariance is augmented with the Jacobian of the clone pose with
        respect to the current state (identity blocks for rotation/position).
        """
        clone = CloneState(
            frame_index=frame_index,
            timestamp=timestamp,
            rotation=self.imu.rotation.copy(),
            position=self.imu.position.copy(),
        )
        old_dim = self.error_dim
        jacobian = np.zeros((CLONE_ERROR_DIM, old_dim))
        jacobian[0:3, 0:3] = np.eye(3)
        jacobian[3:6, 3:6] = np.eye(3)

        new_dim = old_dim + CLONE_ERROR_DIM
        new_cov = np.zeros((new_dim, new_dim))
        new_cov[:old_dim, :old_dim] = self.covariance
        cross = jacobian @ self.covariance
        new_cov[old_dim:, :old_dim] = cross
        new_cov[:old_dim, old_dim:] = cross.T
        new_cov[old_dim:, old_dim:] = jacobian @ self.covariance @ jacobian.T
        self.covariance = new_cov
        self.clones.append(clone)

    def prune_oldest(self, keep: int) -> List[CloneState]:
        """Drop the oldest clones so at most ``keep`` remain.

        Returns the removed clones.  For the MSCKF the dropped clones have
        already absorbed their feature information through updates, so the
        corresponding covariance rows/columns are simply removed.
        """
        removed: List[CloneState] = []
        while len(self.clones) > keep:
            removed.append(self.clones[0])
            offset = self.clone_offset(0)
            keep_indices = [i for i in range(self.error_dim) if not offset <= i < offset + CLONE_ERROR_DIM]
            self.covariance = self.covariance[np.ix_(keep_indices, keep_indices)]
            self.clones.pop(0)
        return removed

    def apply_correction(self, delta: np.ndarray) -> None:
        """Apply a full error-state correction to IMU and clone states."""
        delta = np.asarray(delta, dtype=float).reshape(self.error_dim)
        self.imu.apply_correction(delta[:IMU_ERROR_DIM])
        for i, clone in enumerate(self.clones):
            offset = self.clone_offset(i)
            clone.apply_correction(delta[offset : offset + CLONE_ERROR_DIM])

    def symmetrize(self) -> None:
        """Restore exact symmetry of the covariance after an update."""
        self.covariance = 0.5 * (self.covariance + self.covariance.T)
