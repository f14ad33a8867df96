"""Inertial measurement unit (IMU) simulation.

The paper's VIO backend fuses camera observations with IMU samples via an
MSCKF.  Real IMU samples are noisy and biased (Sec. II); this simulator adds
white noise plus slowly drifting biases (random walks) to the ground-truth
specific force and angular velocity derived from the trajectory generator.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.sensors.trajectory import TrajectoryArrays

GRAVITY = np.array([0.0, 0.0, -9.81])


class ImuSimulator:
    """Generates noisy IMU measurements from ground-truth trajectory rows."""

    def __init__(
        self,
        gyro_noise: float = 1e-3,
        accel_noise: float = 1e-2,
        gyro_bias_walk: float = 1e-5,
        accel_bias_walk: float = 1e-4,
        seed: int = 0,
    ) -> None:
        self.gyro_noise = float(gyro_noise)
        self.accel_noise = float(accel_noise)
        self.gyro_bias_walk = float(gyro_bias_walk)
        self.accel_bias_walk = float(accel_bias_walk)
        self._rng = np.random.default_rng(seed)
        self.gyro_bias = np.zeros(3)
        self.accel_bias = np.zeros(3)

    def reset(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self.gyro_bias = np.zeros(3)
        self.accel_bias = np.zeros(3)

    def measure_array(self, truth: TrajectoryArrays,
                      dts: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Noisy ``(gyro, accel)`` columns, one ``(n, 3)`` row per row of ``truth``.

        Row ``k`` is the body-frame angular velocity and specific force
        measured at ``truth.timestamps[k]``, integrating ``dts[k]``.

        Each row draws its gyro and accel bias walks, then its gyro and accel
        white noise, three values each: the stream order of measuring the rows
        one at a time.  ``Generator.normal`` computes every value as
        ``0.0 + scale * z`` from a standard normal ``z``, and so does this.
        """
        n = len(truth)
        rotation_world_to_body = truth.rotations.transpose(0, 2, 1)
        # Specific force: measured acceleration minus gravity, in body frame.
        specific_force = (rotation_world_to_body @ (truth.accelerations - GRAVITY)[:, :, None])[:, :, 0]
        angular_velocity = (rotation_world_to_body @ truth.angular_velocities[:, :, None])[:, :, 0]

        draws = self._rng.standard_normal((n, 4, 3))
        root_dt = np.sqrt(np.asarray(dts, dtype=float)).reshape(n, 1)
        gyro_walk = 0.0 + (self.gyro_bias_walk * root_dt) * draws[:, 0]
        accel_walk = 0.0 + (self.accel_bias_walk * root_dt) * draws[:, 1]
        # Bias random walks: a running sum from the current bias, row by row.
        gyro_bias = np.cumsum(np.vstack([self.gyro_bias, gyro_walk]), axis=0)
        accel_bias = np.cumsum(np.vstack([self.accel_bias, accel_walk]), axis=0)
        self.gyro_bias = gyro_bias[-1].copy()
        self.accel_bias = accel_bias[-1].copy()

        noisy_gyro = angular_velocity + gyro_bias[1:] + (0.0 + self.gyro_noise * draws[:, 2])
        noisy_accel = specific_force + accel_bias[1:] + (0.0 + self.accel_noise * draws[:, 3])
        return noisy_gyro, noisy_accel

