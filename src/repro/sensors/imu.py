"""Inertial measurement unit (IMU) simulation.

The paper's VIO backend fuses camera observations with IMU samples via an
MSCKF.  Real IMU samples are noisy and biased (Sec. II); this simulator adds
white noise plus slowly drifting biases (random walks) to the ground-truth
specific force and angular velocity derived from the trajectory generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.sensors.trajectory import TrajectoryArrays, TrajectorySample

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass
class ImuSample:
    """One IMU measurement: body-frame angular velocity and specific force."""

    timestamp: float
    angular_velocity: np.ndarray
    linear_acceleration: np.ndarray

    def __post_init__(self) -> None:
        self.angular_velocity = np.asarray(self.angular_velocity, dtype=float).reshape(3)
        self.linear_acceleration = np.asarray(self.linear_acceleration, dtype=float).reshape(3)


class ImuSimulator:
    """Generates noisy IMU samples from ground-truth trajectory samples."""

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

    def measure(self, truth: TrajectorySample, dt: float) -> ImuSample:
        """Produce one noisy IMU sample from the ground truth at ``truth``."""
        return self.measure_array(TrajectoryArrays.stack([truth]), [dt])[0]

    def measure_interval(self, samples: List[TrajectorySample]) -> List[ImuSample]:
        """Measure a batch of consecutive ground-truth samples."""
        truth = TrajectoryArrays.stack(samples)
        # Each sample integrates up to the next one; the last reuses the gap
        # before it, and a lone sample assumes 0.01 s.
        dts = np.full(len(truth), 0.01)
        if len(truth) > 1:
            gaps = np.diff(truth.timestamps)
            dts[:-1] = gaps
            dts[-1] = gaps[-1]
        return self.measure_array(truth, np.maximum(dts, 1e-4))

    def measure_array(self, truth: TrajectoryArrays, dts: Sequence[float]) -> List[ImuSample]:
        """One noisy IMU sample per row of ``truth``; row ``k`` integrates ``dts[k]``.

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
        return [
            ImuSample(timestamp=timestamp, angular_velocity=noisy_gyro[k],
                      linear_acceleration=noisy_accel[k])
            for k, timestamp in enumerate(truth.timestamps.tolist())
        ]


def integrate_imu(samples: List[ImuSample], initial_pose, initial_velocity: np.ndarray):
    """Dead-reckon a pose by naively integrating IMU samples.

    This is used in tests to demonstrate the drift the paper attributes to
    IMU-only estimation (Sec. II), and in the MSCKF propagation step.

    Returns ``(pose, velocity)`` after integrating all samples.
    """
    from repro.common.geometry import Pose, so3_exp

    pose = initial_pose.copy()
    velocity = np.asarray(initial_velocity, dtype=float).reshape(3).copy()
    for i in range(len(samples) - 1):
        dt = samples[i + 1].timestamp - samples[i].timestamp
        if dt <= 0:
            continue
        omega = samples[i].angular_velocity
        accel_world = pose.rotation @ samples[i].linear_acceleration + GRAVITY
        new_rotation = pose.rotation @ so3_exp(omega * dt)
        new_translation = pose.translation + velocity * dt + 0.5 * accel_world * dt * dt
        velocity = velocity + accel_world * dt
        pose = Pose(new_rotation, new_translation)
    return pose, velocity
