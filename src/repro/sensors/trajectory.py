"""Ground-truth 6-DoF trajectory generation.

Sequences in the paper come from self-driving cars (KITTI-like, long smooth
outdoor trajectories), drones (EuRoC-like, aggressive indoor figure-eights)
and logistic robots shuttling between warehouses.  The generators here create
analytically smooth trajectories so we can also derive exact angular velocity
and acceleration for the IMU simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.common.geometry import Pose


@dataclass
class TrajectorySample:
    """Ground truth at one timestamp."""

    timestamp: float
    pose: Pose
    velocity: np.ndarray
    acceleration: np.ndarray
    angular_velocity: np.ndarray


@dataclass
class TrajectoryArrays:
    """Ground truth at ``n`` timestamps, one row per timestamp."""

    timestamps: np.ndarray  # (n,)
    rotations: np.ndarray  # (n, 3, 3), body to world
    positions: np.ndarray  # (n, 3)
    velocities: np.ndarray  # (n, 3)
    accelerations: np.ndarray  # (n, 3)
    angular_velocities: np.ndarray  # (n, 3)

    def __len__(self) -> int:
        return len(self.timestamps)

    def sample(self, index: int) -> TrajectorySample:
        """Row ``index`` as a :class:`TrajectorySample` (its arrays are row views)."""
        return TrajectorySample(
            timestamp=float(self.timestamps[index]),
            pose=Pose(self.rotations[index], self.positions[index]),
            velocity=self.velocities[index],
            acceleration=self.accelerations[index],
            angular_velocity=self.angular_velocities[index],
        )

    @classmethod
    def stack(cls, samples: Sequence[TrajectorySample]) -> "TrajectoryArrays":
        """Stack per-timestamp samples into rows."""
        return cls(
            timestamps=np.array([s.timestamp for s in samples], dtype=float),
            rotations=np.array([s.pose.rotation for s in samples], dtype=float).reshape(-1, 3, 3),
            positions=np.array([s.pose.translation for s in samples], dtype=float).reshape(-1, 3),
            velocities=np.array([s.velocity for s in samples], dtype=float).reshape(-1, 3),
            accelerations=np.array([s.acceleration for s in samples], dtype=float).reshape(-1, 3),
            angular_velocities=np.array([s.angular_velocity for s in samples],
                                        dtype=float).reshape(-1, 3),
        )


# ``euler_to_rotation``'s pitch and roll factors at pitch = roll = 0.0, signed
# zeros included: a vehicle's body stays level and faces along its travel.
_RY = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.0, 0.0, 1.0]])
_RX = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -0.0], [0.0, 0.0, 1.0]])


class TrajectoryGenerator:
    """Samples a parametric trajectory at arrays of timestamps.

    The trajectory is described by a position function that maps a float64
    timestamp array of shape ``(n,)`` to positions of shape ``(n, 3)``.  The
    body faces along the direction of travel; velocity, acceleration and
    angular velocity are obtained by central finite differences, which keeps
    the generator simple while remaining accurate for the smooth paths used
    here.  Every sample is computed elementwise, so a timestamp's ground
    truth does not depend on the other timestamps sampled with it.
    """

    def __init__(self, position_fn: Callable[[np.ndarray], np.ndarray]) -> None:
        self._position_fn = position_fn

    def sample_array(self, timestamps, dt: float = 1e-3) -> TrajectoryArrays:
        """Ground truth at every timestamp of ``timestamps``."""
        t = np.array(timestamps, dtype=float).reshape(-1)
        n = t.size
        before = t - dt
        after = t + dt
        # The yaw rate differences the heading at t - dt and t + dt, and each
        # heading looks a further dt either side; (t - dt) + dt need not be t.
        times = np.concatenate([t, before, after, before - dt, before + dt, after - dt, after + dt])
        points = np.asarray(self._position_fn(times), dtype=float).reshape(7, n, 3)
        position, prev, nxt = points[0], points[1], points[2]
        velocity = (nxt - prev) / (2.0 * dt)
        acceleration = (nxt - 2.0 * position + prev) / (dt * dt)

        yaw = _heading(prev, nxt)
        yaw_prev = _heading(points[3], points[4])
        yaw_next = _heading(points[5], points[6])
        yaw_rate = _wrap_angle(yaw_next - yaw_prev) / (2.0 * dt)

        cy, sy = np.cos(yaw), np.sin(yaw)
        rz = np.zeros((n, 3, 3))
        rz[:, 0, 0] = cy
        rz[:, 0, 1] = -sy
        rz[:, 1, 0] = sy
        rz[:, 1, 1] = cy
        rz[:, 2, 2] = 1.0
        angular_velocity = np.zeros((n, 3))
        angular_velocity[:, 2] = yaw_rate
        return TrajectoryArrays(
            timestamps=t,
            rotations=rz @ _RY @ _RX,
            positions=position,
            velocities=velocity,
            accelerations=acceleration,
            angular_velocities=angular_velocity,
        )

    def sample(self, timestamp: float, dt: float = 1e-3) -> TrajectorySample:
        return self.sample_array([timestamp], dt).sample(0)


def _heading(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Yaw of travel from ``p0`` to ``p1`` per row; 0.0 where the xy step is below 1e-9."""
    delta = p1 - p0
    planar = delta[:, :2]
    # sqrt of a (1, 2) @ (2, 1) product per row runs the same BLAS dot as the
    # norm of one 2-vector; a sum of squares differs from it in the last bit.
    still = np.sqrt((planar[:, None, :] @ planar[:, :, None])[:, 0, 0]) < 1e-9
    return np.where(still, 0.0, np.arctan2(delta[:, 1], delta[:, 0]))


def _wrap_angle(angle: np.ndarray) -> np.ndarray:
    """Wrap angle differences into ``[-pi, pi]``."""
    return (angle + np.pi) % (2.0 * np.pi) - np.pi


def _points(t: np.ndarray, x, y, z) -> np.ndarray:
    """Stack per-axis arrays over ``t`` (or constants) into ``(n, 3)`` positions."""
    out = np.empty((t.size, 3))
    out[:, 0] = x
    out[:, 1] = y
    out[:, 2] = z
    return out


def circle_trajectory(radius: float = 10.0, period: float = 60.0, height: float = 0.0) -> TrajectoryGenerator:
    """A circular loop — the canonical loop-closure trajectory for SLAM."""
    omega = 2.0 * np.pi / period

    def position(t: np.ndarray) -> np.ndarray:
        return _points(t, radius * np.cos(omega * t), radius * np.sin(omega * t), height)

    return TrajectoryGenerator(position)


def figure_eight_trajectory(scale: float = 6.0, period: float = 40.0, height: float = 1.2,
                            vertical_amplitude: float = 0.3) -> TrajectoryGenerator:
    """A figure-eight with mild altitude oscillation — a drone-style path."""
    omega = 2.0 * np.pi / period

    def position(t: np.ndarray) -> np.ndarray:
        return _points(
            t,
            scale * np.sin(omega * t),
            scale * np.sin(omega * t) * np.cos(omega * t),
            height + vertical_amplitude * np.sin(2.0 * omega * t),
        )

    return TrajectoryGenerator(position)


def straight_trajectory(speed: float = 8.0, lateral_wiggle: float = 0.5,
                        wiggle_period: float = 20.0, height: float = 1.5) -> TrajectoryGenerator:
    """A mostly straight road segment — a KITTI-style outdoor car path."""
    omega = 2.0 * np.pi / wiggle_period

    def position(t: np.ndarray) -> np.ndarray:
        return _points(t, speed * t, lateral_wiggle * np.sin(omega * t), height)

    return TrajectoryGenerator(position)


def warehouse_trajectory(aisle_length: float = 20.0, aisle_spacing: float = 4.0,
                         speed: float = 1.5, height: float = 0.4) -> TrajectoryGenerator:
    """A boustrophedon sweep through warehouse aisles (logistics robot).

    The path snakes down one aisle, crosses over, and returns along the next,
    which is the pattern the paper's logistics robots follow indoors.
    """
    segment_time = aisle_length / speed
    cross_time = aisle_spacing / speed
    cycle = 2.0 * (segment_time + cross_time)

    def position(t: np.ndarray) -> np.ndarray:
        phase = t % cycle
        # The whole lane pair is exact as a float; + 0.0 turns a -0.0
        # quotient into the +0.0 an integer lane count would give.
        lane_pair = t // cycle + 0.0
        base_y = 2.0 * aisle_spacing * lane_pair
        across = phase - segment_time
        back = across - cross_time
        over = back - segment_time
        # Down the aisle, across to the next, back up it, then over to the
        # next pair: the first leg whose phase is still inside it wins.
        legs = [phase < segment_time, across < cross_time, back < segment_time]
        x = np.select(legs, [phase * speed, aisle_length, aisle_length - back * speed], 0.0)
        y = np.select(legs, [base_y, base_y + across * speed, base_y + aisle_spacing],
                      base_y + aisle_spacing + over * speed)
        return _points(t, x, y, height)

    return TrajectoryGenerator(position)
