"""Unit and property-based tests for repro.common.geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.geometry import (
    Pose,
    euler_to_rotation,
    homogeneous,
    rotation_to_euler,
    skew,
    so3_exp,
    so3_log,
)

angles = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


def random_rotation(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return so3_exp(rng.uniform(-np.pi, np.pi, size=3) * 0.9)


class TestSkew:
    def test_antisymmetric(self):
        m = skew([1.0, 2.0, 3.0])
        assert np.allclose(m, -m.T)

    def test_cross_product_equivalence(self, rng):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        assert np.allclose(skew(a) @ b, np.cross(a, b))


class TestSo3:
    def test_exp_identity(self):
        assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))

    def test_exp_is_rotation(self, rng):
        r = so3_exp(rng.normal(size=3))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.isclose(np.linalg.det(r), 1.0)

    def test_log_of_identity_is_zero(self):
        assert np.allclose(so3_log(np.eye(3)), np.zeros(3))

    @given(st.tuples(angles, angles, angles))
    @settings(max_examples=40, deadline=None)
    def test_exp_log_roundtrip(self, phi_tuple):
        phi = np.array(phi_tuple)
        recovered = so3_log(so3_exp(phi))
        # The log can differ by 2*pi wrapping; compare the rotations instead.
        assert np.allclose(so3_exp(recovered), so3_exp(phi), atol=1e-6)

    def test_near_pi_rotation(self):
        phi = np.array([np.pi - 1e-4, 0.0, 0.0])
        assert np.allclose(so3_exp(so3_log(so3_exp(phi))), so3_exp(phi), atol=1e-5)


class TestEuler:
    def test_yaw_only(self):
        rotation = euler_to_rotation(0.5, 0.0, 0.0)
        yaw, pitch, roll = rotation_to_euler(rotation)
        assert np.isclose(yaw, 0.5)
        assert np.isclose(pitch, 0.0)
        assert np.isclose(roll, 0.0)

    @given(angles, st.floats(min_value=-1.3, max_value=1.3), angles)
    @settings(max_examples=40, deadline=None)
    def test_euler_roundtrip(self, yaw, pitch, roll):
        rotation = euler_to_rotation(yaw, pitch, roll)
        recovered = euler_to_rotation(*rotation_to_euler(rotation))
        assert np.allclose(recovered, rotation, atol=1e-8)


class TestPose:
    def test_identity(self):
        pose = Pose.identity()
        assert np.allclose(pose.matrix(), np.eye(4))

    def test_compose_with_inverse_is_identity(self, rng):
        pose = Pose(random_rotation(11), rng.normal(size=3))
        identity = pose.compose(pose.inverse())
        assert np.allclose(identity.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(identity.translation, np.zeros(3), atol=1e-9)

    def test_transform_point_roundtrip(self, rng):
        pose = Pose(random_rotation(13), rng.normal(size=3))
        point = rng.normal(size=3)
        world = pose.transform_point(point)
        body = pose.inverse().transform_point(world)
        assert np.allclose(body, point, atol=1e-9)

    def test_transform_points_matches_single(self, rng):
        pose = Pose(random_rotation(17), rng.normal(size=3))
        points = rng.normal(size=(5, 3))
        batch = pose.transform_points(points)
        for i in range(5):
            assert np.allclose(batch[i], pose.transform_point(points[i]))

    def test_compose_associative(self, rng):
        a = Pose(random_rotation(1), rng.normal(size=3))
        b = Pose(random_rotation(2), rng.normal(size=3))
        c = Pose(random_rotation(3), rng.normal(size=3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert np.allclose(left.matrix(), right.matrix(), atol=1e-9)

    def test_relative_to(self, rng):
        a = Pose(random_rotation(4), rng.normal(size=3))
        b = Pose(random_rotation(5), rng.normal(size=3))
        relative = b.relative_to(a)
        assert np.allclose(a.compose(relative).matrix(), b.matrix(), atol=1e-9)

    def test_distance_and_rotation_angle(self):
        a = Pose.identity()
        b = Pose(euler_to_rotation(0.3, 0.0, 0.0), np.array([3.0, 4.0, 0.0]))
        assert np.isclose(a.distance_to(b), 5.0)
        assert np.isclose(a.rotation_angle_to(b), 0.3, atol=1e-8)

    def test_perturb_small(self):
        pose = Pose.identity()
        perturbed = pose.perturb(np.array([0.0, 0.0, 1e-3]), np.array([1e-3, 0, 0]))
        assert perturbed.distance_to(pose) < 2e-3
        assert perturbed.rotation_angle_to(pose) < 2e-3

    def test_euler_constructor(self):
        pose = Pose(euler_to_rotation(0.2, 0.1, -0.1), np.zeros(3))
        yaw, pitch, roll = pose.euler()
        assert np.isclose(yaw, 0.2, atol=1e-8)
        assert np.isclose(pitch, 0.1, atol=1e-8)
        assert np.isclose(roll, -0.1, atol=1e-8)


class TestHomogeneous:
    def test_shape_and_last_column(self, rng):
        points = rng.normal(size=(7, 3))
        h = homogeneous(points)
        assert h.shape == (7, 4)
        assert np.allclose(h[:, 3], 1.0)
        assert np.allclose(h[:, :3], points)
