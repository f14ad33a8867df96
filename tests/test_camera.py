"""Tests for the pinhole camera and stereo rig models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.camera import PinholeCamera, StereoRig, world_to_camera
from repro.common.geometry import Pose, euler_to_rotation


@pytest.fixture
def camera():
    return PinholeCamera.from_fov(640, 480, 90.0)


@pytest.fixture
def rig(camera):
    return StereoRig(camera=camera, baseline=0.2)


class TestPinholeCamera:
    def test_from_fov_focal_length(self, camera):
        # 90 degree horizontal FOV: fx = width / 2.
        assert np.isclose(camera.fx, 320.0)
        assert np.isclose(camera.cx, 320.0)

    def test_projection_of_centre_point(self, camera):
        pixels, valid = camera.project(np.array([[0.0, 0.0, 5.0]]))
        assert valid[0]
        assert np.allclose(pixels[0], [camera.cx, camera.cy])

    def test_point_behind_camera_invalid(self, camera):
        _, valid = camera.project(np.array([[0.0, 0.0, -1.0]]))
        assert not valid[0]

    def test_point_outside_image_invalid(self, camera):
        _, valid = camera.project(np.array([[100.0, 0.0, 1.0]]))
        assert not valid[0]

    def test_back_project_roundtrip(self, camera):
        points = np.array([[1.0, -0.5, 4.0], [-0.3, 0.2, 2.0]])
        pixels, valid = camera.project(points)
        assert valid.all()
        recovered = camera.back_project(pixels, points[:, 2])
        assert np.allclose(recovered, points, atol=1e-9)

    def test_normalized_coordinates(self, camera):
        # Back-projection at unit depth gives the normalized coordinates.
        pixels = np.array([[camera.cx, camera.cy]])
        assert np.allclose(camera.back_project(pixels, [1.0]), [[0.0, 0.0, 1.0]])

    def test_projection_matrix_shape(self, camera):
        assert camera.projection_matrix.shape == (3, 4)
        assert np.allclose(camera.projection_matrix[:, :3], camera.intrinsic_matrix)

    def test_scaled(self, camera):
        half = camera.scaled(0.5)
        assert half.width == 320
        assert np.isclose(half.fx, camera.fx * 0.5)

    @given(st.floats(0.5, 40.0), st.floats(-0.4, 0.4), st.floats(-0.3, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_projection_depth_invariance(self, depth, nx, ny):
        camera = PinholeCamera.from_fov(640, 480, 90.0)
        point = np.array([[nx * depth, ny * depth, depth]])
        pixels, valid = camera.project(point)
        if valid[0]:
            # Normalized coordinates recover the ray direction regardless of depth.
            normalized = camera.back_project(pixels, [1.0])[0, :2]
            assert np.allclose(normalized, [nx, ny], atol=1e-6)


class TestStereoRig:
    def test_disparity_depth_roundtrip(self, rig):
        depths = np.array([1.0, 5.0, 20.0])
        left = np.tile([rig.camera.cx, rig.camera.cy], (3, 1))
        right = left - np.stack([rig.disparity(depths), np.zeros(3)], axis=1)
        assert np.allclose(rig.triangulate(left, right)[:, 2], depths)

    def test_disparity_decreases_with_depth(self, rig):
        assert rig.disparity(2.0) > rig.disparity(10.0)

    def test_triangulate_roundtrip(self, rig):
        points = np.array([[0.5, -0.2, 3.0], [-1.0, 0.4, 8.0]])
        left, right, valid = rig.project_stereo(points)
        assert valid.all()
        recovered = rig.triangulate(left, right)
        assert np.allclose(recovered, points, atol=1e-6)

    def test_project_stereo_validity_requires_both_views(self, rig):
        # A point far to the left may be visible in the left camera only.
        point = np.array([[-4.0, 0.0, 2.0]])
        _, _, valid = rig.project_stereo(point)
        assert not valid[0]


class TestWorldCameraTransforms:
    def test_roundtrip(self, rng):
        pose = Pose(euler_to_rotation(0.4, 0.1, -0.2), rng.normal(size=3))
        points = rng.normal(size=(6, 3)) * 5.0
        camera_points = world_to_camera(pose, points)
        recovered = pose.transform_points(camera_points)
        assert np.allclose(recovered, points, atol=1e-9)

    def test_origin_maps_to_negative_translation(self):
        pose = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        camera_points = world_to_camera(pose, np.zeros((1, 3)))
        assert np.allclose(camera_points[0], [-1.0, -2.0, -3.0])
