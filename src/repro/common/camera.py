"""Pinhole camera and stereo-rig models.

The frontend of the Eudoxus framework consumes a calibrated stereo camera
pair.  These models are used both by the sensor simulator (to render feature
observations) and by the backend (camera-model projection is one of the three
latency-variation kernels, Sec. VI-A of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.geometry import Pose


@dataclass
class PinholeCamera:
    """An ideal pinhole camera.

    Parameters
    ----------
    fx, fy:
        Focal lengths in pixels.
    cx, cy:
        Principal point in pixels.
    width, height:
        Image size in pixels.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    @classmethod
    def from_fov(cls, width: int, height: int, horizontal_fov_deg: float = 90.0) -> "PinholeCamera":
        """Build a camera from an image size and horizontal field of view."""
        fov = np.deg2rad(horizontal_fov_deg)
        fx = width / (2.0 * np.tan(fov / 2.0))
        fy = fx
        return cls(fx=fx, fy=fy, cx=width / 2.0, cy=height / 2.0, width=width, height=height)

    @property
    def intrinsic_matrix(self) -> np.ndarray:
        """Return the 3x3 intrinsic matrix K."""
        return np.array(
            [
                [self.fx, 0.0, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    @property
    def projection_matrix(self) -> np.ndarray:
        """Return the 3x4 projection matrix ``K [I | 0]``.

        This is the ``C`` matrix the registration-mode projection kernel
        multiplies with homogeneous map points (Sec. VI-A).
        """
        return self.intrinsic_matrix @ np.hstack([np.eye(3), np.zeros((3, 1))])

    def project(self, points_camera: np.ndarray) -> tuple:
        """Project camera-frame points to pixels.

        Returns ``(pixels, valid)`` where ``pixels`` is an ``(N, 2)`` array and
        ``valid`` flags points in front of the camera and inside the image.
        """
        points = np.asarray(points_camera, dtype=float).reshape(-1, 3)
        z = points[:, 2]
        in_front = z > 1e-6
        safe_z = np.where(in_front, z, 1.0)
        u = self.fx * points[:, 0] / safe_z + self.cx
        v = self.fy * points[:, 1] / safe_z + self.cy
        pixels = np.stack([u, v], axis=1)
        inside = (
            (u >= 0.0)
            & (u < self.width)
            & (v >= 0.0)
            & (v < self.height)
        )
        return pixels, in_front & inside

    def back_project(self, pixels: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Lift pixels with known depth back into the camera frame."""
        pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
        depths = np.asarray(depths, dtype=float).reshape(-1)
        x = (pixels[:, 0] - self.cx) / self.fx * depths
        y = (pixels[:, 1] - self.cy) / self.fy * depths
        return np.stack([x, y, depths], axis=1)

    def scaled(self, factor: float) -> "PinholeCamera":
        """Return a camera with the image size (and intrinsics) scaled."""
        return PinholeCamera(
            fx=self.fx * factor,
            fy=self.fy * factor,
            cx=self.cx * factor,
            cy=self.cy * factor,
            width=int(round(self.width * factor)),
            height=int(round(self.height * factor)),
        )


@dataclass
class StereoRig:
    """A rectified stereo camera pair with a horizontal baseline.

    The left camera defines the rig frame.  The right camera is displaced by
    ``baseline`` metres along the +x axis of the left camera.
    """

    camera: PinholeCamera
    baseline: float = 0.12

    @property
    def left(self) -> PinholeCamera:
        return self.camera

    @property
    def right(self) -> PinholeCamera:
        return self.camera

    def project_stereo(self, points_camera: np.ndarray) -> tuple:
        """Project camera-frame points into both images.

        Returns ``(left_pixels, right_pixels, valid)``; validity requires the
        point to be visible in both views.
        """
        points = np.asarray(points_camera, dtype=float).reshape(-1, 3)
        left_pixels, left_valid = self.camera.project(points)
        right_points = points - np.array([self.baseline, 0.0, 0.0])
        right_pixels, right_valid = self.camera.project(right_points)
        return left_pixels, right_pixels, left_valid & right_valid

    def disparity(self, depths: np.ndarray) -> np.ndarray:
        """Disparity (pixels) corresponding to metric depth."""
        depths = np.asarray(depths, dtype=float)
        return self.camera.fx * self.baseline / np.maximum(depths, 1e-6)

    def triangulate(self, left_pixels: np.ndarray, right_pixels: np.ndarray) -> np.ndarray:
        """Triangulate rectified correspondences into the left-camera frame."""
        left_pixels = np.asarray(left_pixels, dtype=float).reshape(-1, 2)
        right_pixels = np.asarray(right_pixels, dtype=float).reshape(-1, 2)
        disparity = np.maximum(left_pixels[:, 0] - right_pixels[:, 0], 1e-6)
        depth = self.camera.fx * self.baseline / disparity
        return self.camera.back_project(left_pixels, depth)


def world_to_camera(pose: Pose, points_world: np.ndarray) -> np.ndarray:
    """Transform world-frame points into the camera (body) frame of ``pose``."""
    points = np.asarray(points_world, dtype=float).reshape(-1, 3)
    return (points - pose.translation) @ pose.rotation
