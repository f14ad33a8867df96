"""Synthetic image rendering.

The dense variant of the frontend (FAST + ORB + Lucas-Kanade + stereo block
matching) operates on pixel arrays.  Since no camera footage is available
offline, this module renders small grayscale images by splatting a
deterministic intensity pattern for every visible landmark, on top of a
low-frequency background.  Each landmark keeps the same pattern across frames
and across the stereo pair, so descriptor-based matching behaves like it does
on real imagery: corners are detectable, patches are discriminative, and the
same landmark looks the same from nearby viewpoints.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.common.camera import PinholeCamera, world_to_camera
from repro.common.geometry import Pose
from repro.sensors.world import LandmarkWorld, camera_frame_from_body


def _landmark_patch(appearance_seed: int, size: int = 7) -> np.ndarray:
    """Deterministic high-contrast patch for one landmark."""
    rng = np.random.default_rng(appearance_seed)
    patch = rng.uniform(0.0, 255.0, size=(size, size))
    # Strengthen the corner response: put a bright/dark checker at the centre.
    half = size // 2
    patch[half - 1 : half + 2, half - 1 : half + 2] = rng.choice([10.0, 245.0])
    patch[half, half] = 255.0 - patch[half, half]
    return patch


def _background(width: int, height: int, seed: int) -> np.ndarray:
    """Smooth low-frequency background so images are not flat."""
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(40.0, 120.0, size=(max(height // 16, 2), max(width // 16, 2)))
    ys = np.linspace(0, coarse.shape[0] - 1, height)
    xs = np.linspace(0, coarse.shape[1] - 1, width)
    yi = np.clip(ys.astype(int), 0, coarse.shape[0] - 1)
    xi = np.clip(xs.astype(int), 0, coarse.shape[1] - 1)
    return coarse[np.ix_(yi, xi)]


class ImageRenderer:
    """Renders stereo grayscale images of a :class:`LandmarkWorld`."""

    def __init__(self, camera: PinholeCamera, baseline: float, patch_size: int = 7,
                 noise_std: float = 2.0, seed: int = 0) -> None:
        self.camera = camera
        self.baseline = float(baseline)
        self.patch_size = int(patch_size)
        self.noise_std = float(noise_std)
        self._seed = int(seed)
        self._patch_cache: Dict[int, np.ndarray] = {}

    def _patch_for(self, appearance_seed: int) -> np.ndarray:
        if appearance_seed not in self._patch_cache:
            self._patch_cache[appearance_seed] = _landmark_patch(appearance_seed, self.patch_size)
        return self._patch_cache[appearance_seed]

    def _splat(self, image: np.ndarray, u: float, v: float, patch: np.ndarray) -> None:
        height, width = image.shape
        half = patch.shape[0] // 2
        cu, cv = int(round(u)), int(round(v))
        u0, u1 = max(cu - half, 0), min(cu + half + 1, width)
        v0, v1 = max(cv - half, 0), min(cv + half + 1, height)
        if u0 >= u1 or v0 >= v1:
            return
        pu0 = u0 - (cu - half)
        pv0 = v0 - (cv - half)
        image[v0:v1, u0:u1] = patch[pv0 : pv0 + (v1 - v0), pu0 : pu0 + (u1 - u0)]

    def render(self, pose: Pose, world: LandmarkWorld, frame_index: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Render the (left, right) grayscale image pair from ``pose``."""
        width, height = self.camera.width, self.camera.height
        rng = np.random.default_rng(self._seed + frame_index)
        background = _background(width, height, self._seed)
        left = background.copy()
        right = background.copy()

        if len(world):
            points_body = world_to_camera(pose, world.positions)
            points_camera = camera_frame_from_body(points_body)
            left_pixels, left_valid = self.camera.project(points_camera)
            right_points = points_camera - np.array([self.baseline, 0.0, 0.0])
            right_pixels, right_valid = self.camera.project(right_points)

            for idx, appearance_seed in enumerate(world.appearance_seeds.tolist()):
                patch = self._patch_for(appearance_seed)
                if left_valid[idx]:
                    self._splat(left, left_pixels[idx, 0], left_pixels[idx, 1], patch)
                if right_valid[idx]:
                    self._splat(right, right_pixels[idx, 0], right_pixels[idx, 1], patch)

        if self.noise_std > 0:
            left = left + rng.normal(0.0, self.noise_std, size=left.shape)
            right = right + rng.normal(0.0, self.noise_std, size=right.shape)
        return np.clip(left, 0.0, 255.0), np.clip(right, 0.0, 255.0)
