"""FAST corner detection (feature point detection, "FD" task).

Key points are detected with the FAST segment test (Rosten & Drummond): a
pixel is a corner if a contiguous arc of at least ``arc_length`` pixels on the
16-pixel Bresenham circle of radius 3 is uniformly brighter or darker than
the centre by more than a threshold.  Detection is fully vectorised over the
image; a grid-based non-maximum suppression keeps the strongest corners
spread across the frame (standard practice in VIO frontends).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

# Offsets (dy, dx) of the 16 pixels on the Bresenham circle of radius 3.
CIRCLE_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-3, 0), (-3, 1), (-2, 2), (-1, 3),
    (0, 3), (1, 3), (2, 2), (3, 1),
    (3, 0), (3, -1), (2, -2), (1, -3),
    (0, -3), (-1, -3), (-2, -2), (-3, -1),
)


@dataclass
class Keypoint:
    """A detected feature point with its corner response score."""

    x: float
    y: float
    score: float
    octave: int = 0


class FastDetector:
    """Vectorised FAST detector with grid-based non-maximum suppression."""

    def __init__(self, threshold: float = 12.0, arc_length: int = 9,
                 max_features: int = 300, grid_cells: int = 8, border: int = 4) -> None:
        if not 1 <= arc_length <= 16:
            raise ValueError("arc_length must be between 1 and 16")
        self.threshold = float(threshold)
        self.arc_length = int(arc_length)
        self.max_features = int(max_features)
        self.grid_cells = max(1, int(grid_cells))
        self.border = max(3, int(border))

    def _circle_stack(self, image: np.ndarray) -> np.ndarray:
        """Stack the 16 circle-neighbour images for the interior region."""
        b = self.border
        height, width = image.shape
        interior = image[b : height - b, b : width - b]
        stack = np.empty((16,) + interior.shape, dtype=float)
        for i, (dy, dx) in enumerate(CIRCLE_OFFSETS):
            stack[i] = image[b + dy : height - b + dy, b + dx : width - b + dx]
        return stack

    def detect(self, image: np.ndarray) -> List[Keypoint]:
        """Detect corners in a grayscale image."""
        image = np.asarray(image, dtype=float)
        if image.ndim != 2:
            raise ValueError("FAST expects a 2-D grayscale image")
        height, width = image.shape
        b = self.border
        if height <= 2 * b or width <= 2 * b:
            return []

        centre = image[b : height - b, b : width - b]
        circle = self._circle_stack(image)
        brighter = circle > centre[None, :, :] + self.threshold
        darker = circle < centre[None, :, :] - self.threshold

        corner_mask = self._contiguous_arc(brighter) | self._contiguous_arc(darker)
        if not corner_mask.any():
            return []

        # Corner score: sum of absolute differences over the circle.
        score = np.sum(np.abs(circle - centre[None, :, :]), axis=0)
        score = np.where(corner_mask, score, 0.0)

        ys, xs = np.nonzero(corner_mask)
        keypoints = [
            Keypoint(x=float(x + b), y=float(y + b), score=float(score[y, x]))
            for y, x in zip(ys, xs)
        ]
        return self._grid_suppress(keypoints, width, height)

    def _contiguous_arc(self, mask: np.ndarray) -> np.ndarray:
        """True where a contiguous run of ``arc_length`` circle pixels is set."""
        # Wrap the circle so runs crossing index 0 are found.
        doubled = np.concatenate([mask, mask[: self.arc_length - 1]], axis=0)
        run = np.ones(doubled.shape[1:], dtype=bool)
        result = np.zeros(mask.shape[1:], dtype=bool)
        # Sliding window of logical ANDs over arc_length consecutive entries.
        window = np.ones((self.arc_length,) + mask.shape[1:], dtype=bool)
        for start in range(16):
            window_slice = doubled[start : start + self.arc_length]
            result |= window_slice.all(axis=0)
        del run, window
        return result

    def _grid_suppress(self, keypoints: List[Keypoint], width: int, height: int) -> List[Keypoint]:
        """Keep the strongest corners per grid cell, up to ``max_features``."""
        if not keypoints:
            return []
        cells: dict = {}
        cell_w = max(1.0, width / self.grid_cells)
        cell_h = max(1.0, height / self.grid_cells)
        for kp in keypoints:
            key = (int(kp.x // cell_w), int(kp.y // cell_h))
            cells.setdefault(key, []).append(kp)
        per_cell = max(1, self.max_features // max(1, len(cells)))
        selected: List[Keypoint] = []
        for cell_keypoints in cells.values():
            cell_keypoints.sort(key=lambda k: k.score, reverse=True)
            selected.extend(cell_keypoints[:per_cell])
        selected.sort(key=lambda k: k.score, reverse=True)
        return selected[: self.max_features]


def keypoints_to_array(keypoints: List[Keypoint]) -> np.ndarray:
    """Convert a keypoint list to an ``(N, 2)`` array of (x, y) pixels."""
    if not keypoints:
        return np.zeros((0, 2))
    return np.array([[kp.x, kp.y] for kp in keypoints])
