"""Lucas-Kanade optical flow (temporal matching, "TM" block).

Temporal correspondences between consecutive frames are established by
tracking the previous frame's key points with the classic iterative
Lucas-Kanade method (Sec. IV-A).  The accelerator splits this block into a
derivatives-calculation task (DC) and a linear least-squares solver (LSS);
the software mirrors that structure so the cycle model can reason about both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.frontend.filtering import bilinear_sample, sobel_gradients


@dataclass
class FlowResult:
    """Outcome of tracking one point from the previous to the current frame."""

    index: int
    previous: np.ndarray
    current: np.ndarray
    converged: bool
    residual: float

    def __post_init__(self) -> None:
        self.previous = np.asarray(self.previous, dtype=float).reshape(2)
        self.current = np.asarray(self.current, dtype=float).reshape(2)


class LucasKanadeTracker:
    """Single-level iterative Lucas-Kanade tracker."""

    def __init__(self, window: int = 9, iterations: int = 10, max_error: float = 2.0,
                 min_eigen: float = 1e-3) -> None:
        if window % 2 == 0:
            raise ValueError("window must be odd")
        self.window = int(window)
        self.iterations = int(iterations)
        self.max_error = float(max_error)
        self.min_eigen = float(min_eigen)

    def track(self, previous_image: np.ndarray, current_image: np.ndarray,
              points: np.ndarray, initial_guess: Optional[np.ndarray] = None) -> List[FlowResult]:
        """Track ``points`` (``(N, 2)`` x/y) from the previous to the current image."""
        previous_image = np.asarray(previous_image, dtype=float)
        current_image = np.asarray(current_image, dtype=float)
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if points.size == 0:
            return []
        guesses = (
            np.asarray(initial_guess, dtype=float).reshape(-1, 2)
            if initial_guess is not None
            else points.copy()
        )

        gx, gy = sobel_gradients(previous_image)
        half = self.window // 2
        offsets_x, offsets_y = np.meshgrid(np.arange(-half, half + 1), np.arange(-half, half + 1))
        offsets_x = offsets_x.ravel()
        offsets_y = offsets_y.ravel()

        results: List[FlowResult] = []
        height, width = previous_image.shape
        for index, point in enumerate(points):
            px, py = point
            # Derivatives-calculation task (DC): structure tensor of the patch.
            patch_gx = bilinear_sample(gx, px + offsets_x, py + offsets_y)
            patch_gy = bilinear_sample(gy, px + offsets_x, py + offsets_y)
            template = bilinear_sample(previous_image, px + offsets_x, py + offsets_y)
            g = np.array(
                [
                    [np.sum(patch_gx * patch_gx), np.sum(patch_gx * patch_gy)],
                    [np.sum(patch_gx * patch_gy), np.sum(patch_gy * patch_gy)],
                ]
            )
            eigenvalues = np.linalg.eigvalsh(g)
            if eigenvalues.min() < self.min_eigen:
                results.append(FlowResult(index, point, guesses[index], False, float("inf")))
                continue

            # Least-squares solver task (LSS): iterate the 2x2 normal equations.
            current = guesses[index].copy()
            converged = False
            residual = float("inf")
            for _ in range(self.iterations):
                warped = bilinear_sample(current_image, current[0] + offsets_x, current[1] + offsets_y)
                error = template - warped
                b = np.array([np.sum(error * patch_gx), np.sum(error * patch_gy)])
                try:
                    delta = np.linalg.solve(g, b)
                except np.linalg.LinAlgError:
                    break
                current = current + delta
                residual = float(np.abs(error).mean())
                if np.linalg.norm(delta) < 0.01:
                    converged = True
                    break
            inside = 0 <= current[0] < width and 0 <= current[1] < height
            ok = converged and inside and residual <= self.max_error * 8.0
            results.append(FlowResult(index, point, current, bool(ok), residual))
        return results
