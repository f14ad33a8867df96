"""Image filtering: Gaussian smoothing, gradients and bilinear sampling.

Image filtering (IF) is one of the three tasks inside the feature-extraction
block of the frontend accelerator (Sec. V-B).  The separable convolutions here
are also the canonical stencil operations that the stencil-buffer memory
structure captures (Sec. V-C).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def gaussian_kernel_1d(sigma: float, radius: int = 0) -> np.ndarray:
    """A normalized 1-D Gaussian kernel."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if radius <= 0:
        radius = max(1, int(round(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(xs**2) / (2.0 * sigma**2))
    return kernel / kernel.sum()


def _convolve_1d(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Convolve along one axis with edge replication."""
    radius = len(kernel) // 2
    padded = np.pad(
        image,
        [(radius, radius) if ax == axis else (0, 0) for ax in range(image.ndim)],
        mode="edge",
    )
    out = np.zeros_like(image, dtype=float)
    for offset, weight in enumerate(kernel):
        if axis == 0:
            out += weight * padded[offset : offset + image.shape[0], :]
        else:
            out += weight * padded[:, offset : offset + image.shape[1]]
    return out


def gaussian_blur(image: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Separable Gaussian blur with edge replication."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("gaussian_blur expects a 2-D grayscale image")
    kernel = gaussian_kernel_1d(sigma)
    return _convolve_1d(_convolve_1d(image, kernel, axis=0), kernel, axis=1)


def sobel_gradients(image: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return (gx, gy) Sobel gradients of a grayscale image."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("sobel_gradients expects a 2-D grayscale image")
    smooth = np.array([1.0, 2.0, 1.0]) / 4.0
    diff = np.array([-1.0, 0.0, 1.0]) / 2.0
    gx = _convolve_1d(_convolve_1d(image, smooth, axis=0), diff, axis=1)
    gy = _convolve_1d(_convolve_1d(image, diff, axis=0), smooth, axis=1)
    return gx, gy


def bilinear_sample(image: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample an image at fractional coordinates with bilinear interpolation.

    Coordinates outside the image are clamped to the border.
    """
    image = np.asarray(image, dtype=float)
    height, width = image.shape
    xs = np.clip(np.asarray(xs, dtype=float), 0.0, width - 1.001)
    ys = np.clip(np.asarray(ys, dtype=float), 0.0, height - 1.001)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = xs - x0
    fy = ys - y0
    return (
        image[y0, x0] * (1 - fx) * (1 - fy)
        + image[y0, x1] * fx * (1 - fy)
        + image[y1, x0] * (1 - fx) * fy
        + image[y1, x1] * fx * fy
    )
