"""ORB/BRIEF binary descriptors (feature descriptor calculation, "FC" task).

Each detected feature point is described by a 256-bit binary string built
from intensity comparisons of point pairs inside a smoothed patch (BRIEF),
with the ORB intensity-centroid orientation available for steering the
pattern.  Descriptors are packed into ``uint8`` arrays of 32 bytes, and
matching uses the Hamming distance — the same operation the accelerator's
matching-optimization task compares in hardware.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional

import numpy as np

from repro.frontend.fast import Keypoint
from repro.frontend.filtering import bilinear_sample, gaussian_blur

_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two packed binary descriptors."""
    a = np.asarray(a, dtype=np.uint8).reshape(-1)
    b = np.asarray(b, dtype=np.uint8).reshape(-1)
    if a.shape != b.shape:
        raise ValueError("descriptors must have the same length")
    return int(_POPCOUNT_TABLE[np.bitwise_xor(a, b)].sum())


def hamming_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between two descriptor sets.

    ``a`` is ``(N, B)`` and ``b`` is ``(M, B)``; the result is ``(N, M)``.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=int)
    xor = np.bitwise_xor(a[:, None, :], b[None, :, :])
    return _POPCOUNT_TABLE[xor].sum(axis=2).astype(int)


class OrbDescriptor:
    """Computes BRIEF-style binary descriptors with optional ORB steering."""

    def __init__(self, patch_size: int = 15, bits: int = 256, use_orientation: bool = True,
                 seed: int = 7, blur_sigma: float = 1.2) -> None:
        if bits % 8 != 0:
            raise ValueError("bits must be a multiple of 8")
        self.patch_size = int(patch_size)
        self.bits = int(bits)
        self.use_orientation = bool(use_orientation)
        self.blur_sigma = float(blur_sigma)
        rng = np.random.default_rng(seed)
        half = self.patch_size / 2.0 - 1.0
        # Gaussian-distributed sampling pairs as in the original BRIEF paper.
        self._pairs = np.clip(
            rng.normal(0.0, half / 2.0, size=(self.bits, 4)), -half, half
        )

    @property
    def bytes_per_descriptor(self) -> int:
        return self.bits // 8

    def _orientation(self, image: np.ndarray, x: float, y: float) -> float:
        """Intensity-centroid orientation of the patch around (x, y)."""
        half = self.patch_size // 2
        xs, ys = np.meshgrid(np.arange(-half, half + 1), np.arange(-half, half + 1))
        patch = bilinear_sample(image, x + xs.ravel(), y + ys.ravel())
        m01 = float(np.sum(ys.ravel() * patch))
        m10 = float(np.sum(xs.ravel() * patch))
        return float(np.arctan2(m01, m10))

    def compute(self, image: np.ndarray, keypoints: List[Keypoint]) -> np.ndarray:
        """Compute descriptors for all keypoints; returns ``(N, bits/8)`` uint8."""
        image = np.asarray(image, dtype=float)
        if image.ndim != 2:
            raise ValueError("OrbDescriptor expects a grayscale image")
        if not keypoints:
            return np.zeros((0, self.bytes_per_descriptor), dtype=np.uint8)
        smoothed = gaussian_blur(image, sigma=self.blur_sigma)

        descriptors = np.zeros((len(keypoints), self.bits), dtype=np.uint8)
        for i, kp in enumerate(keypoints):
            pairs = self._pairs
            if self.use_orientation:
                angle = self._orientation(smoothed, kp.x, kp.y)
                cos_a, sin_a = np.cos(angle), np.sin(angle)
                rot = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
                first = pairs[:, :2] @ rot.T
                second = pairs[:, 2:] @ rot.T
            else:
                first = pairs[:, :2]
                second = pairs[:, 2:]
            val_a = bilinear_sample(smoothed, kp.x + first[:, 0], kp.y + first[:, 1])
            val_b = bilinear_sample(smoothed, kp.x + second[:, 0], kp.y + second[:, 1])
            descriptors[i] = (val_a < val_b).astype(np.uint8)
        return np.packbits(descriptors, axis=1)


# A landmark's appearance recurs across every frame, session and survey map, so
# the base bits of each (appearance_seed, bits) pair are built once.  The memo
# is bounded: a fleet of ever-new landmark ids evicts rather than grows.
DESCRIPTOR_MEMO_SIZE = 4096


@lru_cache(maxsize=DESCRIPTOR_MEMO_SIZE)
def _base_bits(appearance_seed: int, bits: int) -> np.ndarray:
    """Unpacked base bits of a landmark appearance; read-only, shared."""
    descriptor_bits = np.random.default_rng(appearance_seed).integers(0, 2, size=bits).astype(np.uint8)
    descriptor_bits.flags.writeable = False
    return descriptor_bits


def descriptor_from_seed(appearance_seed: int, bits: int = 256, noise_bits: int = 0,
                         rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Deterministic descriptor for a simulated landmark appearance.

    The sparse frontend path uses this to give every landmark a stable,
    discriminative binary signature.  ``noise_bits`` random bit flips model
    viewpoint/illumination change between observations; they are drawn from
    ``rng``, which is then required so the flips are reproducible.
    """
    if noise_bits > 0 and rng is None:
        raise ValueError("noise_bits > 0 needs an rng to draw the flips from")
    descriptor_bits = _base_bits(appearance_seed, bits).copy()
    if noise_bits > 0:
        flip_positions = rng.choice(bits, size=min(noise_bits, bits), replace=False)
        descriptor_bits[flip_positions] ^= 1
    return np.packbits(descriptor_bits)
