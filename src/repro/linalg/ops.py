"""Traced wrappers over dense matrix operations.

Backend kernels route their matrix work through these helpers so every
invocation is recorded as one of the Table I building blocks (via
:func:`repro.linalg.primitives.record_primitive`) while still executing at
NumPy speed.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.primitives import BuildingBlock, record_primitive


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product recorded as a MULTIPLICATION building block."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    shape_a = a.shape if a.ndim > 1 else (1, a.shape[0])
    shape_b = b.shape if b.ndim > 1 else (b.shape[0], 1)
    if shape_a[-1] != shape_b[0]:
        raise ValueError(f"incompatible shapes for matmul: {a.shape} x {b.shape}")
    record_primitive(BuildingBlock.MULTIPLICATION, shape_a, shape_b)
    return a @ b


def transpose(a: np.ndarray) -> np.ndarray:
    """Matrix transpose recorded as a TRANSPOSE building block."""
    a = np.asarray(a, dtype=float)
    record_primitive(BuildingBlock.TRANSPOSE, a.shape if a.ndim > 1 else (1, a.shape[0]))
    return a.T


def quadratic_form(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Compute ``H P H^T`` with the symmetry optimization of Sec. VI-A.

    The product is symmetric, so only the upper triangle is computed and then
    mirrored — the same "compute and store half of S" trick the accelerator
    applies.  Both multiplications and the transpose are recorded.
    """
    h = np.asarray(h, dtype=float)
    p = np.asarray(p, dtype=float)
    ph_t = matmul(p, transpose(h))
    s = matmul(h, ph_t)
    return 0.5 * (s + s.T)
