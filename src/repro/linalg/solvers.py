"""Triangular solves, symmetric positive-definite solves and inversion.

Forward/backward substitution is the fifth building block of Table I.  The
solvers here are the software counterparts of the accelerator's F/B
substitution and inverse units (Sec. VI-A, "Optimization").  The specialized
6x6-plus-diagonal inverse the accelerator uses for the marginalization
``A_mm`` block is modeled in
:meth:`~repro.hardware.backend_accel.BackendAcceleratorModel.inverse_cycles`.

Two symmetric positive-definite solves record the same building blocks:
:func:`solve_cholesky` runs the from-scratch column loops and is the
reference the Table I decomposition, the Fig. 16 scaling study and the
accelerator model are validated against; :func:`solve_spd` makes the same
decomposition and two substitutions as LAPACK calls and serves the measured
hot paths (the window bundle adjustment and the MSCKF Kalman gain).
"""

from __future__ import annotations

import numpy as np

from repro.linalg.decompositions import cholesky
from repro.linalg.primitives import BuildingBlock, record_primitive, tracing_active


def forward_substitution(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L``."""
    lower = np.asarray(lower, dtype=float)
    b = np.asarray(rhs, dtype=float)
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(-1, 1)
    n = lower.shape[0]
    if lower.shape != (n, n) or b.shape[0] != n:
        raise ValueError(f"shape mismatch: L {lower.shape}, b {b.shape}")
    record_primitive(BuildingBlock.SUBSTITUTION, lower.shape, b.shape)

    x = np.zeros_like(b)
    for i in range(n):
        pivot = lower[i, i]
        if abs(pivot) < 1e-14:
            raise np.linalg.LinAlgError("singular triangular matrix")
        x[i] = (b[i] - lower[i, :i] @ x[:i]) / pivot
    return x.reshape(-1) if squeeze else x


def backward_substitution(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U``."""
    upper = np.asarray(upper, dtype=float)
    b = np.asarray(rhs, dtype=float)
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(-1, 1)
    n = upper.shape[0]
    if upper.shape != (n, n) or b.shape[0] != n:
        raise ValueError(f"shape mismatch: U {upper.shape}, b {b.shape}")
    record_primitive(BuildingBlock.SUBSTITUTION, upper.shape, b.shape)

    x = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        pivot = upper[i, i]
        if abs(pivot) < 1e-14:
            raise np.linalg.LinAlgError("singular triangular matrix")
        x[i] = (b[i] - upper[i, i + 1 :] @ x[i + 1 :]) / pivot
    return x.reshape(-1) if squeeze else x


def solve_cholesky(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for symmetric positive-definite ``A``.

    This is exactly how the accelerator computes the Kalman gain: decompose
    ``S``, then forward- and backward-substitute (Equ. 1b).
    """
    lower = cholesky(matrix)
    y = forward_substitution(lower, rhs)
    return backward_substitution(lower.T, y)


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """:func:`solve_cholesky` through LAPACK, recorded as the same blocks.

    ``np.linalg.cholesky`` factors ``A`` (one DECOMPOSITION) and two solves
    against the lower and upper factor stand in for the forward and backward
    substitution (two SUBSTITUTIONs, with :func:`solve_cholesky`'s shapes).
    numpy has no triangular solve, so each is a general ``np.linalg.solve``
    on the triangular factor.  The result agrees with :func:`solve_cholesky`
    to rounding.  A matrix LAPACK refuses as not positive definite goes to
    :func:`solve_cholesky`, whose diagonal jitter then decides it, so those
    bits, and the primitives recorded, are the reference's own.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return solve_cholesky(a, b)
    record_primitive(BuildingBlock.DECOMPOSITION, a.shape)
    for _ in range(2):
        record_primitive(BuildingBlock.SUBSTITUTION, lower.shape, b.reshape(b.shape[0], -1).shape)
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


def symmetric_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive-definite matrix via Cholesky."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"symmetric_inverse requires a square matrix, got {a.shape}")
    record_primitive(BuildingBlock.INVERSE, a.shape)
    lower = cholesky(a)
    identity = np.eye(a.shape[0])
    y = forward_substitution(lower, identity)
    return backward_substitution(lower.T, y)


def batched_symmetric_inverse(blocks: np.ndarray) -> np.ndarray:
    """Invert a stack of small symmetric positive-definite matrices at once.

    Equivalent to applying :func:`symmetric_inverse` to every ``blocks[i]``
    (each inversion is recorded as an INVERSE building block when a trace is
    active) but executed as one batched LAPACK call — the software counterpart
    of the accelerator streaming many independent small blocks through the
    inverse unit.
    """
    a = np.asarray(blocks, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"batched_symmetric_inverse requires (n, d, d) blocks, got {a.shape}")
    if tracing_active():
        for _ in range(a.shape[0]):
            record_primitive(BuildingBlock.INVERSE, a.shape[1:])
    return np.linalg.inv(a)
