"""Triangular solves, symmetric positive-definite solves and inversion.

Forward/backward substitution is the fifth building block of Table I.  The
solvers here are the software counterparts of the accelerator's F/B
substitution unit and of the specialized 6x6-plus-diagonal inverse unit used
for the marginalization ``A_mm`` block (Sec. VI-A, "Optimization").

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


def block_diag_plus_dense_inverse(diagonal: np.ndarray, dense: np.ndarray,
                                  off_diagonal: np.ndarray) -> np.ndarray:
    """Invert a symmetric matrix with the paper's ``A_mm`` structure.

    ``A_mm = [[A, B], [B^T, D]]`` where ``A`` is diagonal and ``D`` is a small
    6x6 pose block.  The inversion uses the block-matrix inverse formula so the
    heavy lifting reduces to reciprocals of the diagonal plus a 6x6 inverse —
    the same specialization the backend accelerator hardware makes.

    Parameters
    ----------
    diagonal:
        The diagonal entries of ``A`` (length ``m``).
    dense:
        The dense ``D`` block (``d x d``; 6x6 in the paper).
    off_diagonal:
        The ``B`` block (``m x d``).
    """
    diag = np.asarray(diagonal, dtype=float).reshape(-1)
    d_block = np.asarray(dense, dtype=float)
    b_block = np.asarray(off_diagonal, dtype=float)
    m = diag.size
    d = d_block.shape[0]
    if d_block.shape != (d, d) or b_block.shape != (m, d):
        raise ValueError("inconsistent block shapes for structured inverse")
    record_primitive(BuildingBlock.INVERSE, (m + d, m + d))

    inv_diag = 1.0 / np.where(np.abs(diag) < 1e-14, 1e-14, diag)
    # Schur complement of A: D - B^T A^-1 B  (d x d, cheap to invert).
    schur = d_block - b_block.T @ (inv_diag[:, None] * b_block)
    schur_inv = symmetric_inverse(schur)

    top_left = np.diag(inv_diag) + (inv_diag[:, None] * b_block) @ schur_inv @ (b_block.T * inv_diag[None, :])
    top_right = -(inv_diag[:, None] * b_block) @ schur_inv
    out = np.zeros((m + d, m + d))
    out[:m, :m] = top_left
    out[:m, m:] = top_right
    out[m:, :m] = top_right.T
    out[m:, m:] = schur_inv
    return out
