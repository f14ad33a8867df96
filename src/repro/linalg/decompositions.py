"""Matrix decompositions implemented from scratch.

Kalman-gain computation solves ``S K = P H^T`` by decomposing ``S`` and
substituting; marginalization decomposes and inverts blocks of the Hessian
(Sec. VI-A).  These routines provide the decomposition building block used by
both, with the symmetric structure of ``S`` exploited exactly as the
accelerator does (the paper halves the compute/storage of ``S``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.linalg.primitives import BuildingBlock, record_primitive


def cholesky(matrix: np.ndarray, jitter: float = 1e-10) -> np.ndarray:
    """Cholesky factorization ``A = L L^T`` for a symmetric positive matrix.

    A small diagonal jitter is added automatically when the matrix is
    numerically semi-definite, which happens routinely for covariance
    matrices that have been marginalized many times.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"cholesky requires a square matrix, got {a.shape}")
    record_primitive(BuildingBlock.DECOMPOSITION, a.shape)

    n = a.shape[0]
    lower = np.zeros((n, n))
    for j in range(n):
        diag = a[j, j] - np.dot(lower[j, :j], lower[j, :j])
        if diag <= 0.0:
            diag += jitter * max(1.0, abs(a[j, j]))
            if diag <= 0.0:
                raise np.linalg.LinAlgError("matrix is not positive definite")
        lower[j, j] = np.sqrt(diag)
        if j + 1 < n:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def qr_reduced(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Thin QR through LAPACK, recorded as a DECOMPOSITION building block.

    Returns the same reduced factorization as :func:`qr_decompose` (``Q`` is
    ``(m, min(m, n))``, ``R`` is ``(min(m, n), n)``, ``Q R = A``; individual
    columns may differ by sign) but as one library call instead of a Python
    Householder loop over columns.  Hot paths (the MSCKF Jacobian
    compression) use this variant; :func:`qr_decompose` remains the
    from-scratch reference the accelerator model is validated against.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("qr_reduced requires a 2-D matrix")
    record_primitive(BuildingBlock.DECOMPOSITION, a.shape)
    return np.linalg.qr(a, mode="reduced")


def qr_decompose(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Thin QR decomposition via Householder reflections.

    The MSCKF uses QR to compress the stacked measurement Jacobian before the
    Kalman update (the "QR" slice in Fig. 7's VIO breakdown).
    """
    a = np.asarray(matrix, dtype=float).copy()
    if a.ndim != 2:
        raise ValueError("qr_decompose requires a 2-D matrix")
    record_primitive(BuildingBlock.DECOMPOSITION, a.shape)

    m, n = a.shape
    q = np.eye(m)
    r = a.copy()
    for k in range(min(m - 1, n)):
        x = r[k:, k]
        norm_x = np.linalg.norm(x)
        if norm_x < 1e-14:
            continue
        v = x.copy()
        v[0] += np.sign(x[0]) * norm_x if x[0] != 0 else norm_x
        v = v / np.linalg.norm(v)
        r[k:, :] -= 2.0 * np.outer(v, v @ r[k:, :])
        q[:, k:] -= 2.0 * np.outer(q[:, k:] @ v, v)
    k = min(m, n)
    return q[:, :k], r[:k, :]
