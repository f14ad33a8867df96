"""Marginalization via the Schur complement (SLAM mode's variation kernel).

When the sliding-window bundle adjustment drops an old keyframe, the
information it carried about the remaining states must be preserved as a
prior.  This is done with the Schur complement of the Hessian:

    H = [[A_mm, A_mr],
         [A_rm, A_rr]]            (m = marginalized, r = remaining)

    H_prior = A_rr - A_rm  A_mm^-1  A_mr
    b_prior = b_r  - A_rm  A_mm^-1  b_m

which composes all five matrix building blocks of Table I: multiplication,
decomposition, inverse, transpose and substitution.  The ``A_mm`` block has
the structure the paper exploits in hardware — a diagonal landmark block plus
a dense 6x6 pose block.  The software inverts it generically; the
accelerator model prices the specialization on its own
(:meth:`~repro.hardware.backend_accel.BackendAcceleratorModel.inverse_cycles` with
``structured=True``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.linalg.ops import matmul, transpose
from repro.linalg.solvers import symmetric_inverse


@dataclass
class MarginalizationResult:
    """Prior produced by marginalizing part of the state."""

    hessian: np.ndarray
    gradient: np.ndarray
    marginalized_dim: int
    remaining_dim: int


def marginalize_schur(hessian: np.ndarray, gradient: np.ndarray,
                      marginalize_indices: Sequence[int]) -> MarginalizationResult:
    """Marginalize the given state indices out of (H, b) with a Schur complement."""
    hessian = np.asarray(hessian, dtype=float)
    gradient = np.asarray(gradient, dtype=float).reshape(-1)
    n = hessian.shape[0]
    if hessian.shape != (n, n) or gradient.shape[0] != n:
        raise ValueError("hessian/gradient dimensions are inconsistent")
    marg = np.asarray(sorted(set(int(i) for i in marginalize_indices)), dtype=int)
    if marg.size and (marg.min() < 0 or marg.max() >= n):
        raise ValueError("marginalize_indices out of range")
    keep = np.asarray([i for i in range(n) if i not in set(marg.tolist())], dtype=int)

    if marg.size == 0:
        return MarginalizationResult(hessian.copy(), gradient.copy(), 0, n)
    if keep.size == 0:
        return MarginalizationResult(np.zeros((0, 0)), np.zeros(0), n, 0)

    a_mm = hessian[np.ix_(marg, marg)]
    a_mr = hessian[np.ix_(marg, keep)]
    # The Hessian is symmetric, so A_rm is the transpose of A_mr — computed
    # through the transpose building block exactly as the accelerator does.
    a_rm = transpose(a_mr)
    a_rr = hessian[np.ix_(keep, keep)]
    b_m = gradient[marg]
    b_r = gradient[keep]

    # Regularize A_mm slightly: repeated marginalization can make it singular.
    a_mm = a_mm + np.eye(a_mm.shape[0]) * 1e-9
    a_mm_inv = symmetric_inverse(a_mm)
    a_rm_a_mm_inv = matmul(a_rm, a_mm_inv)

    prior_hessian = a_rr - matmul(a_rm_a_mm_inv, a_mr)
    prior_gradient = b_r - a_rm_a_mm_inv @ b_m
    prior_hessian = 0.5 * (prior_hessian + prior_hessian.T)
    return MarginalizationResult(prior_hessian, prior_gradient, int(marg.size), int(keep.size))
