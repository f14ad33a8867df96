"""Matrix building blocks (Table I of the paper).

The three latency-variation kernels of the backend — camera-model projection,
Kalman-gain computation and marginalization — decompose into five matrix
primitives: multiplication, decomposition, inverse, transpose and
forward/backward substitution.  This subpackage implements those primitives
from scratch and provides an operation-count tracker used to validate the
Table I decomposition and to drive the backend accelerator cycle model.
"""

from repro.linalg.primitives import BuildingBlock, OperationTrace, traced
from repro.linalg.ops import matmul, transpose, quadratic_form
from repro.linalg.decompositions import cholesky, qr_decompose
from repro.linalg.solvers import (
    backward_substitution,
    forward_substitution,
    solve_cholesky,
    symmetric_inverse,
)

__all__ = [
    "BuildingBlock",
    "OperationTrace",
    "traced",
    "matmul",
    "transpose",
    "quadratic_form",
    "cholesky",
    "qr_decompose",
    "forward_substitution",
    "backward_substitution",
    "solve_cholesky",
    "symmetric_inverse",
]
