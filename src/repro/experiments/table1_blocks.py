"""Table I: decomposition of the backend kernels into matrix building blocks.

The table is validated empirically: each kernel's reference implementation is
executed under an operation trace, and the set of matrix primitives it
invoked is compared against the paper's decomposition.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.backend.marginalization import marginalize_schur
from repro.common.camera import PinholeCamera
from repro.common.geometry import homogeneous
from repro.linalg.ops import matmul, quadratic_form, transpose
from repro.linalg.primitives import (
    BuildingBlock,
    OperationTrace,
    TABLE_I_DECOMPOSITION,
    traced,
)
from repro.linalg.solvers import solve_cholesky


def _run_projection(num_points: int = 256, seed: int = 0) -> OperationTrace:
    rng = np.random.default_rng(seed)
    camera = PinholeCamera.from_fov(640, 480, 90.0)
    points = rng.uniform(-10.0, 10.0, size=(num_points, 3)) + np.array([0.0, 0.0, 15.0])
    trace = OperationTrace()
    with traced(trace):
        matmul(camera.projection_matrix, homogeneous(points).T)
    return trace


def _run_kalman_gain(rows: int = 60, state_dim: int = 90, seed: int = 0) -> OperationTrace:
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(rows, state_dim))
    p = rng.normal(size=(state_dim, state_dim))
    p = p @ p.T + np.eye(state_dim)
    trace = OperationTrace()
    with traced(trace):
        s = quadratic_form(h, p) + np.eye(rows)
        ph_t = matmul(p, transpose(h))
        solve_cholesky(s, transpose(ph_t))
    return trace


def _run_marginalization(state_dim: int = 60, marginalized: int = 24, seed: int = 0) -> OperationTrace:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(state_dim, state_dim))
    hessian = a @ a.T + np.eye(state_dim)
    gradient = rng.normal(size=state_dim)
    trace = OperationTrace()
    with traced(trace):
        marginalize_schur(hessian, gradient, list(range(marginalized)))
    return trace


def building_block_matrix() -> Dict[str, Dict[str, bool]]:
    """The reproduced Table I: kernel -> building block -> used?"""
    traces = {
        "projection": _run_projection(),
        "kalman_gain": _run_kalman_gain(),
        "marginalization": _run_marginalization(),
    }
    matrix: Dict[str, Dict[str, bool]] = {}
    for kernel, trace in traces.items():
        used = trace.blocks_used()
        matrix[kernel] = {block.value: block in used for block in BuildingBlock}
    return matrix


def expected_matrix() -> Dict[str, Dict[str, bool]]:
    """The paper's Table I as a boolean matrix."""
    out: Dict[str, Dict[str, bool]] = {}
    for kernel, blocks in TABLE_I_DECOMPOSITION.items():
        out[kernel] = {block.value: block in blocks for block in BuildingBlock}
    return out


def matches_paper() -> Dict[str, bool]:
    """Whether each kernel's measured decomposition covers the paper's."""
    measured = building_block_matrix()
    expected = expected_matrix()
    result: Dict[str, bool] = {}
    for kernel, blocks in expected.items():
        result[kernel] = all(
            measured[kernel][block] for block, required in blocks.items() if required
        )
    return result
