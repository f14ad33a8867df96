"""Matrix-primitive taxonomy and operation tracing.

Table I of the paper decomposes the three backend kernels into five matrix
building blocks.  :class:`BuildingBlock` names those blocks;
:class:`OperationTrace` records every primitive invocation (with operand
shapes) so tests can verify the decomposition and the hardware model can
translate a kernel execution into accelerator cycles.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple


class BuildingBlock(str, Enum):
    """The five matrix primitives of Table I."""

    MULTIPLICATION = "matrix_multiplication"
    DECOMPOSITION = "matrix_decomposition"
    INVERSE = "matrix_inverse"
    TRANSPOSE = "matrix_transpose"
    SUBSTITUTION = "fwd_bwd_substitution"


@dataclass
class PrimitiveCall:
    """A single invocation of a building block on operands of a given shape."""

    block: BuildingBlock
    shape_a: Tuple[int, ...]
    shape_b: Optional[Tuple[int, ...]] = None


class OperationTrace:
    """Accumulates primitive calls issued while the trace is active."""

    def __init__(self) -> None:
        self.calls: List[PrimitiveCall] = []

    def record(self, block: BuildingBlock, shape_a: Tuple[int, ...],
               shape_b: Optional[Tuple[int, ...]] = None) -> None:
        self.calls.append(PrimitiveCall(block, tuple(shape_a), tuple(shape_b) if shape_b else None))

    def blocks_used(self) -> Dict[BuildingBlock, int]:
        counts: Dict[BuildingBlock, int] = {}
        for call in self.calls:
            counts[call.block] = counts.get(call.block, 0) + 1
        return counts

    def clear(self) -> None:
        self.calls = []


_local = threading.local()


def _active_traces() -> List[OperationTrace]:
    if not hasattr(_local, "traces"):
        _local.traces = []
    return _local.traces


@contextmanager
def traced(trace: Optional[OperationTrace] = None):
    """Context manager that records matrix-primitive calls into ``trace``.

    Usage::

        trace = OperationTrace()
        with traced(trace):
            kalman_gain(...)
        assert BuildingBlock.DECOMPOSITION in trace.blocks_used()
    """
    trace = trace or OperationTrace()
    stack = _active_traces()
    stack.append(trace)
    try:
        yield trace
    finally:
        stack.pop()


def record_primitive(block: BuildingBlock, shape_a: Tuple[int, ...],
                     shape_b: Optional[Tuple[int, ...]] = None) -> None:
    """Record a primitive invocation into every active trace."""
    for trace in _active_traces():
        trace.record(block, shape_a, shape_b)


def tracing_active() -> bool:
    """True when at least one :func:`traced` context is currently open.

    Batched kernels use this to skip per-block bookkeeping on the hot path
    while still reporting every logical primitive invocation under a trace.
    """
    return bool(_active_traces())


# Static decomposition of the variation-contributing kernels (Table I).
TABLE_I_DECOMPOSITION: Dict[str, List[BuildingBlock]] = {
    "projection": [
        BuildingBlock.MULTIPLICATION,
    ],
    "kalman_gain": [
        BuildingBlock.MULTIPLICATION,
        BuildingBlock.DECOMPOSITION,
        BuildingBlock.TRANSPOSE,
        BuildingBlock.SUBSTITUTION,
    ],
    "marginalization": [
        BuildingBlock.MULTIPLICATION,
        BuildingBlock.DECOMPOSITION,
        BuildingBlock.INVERSE,
        BuildingBlock.TRANSPOSE,
        BuildingBlock.SUBSTITUTION,
    ],
}
