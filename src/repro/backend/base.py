"""Common result type returned by every backend mode."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.common.geometry import Pose


@dataclass
class BackendResult:
    """Per-frame output of a backend mode.

    Attributes
    ----------
    frame_index, timestamp:
        Which camera epoch this estimate belongs to.
    pose:
        The estimated 6-DoF pose of the body in the world frame.
    mode:
        Which backend mode produced the estimate ("registration", "vio",
        "slam").
    workload:
        A mode-specific workload record (matrix sizes, iteration counts) used
        by the latency models.
    kernel_ms:
        Wall-clock milliseconds measured for each backend kernel while
        executing the Python implementation.
    diagnostics:
        Free-form extra data (inlier counts, convergence flags, ...).
    """

    frame_index: int
    timestamp: float
    pose: Pose
    mode: str
    workload: Any = None
    kernel_ms: Dict[str, float] = field(default_factory=dict)
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    valid: bool = True
