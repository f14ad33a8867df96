"""Shared substrates: geometry, camera models, configuration and timing.

These modules are the lowest layer of the Eudoxus reproduction.  Every other
subpackage (sensors, frontend, backend, hardware) builds on the SE(3)
utilities, camera models and timing records defined here.
"""

from repro.common.geometry import (
    Pose,
    skew,
    so3_exp,
    so3_log,
)
from repro.common.camera import PinholeCamera, StereoRig
from repro.common.timing import KernelTiming, LatencyRecord, TimingStats

__all__ = [
    "Pose",
    "PinholeCamera",
    "StereoRig",
    "KernelTiming",
    "LatencyRecord",
    "TimingStats",
    "skew",
    "so3_exp",
    "so3_log",
]
