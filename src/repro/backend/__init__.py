"""Optimization backends: filtering (VIO), mapping/tracking (SLAM), registration.

The backend calculates the 6-DoF pose from the visual correspondences
produced by the frontend (Sec. IV-A).  It operates in one of three modes,
each activating a different set of blocks:

* **VIO mode** — Filtering (MSCKF) + Fusion (loosely-coupled GPS EKF).
* **SLAM mode** — Mapping (bundle adjustment with marginalization) running
  alongside Tracking against the continuously updated map.
* **Registration mode** — Tracking against a pre-constructed map: camera-model
  projection of the map, matching by track identity (descriptor matching as
  the fallback) and absolute-orientation pose optimization.

Each per-frame result carries a workload record describing the matrix sizes
the mode's variation-contributing kernel operated on (projection, Kalman
gain, marginalization), which drives both the CPU baseline latency model and
the backend accelerator model.
"""

from repro.backend.state import ImuState, CloneState, MsckfState
from repro.backend.msckf import Msckf, VioWorkload
from repro.backend.fusion import GpsFusion
from repro.backend.mapping import KeyframeMapper, SlamWorkload
from repro.backend.marginalization import marginalize_schur
from repro.backend.tracking import MapTracker, RegistrationWorkload, LocalizationMap
from repro.backend.registration import RegistrationBackend
from repro.backend.vio import VioBackend
from repro.backend.slam import SlamBackend
from repro.backend.base import BackendResult

__all__ = [
    "ImuState",
    "CloneState",
    "MsckfState",
    "Msckf",
    "VioWorkload",
    "GpsFusion",
    "KeyframeMapper",
    "SlamWorkload",
    "marginalize_schur",
    "MapTracker",
    "RegistrationWorkload",
    "LocalizationMap",
    "RegistrationBackend",
    "VioBackend",
    "SlamBackend",
    "BackendResult",
]
