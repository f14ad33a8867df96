"""Vision frontend: feature extraction, stereo matching, temporal matching.

The frontend is shared by every backend mode and always activated
(Sec. IV-A).  It consists of three blocks:

* **Feature extraction** — FAST corner detection, image filtering and ORB
  descriptor calculation.
* **Stereo matching** — descriptor (hamming) matching followed by
  block-matching disparity refinement.
* **Temporal matching** — Lucas-Kanade optical flow tracking of the previous
  frame's key points.

The frame picks one of two execution paths.  A frame with rendered images
runs the *dense* path: the real image algorithms, the workload the frontend
accelerator model characterizes.  Any other frame runs the *sparse* path,
which consumes the simulator's landmark observations directly; this keeps
long end-to-end localization runs fast while producing the same
correspondence structure.
"""

from repro.frontend.fast import FastDetector, Keypoint
from repro.frontend.orb import OrbDescriptor, hamming_distance, hamming_distance_matrix
from repro.frontend.filtering import gaussian_blur, sobel_gradients
from repro.frontend.stereo import StereoMatcher, StereoMatch
from repro.frontend.optical_flow import LucasKanadeTracker, FlowResult
from repro.frontend.frontend import (
    FrontendResult,
    FrontendSummary,
    VisualFrontend,
)

__all__ = [
    "FastDetector",
    "Keypoint",
    "OrbDescriptor",
    "hamming_distance",
    "hamming_distance_matrix",
    "gaussian_blur",
    "sobel_gradients",
    "StereoMatcher",
    "StereoMatch",
    "LucasKanadeTracker",
    "FlowResult",
    "FrontendResult",
    "FrontendSummary",
    "VisualFrontend",
]
