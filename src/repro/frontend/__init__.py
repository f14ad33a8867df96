"""Vision frontend: feature extraction, stereo matching, temporal matching.

The frontend is shared by every backend mode and always activated
(Sec. IV-A).  It consists of three blocks:

* **Feature extraction** — FAST corner detection, image filtering and ORB
  descriptor calculation.
* **Stereo matching** — descriptor (hamming) matching followed by
  block-matching disparity refinement.
* **Temporal matching** — Lucas-Kanade optical flow tracking of the previous
  frame's key points.

Two execution paths are offered.  The *dense* path runs the real image
algorithms on rendered frames; it is the workload the frontend accelerator
model characterizes.  The *sparse* path consumes the simulator's landmark
observations directly, which keeps long end-to-end localization runs fast
while producing the same correspondence structure.
"""

from repro.frontend.fast import FastDetector, Keypoint
from repro.frontend.orb import OrbDescriptor, hamming_distance, hamming_distance_matrix
from repro.frontend.filtering import gaussian_blur, sobel_gradients, image_pyramid
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
    "image_pyramid",
    "StereoMatcher",
    "StereoMatch",
    "LucasKanadeTracker",
    "FlowResult",
    "FrontendResult",
    "FrontendSummary",
    "VisualFrontend",
]
