"""Frontend accelerator cycle model (Sec. V).

The frontend accelerator processes both camera streams through three blocks
(feature extraction, stereo matching, temporal matching) with two key
optimizations:

* **FE time-multiplexing** — the feature-extraction hardware is shared
  between the left and right streams because FE is much faster than stereo
  matching but would otherwise double the resource cost (Sec. V-B).
* **FE/SM pipelining** — the critical path FD -> FC -> MO -> DR is pipelined
  between feature extraction and stereo matching, so throughput is dictated
  by the slower stereo-matching stage.

Temporal matching operates only on the left stream and is roughly an order
of magnitude faster than stereo matching, so it stays off the critical path.
The model computes per-task cycle counts from the frame workload (pixels,
key points, matches) and converts them to milliseconds at the platform clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.frontend.frontend import FrontendWorkload


@dataclass
class FrontendAccelLatency:
    """Latency decomposition of one frame through the frontend accelerator."""

    feature_extraction_ms: float
    stereo_matching_ms: float
    temporal_matching_ms: float

    @property
    def critical_path_ms(self) -> float:
        """End-to-end latency of one frame (TM is hidden behind FE+SM)."""
        return self.feature_extraction_ms + self.stereo_matching_ms

    def as_dict(self) -> Dict[str, float]:
        return {
            "feature_extraction": self.feature_extraction_ms,
            "stereo_matching": self.stereo_matching_ms,
            "temporal_matching": self.temporal_matching_ms,
        }


@dataclass
class FrontendAcceleratorModel:
    """Analytical cycle model of the frontend accelerator."""

    clock_mhz: float = 200.0
    # Feature extraction: the FD and IF tasks stream one pixel per cycle (they
    # run in parallel on the same stream); FC takes a fixed number of cycles
    # per detected key point.  The FE hardware is time-multiplexed between the
    # left and right streams, hence both images pass through it serially.
    pixels_per_cycle: float = 1.0
    cycles_per_descriptor: float = 320.0
    time_multiplex_feature_extraction: bool = True

    # Stereo matching: a cost-aggregation pass over the epipolar bands of the
    # image (per-pixel), descriptor comparisons for matching optimization and
    # a block search over the disparity range for every accepted match (DR).
    sm_cycles_per_pixel: float = 5.0
    mo_comparisons_per_cycle: float = 4.0
    epipolar_candidates: float = 64.0
    dr_block_cycles: float = 220.0
    disparity_search: float = 96.0

    # Temporal matching: DC computes patch derivatives, LSS iterates the 2x2
    # solve; both are heavily parallel in hardware.
    cycles_per_tracked_point: float = 360.0

    def _cycles_to_ms(self, cycles: float) -> float:
        return cycles / (self.clock_mhz * 1e3)

    # -------------------------------------------------------------- blocks

    def feature_extraction_cycles(self, workload: FrontendWorkload) -> float:
        per_image = workload.image_pixels / max(self.pixels_per_cycle, 1e-9)
        descriptor = workload.descriptors_computed * self.cycles_per_descriptor
        streams = 2.0 if self.time_multiplex_feature_extraction else 1.0
        # Without time multiplexing the two streams use separate hardware and
        # run concurrently; with it they share the datapath back to back.
        return per_image * streams + descriptor

    def stereo_matching_cycles(self, workload: FrontendWorkload) -> float:
        aggregation = workload.image_pixels * self.sm_cycles_per_pixel
        mo = workload.keypoints_left * self.epipolar_candidates / max(self.mo_comparisons_per_cycle, 1e-9)
        dr = workload.stereo_matches * self.dr_block_cycles * (self.disparity_search / 16.0)
        return aggregation + mo + dr

    def temporal_matching_cycles(self, workload: FrontendWorkload) -> float:
        return workload.tracked_points * self.cycles_per_tracked_point

    # ------------------------------------------------------------- latency

    def frame_latency(self, workload: FrontendWorkload) -> FrontendAccelLatency:
        return FrontendAccelLatency(
            feature_extraction_ms=self._cycles_to_ms(self.feature_extraction_cycles(workload)),
            stereo_matching_ms=self._cycles_to_ms(self.stereo_matching_cycles(workload)),
            temporal_matching_ms=self._cycles_to_ms(self.temporal_matching_cycles(workload)),
        )

    def latency_ms(self, workload: FrontendWorkload) -> float:
        return self.frame_latency(workload).critical_path_ms
