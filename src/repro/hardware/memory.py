"""On-chip memory structures: stencil buffers, FIFOs and scratchpads.

The frontend accelerator provisions three kinds of on-chip memory to match
three data-reuse patterns (Sec. V-C):

* **Stencil buffers (SB)** for stencil operations (convolution in image
  filtering, block matching in matching optimization).  An SB is a set of
  cascaded line FIFOs feeding shift registers (Fig. 13).
* **FIFOs** for sequential reads (e.g. descriptor calculation walking the
  detected key points).
* **Scratchpad memories (SPM)** for irregular accesses (e.g. matching
  optimization, all backend matrix operands).

The key optimization (Fig. 14): when two stencil consumers of the same pixel
are far apart in the pipeline, replicating the pixel into two small SBs (at
the cost of reading it twice from DRAM) is much cheaper than holding it in a
single SB for the whole gap.  For the localization frontend the gap between
image filtering / feature detection and disparity refinement is millions of
cycles, so the unoptimized design would need roughly 9 MB of extra buffering
(Sec. VII-D) — far beyond the FPGA's BRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass
class StencilBufferSpec:
    """One stencil buffer shared by one or more stencil consumers.

    Parameters
    ----------
    image_width:
        Pixels per line; each line FIFO holds one line.
    stencil_heights:
        Vertical extents of the stencil windows reading from this buffer
        (e.g. ``[4, 3]`` for the Fig. 13 example).
    bytes_per_pixel:
        Pixel storage size.
    """

    image_width: int
    stencil_heights: Sequence[int]
    bytes_per_pixel: int = 1

    @property
    def line_count(self) -> int:
        """Number of cascaded line FIFOs: the tallest stencil dictates it."""
        return max(self.stencil_heights) if self.stencil_heights else 0

    @property
    def fifo_bytes(self) -> int:
        return self.line_count * self.image_width * self.bytes_per_pixel

    @property
    def shift_register_bytes(self) -> int:
        return sum(h * h * self.bytes_per_pixel for h in self.stencil_heights)

    @property
    def total_bytes(self) -> int:
        return self.fifo_bytes + self.shift_register_bytes


def shared_buffer_bytes(production_cycle: int, consumption_cycles: Sequence[int],
                        bytes_per_pixel: int = 1) -> int:
    """SB bytes needed when a pixel stays in ONE buffer until its last use.

    One pixel enters per cycle, so the buffer must hold
    ``max(consumption) - production`` pixels (Sec. V-C).
    """
    if not consumption_cycles:
        return 0
    return max(0, max(consumption_cycles) - production_cycle) * bytes_per_pixel


def replicated_buffer_bytes(production_cycles: Sequence[int], consumption_cycles: Sequence[int],
                            bytes_per_pixel: int = 1) -> int:
    """SB bytes when the pixel is re-read from DRAM for each consumer (Fig. 14).

    The total is ``sum_i (C_i - P_i)``: each consumer gets its own small
    buffer filled just in time.
    """
    if len(production_cycles) != len(consumption_cycles):
        raise ValueError("production and consumption lists must have the same length")
    return sum(max(0, c - p) for p, c in zip(production_cycles, consumption_cycles)) * bytes_per_pixel


def replication_beneficial(production_cycles: Sequence[int], consumption_cycles: Sequence[int]) -> bool:
    """The Fig. 14 criterion: replication wins when ``P2 > C1``.

    More generally, replication wins when the buffers-with-replication total
    is smaller than the single shared buffer.
    """
    shared = shared_buffer_bytes(min(production_cycles), consumption_cycles)
    replicated = replicated_buffer_bytes(production_cycles, consumption_cycles)
    return replicated < shared


@dataclass
class FrontendMemoryPlan:
    """On-chip memory budget of the frontend accelerator for one platform."""

    image_width: int
    image_height: int
    max_features: int
    descriptor_bytes: int = 32
    stencil_heights_filtering: Sequence[int] = (3, 7)
    stencil_height_refinement: int = 7
    disparity_search: int = 96
    bytes_per_pixel: int = 1

    # ----------------------------------------------------------- components

    def stencil_buffers(self) -> Dict[str, StencilBufferSpec]:
        """The per-task stencil buffers of the optimized (replicated) design."""
        return {
            "filtering_and_detection": StencilBufferSpec(
                image_width=self.image_width,
                stencil_heights=list(self.stencil_heights_filtering),
                bytes_per_pixel=self.bytes_per_pixel,
            ),
            "disparity_refinement": StencilBufferSpec(
                image_width=self.image_width,
                stencil_heights=[self.stencil_height_refinement],
                bytes_per_pixel=self.bytes_per_pixel,
            ),
        }

    def stencil_buffer_bytes(self) -> int:
        """Total SB bytes with the pixel-replication optimization.

        Both camera streams are double-buffered, hence the factor of two.
        """
        per_stream = sum(spec.total_bytes for spec in self.stencil_buffers().values())
        return 2 * per_stream

    def stencil_buffer_bytes_unoptimized(self) -> int:
        """Total SB bytes if pixels were kept on chip until disparity refinement.

        Disparity refinement consumes a pixel millions of cycles after image
        filtering produced it (it waits for feature extraction and matching
        optimization of the whole frame), so the shared buffer must hold a
        large fraction of the frame for both streams.
        """
        pixels_per_frame = self.image_width * self.image_height
        # DR consumes a pixel only after feature extraction has streamed both
        # camera images through the time-multiplexed FE datapath (two frames
        # of cycles), the matching cost-aggregation pass has covered the frame
        # (one more frame) and part of the refinement sweep has run — several
        # million cycles after IF/FD produced it (Sec. V-C: "over 3 million
        # cycles").  A single shared buffer would therefore have to hold
        # multiple frames worth of pixels per stream.
        gap_cycles = int(3.5 * pixels_per_frame) + self.max_features * self.disparity_search
        shared = shared_buffer_bytes(0, [gap_cycles], self.bytes_per_pixel)
        optimized_refinement = StencilBufferSpec(
            image_width=self.image_width,
            stencil_heights=[self.stencil_height_refinement],
            bytes_per_pixel=self.bytes_per_pixel,
        ).total_bytes
        extra = max(shared - optimized_refinement, 0)
        return self.stencil_buffer_bytes() + 2 * extra

    def fifo_bytes(self) -> int:
        """FIFOs: detected key points streamed into descriptor calculation."""
        keypoint_entry = 8  # x, y, score
        return 2 * self.max_features * keypoint_entry

    def scratchpad_bytes(self) -> int:
        """SPMs: double-buffered input images plus descriptor/matching storage."""
        image_bytes = self.image_width * self.image_height * self.bytes_per_pixel
        descriptor_bytes = 2 * self.max_features * self.descriptor_bytes
        matching_bytes = self.max_features * self.disparity_search
        return 2 * 2 * image_bytes + descriptor_bytes + matching_bytes

    # -------------------------------------------------------------- totals

    def total_bytes(self) -> int:
        return self.stencil_buffer_bytes() + self.fifo_bytes() + self.scratchpad_bytes()

    def total_mb(self) -> float:
        return self.total_bytes() / 1e6

    def summary(self) -> Dict[str, float]:
        return {
            "stencil_buffer_mb": self.stencil_buffer_bytes() / 1e6,
            "stencil_buffer_unoptimized_mb": self.stencil_buffer_bytes_unoptimized() / 1e6,
            "fifo_mb": self.fifo_bytes() / 1e6,
            "scratchpad_mb": self.scratchpad_bytes() / 1e6,
            "total_mb": self.total_mb(),
        }
