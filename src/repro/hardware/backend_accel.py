"""Backend accelerator cycle model (Sec. VI-A).

The backend accelerator specializes hardware for the five matrix building
blocks of Table I — multiplication, decomposition, inverse, transpose and
forward/backward substitution — and maps the three variation-contributing
kernels onto them:

* **Projection** (registration): a 3x4 camera matrix times a 4xM matrix of
  homogeneous map points.
* **Kalman gain** (VIO): ``S = H P H^T + R`` followed by a decomposition of
  ``S`` and substitutions for ``S K = P H^T`` (Equ. 1a/1b).  The symmetry of
  ``S`` halves compute and storage.
* **Marginalization** (SLAM): Schur complement with a structured ``A_mm``
  inverse (diagonal landmark block plus a 6x6 pose block).

Matrix sizes beyond the native block size are handled by iterating block by
block; the scratchpads hold full operands while the compute units only see
one block at a time.  Offload time additionally includes the DMA transfers
of the kernel operands, which the runtime scheduler weighs against the CPU
execution time (Sec. VI-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.backend.mapping import SlamWorkload
from repro.backend.msckf import VioWorkload
from repro.backend.tracking import RegistrationWorkload
from repro.hardware.dma import DmaModel


@dataclass
class BackendAcceleratorModel:
    """Analytical cycle model of the backend matrix engine."""

    clock_mhz: float = 200.0
    block_size: int = 16
    # Cycles for the specialized 6x6 inverse plus the diagonal reciprocals.
    small_inverse_cycles: float = 240.0
    # Fixed host-side cost of launching one offload (driver call, descriptor
    # setup, cache flush).  This is what makes offloading tiny kernels a loss
    # and motivates the runtime scheduler (Sec. VI-B).
    offload_setup_ms: float = 0.6
    # Per-element cycles of the misc/addition datapath.
    misc_cycles_per_element: float = 0.05
    dma: DmaModel = field(default_factory=lambda: DmaModel(bandwidth_gbps=7.9))
    bytes_per_element: int = 4

    # ------------------------------------------------------- building blocks

    def _blocks(self, n: float) -> float:
        return max(1.0, math.ceil(n / self.block_size))

    def multiply_cycles(self, m: float, k: float, n: float) -> float:
        """Blocked matrix multiply: one BxB block product per B cycles."""
        return self._blocks(m) * self._blocks(k) * self._blocks(n) * self.block_size

    def decompose_cycles(self, n: float) -> float:
        """Cholesky/QR-style decomposition of an n x n matrix."""
        return (n**3) / (3.0 * self.block_size**2) + n * self.block_size

    def inverse_cycles(self, n: float, structured: bool = False) -> float:
        """Matrix inverse; the structured variant uses the 6x6 + diagonal trick."""
        if structured:
            return self.small_inverse_cycles + n * 2.0
        return (n**3) / (self.block_size**2) + n * self.block_size

    def transpose_cycles(self, m: float, n: float) -> float:
        return (m * n) / self.block_size

    def substitution_cycles(self, n: float, rhs: float) -> float:
        return (n * n * rhs) / (self.block_size**2) + n

    def _cycles_to_ms(self, cycles: float) -> float:
        return cycles / (self.clock_mhz * 1e3)

    # -------------------------------------------------------------- kernels

    def projection_ms(self, workload: RegistrationWorkload, include_dma: bool = True) -> float:
        """Projection kernel: C (3x4) times homogeneous map points (4xM)."""
        points = max(workload.projection_points, 1)
        cycles = self.multiply_cycles(3, 4, points) + points * self.misc_cycles_per_element
        compute = self._cycles_to_ms(cycles)
        if not include_dma:
            return compute
        input_bytes = points * 4 * self.bytes_per_element + 12 * self.bytes_per_element
        output_bytes = points * 3 * self.bytes_per_element
        return compute + self.offload_setup_ms + self.dma.round_trip_ms(input_bytes, output_bytes)

    def kalman_gain_ms(self, workload: VioWorkload, include_dma: bool = True) -> float:
        """Kalman-gain kernel: form S (symmetric), decompose, substitute."""
        rows = max(workload.kalman_gain_dim, 6)
        state = max(workload.state_dim, 15)
        # S = H P H^T (symmetry halves the second product), then S K = P H^T.
        cycles = (
            self.multiply_cycles(rows, state, state)
            + 0.5 * self.multiply_cycles(rows, state, rows)
            + self.transpose_cycles(rows, state)
            + self.decompose_cycles(rows)
            + 2.0 * self.substitution_cycles(rows, state)
        )
        compute = self._cycles_to_ms(cycles)
        if not include_dma:
            return compute
        input_bytes = (rows * state + state * state) * self.bytes_per_element
        output_bytes = state * rows * self.bytes_per_element
        return compute + self.offload_setup_ms + self.dma.round_trip_ms(input_bytes, output_bytes)

    def marginalization_ms(self, workload: SlamWorkload, include_dma: bool = True) -> float:
        """Marginalization kernel: structured inverse plus Schur products."""
        marginalized = max(workload.marginalized_dim, 6)
        remaining = max(workload.keyframes * 6, 6)
        cycles = (
            self.inverse_cycles(marginalized, structured=True)
            + self.multiply_cycles(remaining, marginalized, marginalized)
            + self.multiply_cycles(remaining, marginalized, remaining)
            + self.transpose_cycles(marginalized, remaining)
            + self.decompose_cycles(min(marginalized, 6 * 8))
            + self.substitution_cycles(remaining, 1)
        )
        compute = self._cycles_to_ms(cycles)
        if not include_dma:
            return compute
        input_bytes = (marginalized**2 + 2 * marginalized * remaining + remaining**2) * self.bytes_per_element
        output_bytes = (remaining**2 + remaining) * self.bytes_per_element
        return compute + self.offload_setup_ms + self.dma.round_trip_ms(input_bytes, output_bytes)

    def kernel_ms(self, mode: str, workload, include_dma: bool = True) -> float:
        """Accelerated latency of the mode's variation-contributing kernel."""
        if mode == "registration":
            return self.projection_ms(workload, include_dma)
        if mode == "vio":
            return self.kalman_gain_ms(workload, include_dma)
        if mode == "slam":
            return self.marginalization_ms(workload, include_dma)
        raise ValueError(f"unknown backend mode: {mode}")

    def accelerated_kernel_name(self, mode: str) -> str:
        """The kernel each mode offloads (Table I / Sec. VI-A)."""
        return {
            "registration": "projection",
            "vio": "kalman_gain",
            "slam": "marginalization",
        }[mode]
