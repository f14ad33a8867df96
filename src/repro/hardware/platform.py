"""Platform instantiations: EDX-CAR and EDX-DRONE (Sec. VII-A).

The same design methodology is instantiated twice:

* **EDX-CAR** — a Xilinx Virtex-7 XC7V690T board attached to a four-core
  Kaby Lake PC over PCIe 3.0 (7.9 GB/s).  Inputs are 1280x720 stereo pairs;
  the backend uses a larger 16x16 matrix block and larger buffers.
* **EDX-DRONE** — a Zynq Ultrascale+ ZU9 (quad-core ARM Cortex-A53/A57 class
  host on the same chip) using the AXI4 bus (1.2 GB/s).  Inputs are 640x480;
  the matrix block is 8x8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.platforms import ARM_A57_MULTI, KABY_LAKE_MULTI, PlatformSpec
from repro.hardware.backend_accel import BackendAcceleratorModel
from repro.hardware.dma import AXI4, PCIE_3, DmaModel
from repro.hardware.energy import EnergyModel
from repro.hardware.frontend_accel import FrontendAcceleratorModel
from repro.hardware.memory import FrontendMemoryPlan
from repro.hardware.resources import FpgaDevice, ResourceModel, VIRTEX_7_690T, ZYNQ_ZU9


@dataclass
class EudoxusPlatform:
    """One full Eudoxus instantiation: FPGA, host, clocks and sizes."""

    name: str
    device: FpgaDevice
    host: PlatformSpec
    dma: DmaModel
    image_width: int
    image_height: int
    max_features: int
    clock_mhz: float
    matrix_block_size: int
    fpga_static_watts: float
    fpga_dynamic_watts: float

    def frontend_model(self) -> FrontendAcceleratorModel:
        return FrontendAcceleratorModel(clock_mhz=self.clock_mhz)

    def backend_model(self) -> BackendAcceleratorModel:
        return BackendAcceleratorModel(
            clock_mhz=self.clock_mhz,
            block_size=self.matrix_block_size,
            dma=self.dma,
        )

    def resource_model(self) -> ResourceModel:
        return ResourceModel(
            image_width=self.image_width,
            image_height=self.image_height,
            matrix_block_size=self.matrix_block_size,
        )

    def memory_plan(self) -> FrontendMemoryPlan:
        return FrontendMemoryPlan(
            image_width=self.image_width,
            image_height=self.image_height,
            max_features=self.max_features,
        )

    def energy_model(self) -> EnergyModel:
        return EnergyModel(
            host=self.host,
            fpga_static_watts=self.fpga_static_watts,
            fpga_dynamic_watts=self.fpga_dynamic_watts,
        )


EDX_CAR = EudoxusPlatform(
    name="EDX-CAR",
    device=VIRTEX_7_690T,
    host=KABY_LAKE_MULTI,
    dma=PCIE_3,
    image_width=1280,
    image_height=720,
    max_features=200,
    clock_mhz=200.0,
    matrix_block_size=16,
    fpga_static_watts=3.0,
    fpga_dynamic_watts=5.0,
)

EDX_DRONE = EudoxusPlatform(
    name="EDX-DRONE",
    device=ZYNQ_ZU9,
    host=ARM_A57_MULTI,
    dma=AXI4,
    image_width=640,
    image_height=480,
    max_features=120,
    clock_mhz=100.0,
    matrix_block_size=8,
    fpga_static_watts=2.5,
    fpga_dynamic_watts=3.5,
)
