"""FPGA resource accounting (Table II).

The model estimates LUT / flip-flop / DSP / BRAM consumption of the Eudoxus
design as a function of the input resolution (which sizes the frontend
datapath and its line buffers) and the backend matrix block size.  The
per-block coefficients are calibrated against the two design points the
paper reports (EDX-CAR on a Virtex-7 at 1280x720 with a 16x16 matrix block,
EDX-DRONE on a Zynq Ultrascale+ at 640x480 with an 8x8 block), so the model
reproduces Table II by construction and interpolates for other
configurations.

The "no sharing" (N.S.) estimate instantiates one frontend per backend mode
and gives each variation-contributing kernel private copies of the matrix
building blocks it needs — the strategy the paper shows would more than
double resource usage and overflow both FPGAs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class ResourceUsage:
    """Consumption of the four FPGA resource types (BRAM in megabytes)."""

    lut: float = 0.0
    flip_flop: float = 0.0
    dsp: float = 0.0
    bram_mb: float = 0.0

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            lut=self.lut + other.lut,
            flip_flop=self.flip_flop + other.flip_flop,
            dsp=self.dsp + other.dsp,
            bram_mb=self.bram_mb + other.bram_mb,
        )

    def scaled(self, factor: float) -> "ResourceUsage":
        return ResourceUsage(
            lut=self.lut * factor,
            flip_flop=self.flip_flop * factor,
            dsp=self.dsp * factor,
            bram_mb=self.bram_mb * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "lut": self.lut,
            "flip_flop": self.flip_flop,
            "dsp": self.dsp,
            "bram_mb": self.bram_mb,
        }


@dataclass(frozen=True)
class FpgaDevice:
    """Available resources of an FPGA device."""

    name: str
    lut: int
    flip_flop: int
    dsp: int
    bram_mb: float

    def utilization(self, usage: ResourceUsage) -> Dict[str, float]:
        """Percent utilization per resource type."""
        return {
            "lut": 100.0 * usage.lut / self.lut,
            "flip_flop": 100.0 * usage.flip_flop / self.flip_flop,
            "dsp": 100.0 * usage.dsp / self.dsp,
            "bram_mb": 100.0 * usage.bram_mb / self.bram_mb,
        }

    def fits(self, usage: ResourceUsage) -> bool:
        return (
            usage.lut <= self.lut
            and usage.flip_flop <= self.flip_flop
            and usage.dsp <= self.dsp
            and usage.bram_mb <= self.bram_mb
        )


# The two FPGA boards the paper evaluates on (Sec. VII-A).
VIRTEX_7_690T = FpgaDevice(name="Xilinx Virtex-7 XC7V690T", lut=433200, flip_flop=866400, dsp=3600, bram_mb=5.71)
ZYNQ_ZU9 = FpgaDevice(name="Xilinx Zynq Ultrascale+ ZU9", lut=274080, flip_flop=548160, dsp=2520, bram_mb=3.98)


def _interpolate(car_value: float, drone_value: float, car_x: float, drone_x: float, x: float) -> float:
    """Linear interpolation through the two calibrated design points."""
    if abs(car_x - drone_x) < 1e-9:
        return car_value
    slope = (car_value - drone_value) / (car_x - drone_x)
    return drone_value + slope * (x - drone_x)


class ResourceModel:
    """Estimates the resource usage of a Eudoxus instantiation."""

    # Calibrated totals from Table II for the two design points.
    _CAR_TOTAL = ResourceUsage(lut=350671, flip_flop=239347, dsp=1284, bram_mb=5.0)
    _DRONE_TOTAL = ResourceUsage(lut=231547, flip_flop=171314, dsp=1072, bram_mb=3.67)
    _CAR_NS_TOTAL = ResourceUsage(lut=795604, flip_flop=628346, dsp=3628, bram_mb=13.2)
    _DRONE_NS_TOTAL = ResourceUsage(lut=659485, flip_flop=459485, dsp=3064, bram_mb=10.6)

    # Fraction of the total consumed by the frontend (Sec. VII-B: "In
    # EDX-CAR, the frontend uses 83.2% LUT, 62.2% Flip-Flop, 80.2% DSP and
    # 73.5% BRAM of the total used resource").
    _FRONTEND_SHARE = ResourceUsage(lut=0.832, flip_flop=0.622, dsp=0.802, bram_mb=0.735)
    # Feature extraction consumes over two-thirds of the frontend resource.
    _FE_SHARE_OF_FRONTEND = 0.68

    def __init__(self, image_width: int, image_height: int, matrix_block_size: int) -> None:
        self.image_width = int(image_width)
        self.image_height = int(image_height)
        self.matrix_block_size = int(matrix_block_size)

    # ------------------------------------------------------------- totals

    def total(self) -> ResourceUsage:
        """Resource usage of the shared (actual Eudoxus) design."""
        return ResourceUsage(
            lut=self._interp("lut"),
            flip_flop=self._interp("flip_flop"),
            dsp=self._interp("dsp"),
            bram_mb=self._interp("bram_mb"),
        )

    def total_no_sharing(self) -> ResourceUsage:
        """Hypothetical usage without frontend/building-block sharing (N.S.)."""
        return ResourceUsage(
            lut=self._interp("lut", no_sharing=True),
            flip_flop=self._interp("flip_flop", no_sharing=True),
            dsp=self._interp("dsp", no_sharing=True),
            bram_mb=self._interp("bram_mb", no_sharing=True),
        )

    def _interp(self, field: str, no_sharing: bool = False) -> float:
        car = self._CAR_NS_TOTAL if no_sharing else self._CAR_TOTAL
        drone = self._DRONE_NS_TOTAL if no_sharing else self._DRONE_TOTAL
        # The frontend share scales with the image width (line buffers and
        # datapath width); the backend share scales with the block area.
        car_front = getattr(car, field) * getattr(self._FRONTEND_SHARE, field)
        drone_front = getattr(drone, field) * getattr(self._FRONTEND_SHARE, field)
        car_back = getattr(car, field) - car_front
        drone_back = getattr(drone, field) - drone_front
        frontend = _interpolate(car_front, drone_front, 1280.0, 640.0, float(self.image_width))
        backend = _interpolate(car_back, drone_back, 16.0**2, 8.0**2, float(self.matrix_block_size) ** 2)
        return max(frontend, 0.0) + max(backend, 0.0)

    # -------------------------------------------------------- block splits

    def frontend(self) -> ResourceUsage:
        total = self.total()
        return ResourceUsage(
            lut=total.lut * self._FRONTEND_SHARE.lut,
            flip_flop=total.flip_flop * self._FRONTEND_SHARE.flip_flop,
            dsp=total.dsp * self._FRONTEND_SHARE.dsp,
            bram_mb=total.bram_mb * self._FRONTEND_SHARE.bram_mb,
        )

    def backend(self) -> ResourceUsage:
        total = self.total()
        front = self.frontend()
        return ResourceUsage(
            lut=total.lut - front.lut,
            flip_flop=total.flip_flop - front.flip_flop,
            dsp=total.dsp - front.dsp,
            bram_mb=total.bram_mb - front.bram_mb,
        )

    def feature_extraction(self) -> ResourceUsage:
        """The FE block, which is time-multiplexed between the two cameras."""
        return self.frontend().scaled(self._FE_SHARE_OF_FRONTEND)

    def breakdown(self) -> Dict[str, ResourceUsage]:
        """Per-block resource split of the shared design."""
        front = self.frontend()
        back = self.backend()
        fe = self.feature_extraction()
        matching = front.scaled(1.0 - self._FE_SHARE_OF_FRONTEND)
        # The backend splits its resources across the five matrix building
        # blocks plus the address-generation / misc logic.
        block_share = 1.0 / 6.0
        return {
            "feature_extraction": fe,
            "stereo_and_temporal_matching": matching,
            "matrix_multiplication": back.scaled(block_share * 1.6),
            "matrix_decomposition": back.scaled(block_share * 1.3),
            "matrix_inverse": back.scaled(block_share * 0.7),
            "matrix_transpose": back.scaled(block_share * 0.4),
            "substitution": back.scaled(block_share * 0.8),
            "backend_misc": back.scaled(block_share * 1.2),
        }

