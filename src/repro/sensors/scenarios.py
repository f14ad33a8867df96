"""Taxonomy of real-world operating environments (Fig. 2).

The paper classifies environments along two axes: map availability and GPS
availability.  The resulting four scenarios each prefer a different
localization algorithm:

========================  ==========================  =================
Scenario                  (GPS, Map)                  Preferred backend
========================  ==========================  =================
Indoor unknown            (no GPS, no map)            SLAM
Indoor known              (no GPS, with map)          Registration
Outdoor unknown           (with GPS, no map)          VIO (+GPS)
Outdoor known             (with GPS, with map)        VIO (+GPS)
========================  ==========================  =================

A commercial deployment mixes these: the paper's evaluation uses 50 % outdoor
frames, 25 % indoor frames without a map and 25 % indoor frames with a map.
:func:`~repro.serving.streams.mixed_deployment_stream` serves that mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

from repro.sensors.trajectory import (
    TrajectoryGenerator,
    circle_trajectory,
    figure_eight_trajectory,
    straight_trajectory,
    warehouse_trajectory,
)


class ScenarioKind(str, Enum):
    """The four environments of Fig. 2."""

    INDOOR_UNKNOWN = "indoor_unknown"
    INDOOR_KNOWN = "indoor_known"
    OUTDOOR_UNKNOWN = "outdoor_unknown"
    OUTDOOR_KNOWN = "outdoor_known"

    @property
    def has_gps(self) -> bool:
        return self in (ScenarioKind.OUTDOOR_UNKNOWN, ScenarioKind.OUTDOOR_KNOWN)

    @property
    def has_map(self) -> bool:
        return self in (ScenarioKind.INDOOR_KNOWN, ScenarioKind.OUTDOOR_KNOWN)

    @property
    def is_indoor(self) -> bool:
        return self in (ScenarioKind.INDOOR_UNKNOWN, ScenarioKind.INDOOR_KNOWN)


# Indoor IMU degradation (Fig. 3a).  Indoor platforms fly close to structure:
# motor vibration, ground-effect turbulence and temperature transients degrade
# consumer-grade MEMS IMUs, which shows up mostly as bias instability (the
# white-noise floor grows modestly, the bias random walk grows by orders of
# magnitude).  This is what lets SLAM — which does not consume the IMU —
# overtake unaided VIO indoors, recovering the paper's Fig. 3a ordering.
INDOOR_IMU_NOISE_SCALE = 2.0
INDOOR_IMU_BIAS_SCALE = 1500.0


@dataclass
class OperatingScenario:
    """A concrete operating scenario: environment kind plus workload shape.

    ``imu_noise_scale`` and ``imu_bias_scale`` multiply the sensor config's
    IMU white-noise and bias-random-walk densities for sequences generated
    under this scenario; :data:`INDOOR_IMU_NOISE_SCALE` /
    :data:`INDOOR_IMU_BIAS_SCALE` are the indoor defaults.
    ``gps_outage_probability`` raises the per-fix dropout probability above
    the sensor config's baseline (used by the serving layer's scenario
    streams to inject GPS dropout bursts).
    """

    kind: ScenarioKind
    trajectory: TrajectoryGenerator
    duration: float = 30.0
    landmark_count: int = 400
    gps_outage_probability: float = 0.0
    imu_noise_scale: float = 1.0
    imu_bias_scale: float = 1.0
    description: str = ""

    @property
    def has_gps(self) -> bool:
        return self.kind.has_gps

    @property
    def has_map(self) -> bool:
        return self.kind.has_map

    @property
    def is_indoor(self) -> bool:
        return self.kind.is_indoor


def scenario_catalog(duration: float = 30.0, landmark_count: int = 400) -> Dict[ScenarioKind, OperatingScenario]:
    """The four canonical scenarios with workload shapes matching the paper.

    Indoor scenarios use drone-/robot-style trajectories (figure eight,
    warehouse sweep) and carry the indoor IMU degradation; outdoor scenarios
    use car-style road segments.
    """
    return {
        ScenarioKind.INDOOR_UNKNOWN: OperatingScenario(
            kind=ScenarioKind.INDOOR_UNKNOWN,
            trajectory=figure_eight_trajectory(scale=5.0, period=duration),
            duration=duration,
            landmark_count=landmark_count,
            imu_noise_scale=INDOOR_IMU_NOISE_SCALE,
            imu_bias_scale=INDOOR_IMU_BIAS_SCALE,
            description="Unmapped indoor flight (EuRoC-style machine hall)",
        ),
        ScenarioKind.INDOOR_KNOWN: OperatingScenario(
            kind=ScenarioKind.INDOOR_KNOWN,
            trajectory=warehouse_trajectory(aisle_length=15.0, speed=1.5),
            duration=duration,
            landmark_count=landmark_count,
            imu_noise_scale=INDOOR_IMU_NOISE_SCALE,
            imu_bias_scale=INDOOR_IMU_BIAS_SCALE,
            description="Pre-mapped warehouse traversal (logistics robot)",
        ),
        ScenarioKind.OUTDOOR_UNKNOWN: OperatingScenario(
            kind=ScenarioKind.OUTDOOR_UNKNOWN,
            trajectory=straight_trajectory(speed=6.0),
            duration=duration,
            landmark_count=landmark_count,
            description="Unmapped road segment (KITTI-style)",
        ),
        ScenarioKind.OUTDOOR_KNOWN: OperatingScenario(
            kind=ScenarioKind.OUTDOOR_KNOWN,
            trajectory=circle_trajectory(radius=20.0, period=duration * 2.0, height=1.5),
            duration=duration,
            landmark_count=landmark_count,
            description="Pre-mapped urban loop",
        ),
    }

