"""Sensor and environment simulation.

The paper evaluates on a mix of KITTI, EuRoC and proprietary in-house
sequences collected from commercial vehicles.  Those datasets are not
available offline, so this subpackage provides a synthetic substitute: a
ground-truth trajectory generator, a 3-D landmark world, a stereo camera
image renderer, an IMU model with bias random walks, and a GPS model with
indoor outages.  The four operating scenarios of Fig. 2 (indoor/outdoor
crossed with map/no-map) are expressed through :mod:`repro.sensors.scenarios`.
"""

from repro.sensors.trajectory import (
    TrajectoryGenerator,
    circle_trajectory,
    figure_eight_trajectory,
    straight_trajectory,
    warehouse_trajectory,
)
from repro.sensors.world import LandmarkWorld
from repro.sensors.imu import ImuSimulator
from repro.sensors.gps import GpsSimulator, GpsSample
from repro.sensors.dataset import Frame, SyntheticSequence, SequenceBuilder
from repro.sensors.scenarios import (
    OperatingScenario,
    ScenarioKind,
    scenario_catalog,
)

__all__ = [
    "TrajectoryGenerator",
    "circle_trajectory",
    "figure_eight_trajectory",
    "straight_trajectory",
    "warehouse_trajectory",
    "LandmarkWorld",
    "ImuSimulator",
    "GpsSimulator",
    "GpsSample",
    "Frame",
    "SyntheticSequence",
    "SequenceBuilder",
    "OperatingScenario",
    "ScenarioKind",
    "scenario_catalog",
]
