#!/usr/bin/env python3
"""Drone indoor flight: SLAM mapping, map persistence and relocalization.

An aerial robot flies a figure-eight through an unmapped indoor space (no
GPS): the framework runs the SLAM backend, building a map while localizing.
The map is then persisted — the optional "persist map" path of Fig. 4 — and a
second flight through the same space relocalizes against it with the
registration backend, which is both more accurate and cheaper.

Run with:  python examples/drone_flight.py
"""

from repro.backend.registration import RegistrationBackend
from repro.backend.slam import SlamBackend
from repro.common.config import LocalizerConfig, SensorConfig
from repro.core.modes import BackendMode
from repro.core.framework import EudoxusLocalizer
from repro.frontend.frontend import VisualFrontend
from repro.metrics.trajectory import absolute_trajectory_error
from repro.sensors.dataset import SequenceBuilder
from repro.sensors.scenarios import ScenarioKind, scenario_catalog


def main() -> None:
    sensors = SensorConfig(camera_rate_hz=10.0, landmark_count=300, seed=5,
                           image_width=640, image_height=480, stereo_baseline=0.2)
    catalog = scenario_catalog(duration=15.0, landmark_count=300)
    first_flight = SequenceBuilder(sensors).build(catalog[ScenarioKind.INDOOR_UNKNOWN])

    # ---------------------------------------------------------- first flight
    print("First flight: unknown indoor space -> SLAM mode")
    config = LocalizerConfig.drone_default()
    localizer = EudoxusLocalizer(config, mode_override=BackendMode.SLAM)
    result = localizer.process_sequence(first_flight)
    print(f"  frames: {len(result)}   RMSE: {result.rmse_error():.3f} m")

    # Persist the map built by the SLAM backend (Fig. 4, "persist map").
    slam_backend: SlamBackend = localizer.slam
    persisted_map = slam_backend.persist_map()
    print(f"  persisted map: {len(persisted_map)} landmarks")

    # --------------------------------------------------------- second flight
    print("\nSecond flight through the now-mapped space -> registration mode")
    second_flight = SequenceBuilder(sensors).build(
        catalog[ScenarioKind.INDOOR_UNKNOWN], seed_offset=0
    )
    frontend = VisualFrontend(config=config.frontend, rig=second_flight.rig,
                              dropout_probability=0.0)
    registration = RegistrationBackend(persisted_map, config=config.backend.tracking,
                                       camera=second_flight.rig.camera)
    estimates, truths = [], []
    for frame in second_flight.frames:
        backend_result = registration.process(frontend.process(frame), frame)
        estimates.append(backend_result.pose)
        truths.append(frame.ground_truth)
    error = absolute_trajectory_error(estimates, truths)
    print(f"  frames: {len(estimates)}   RMSE against ground truth: {error:.3f} m")
    print("\nRelocalizing against the persisted map avoids re-mapping the space "
          "and is the workflow the registration mode of Eudoxus serves.")


if __name__ == "__main__":
    main()
