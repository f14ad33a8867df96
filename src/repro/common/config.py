"""Configuration dataclasses shared across the Eudoxus reproduction.

Each subsystem exposes its own config object so examples, tests and benchmark
drivers can describe a full experiment declaratively.  Defaults follow the
paper's setup: 1280x720 inputs for the car platform, 640x480 for the drone
and an MSCKF window of 30 states.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FrontendConfig:
    """Configuration of the visual frontend (Sec. IV-A, frontend blocks)."""

    max_features: int = 150
    fast_threshold: float = 12.0
    orb_patch_size: int = 15
    orb_bits: int = 256
    stereo_max_hamming: int = 80
    stereo_block_size: int = 7
    stereo_max_disparity: float = 96.0
    min_disparity: float = 2.0
    assumed_pixel_noise: float = 0.3
    lk_window: int = 9
    lk_iterations: int = 10
    lk_max_error: float = 2.0
    grid_cells: int = 8

    def __post_init__(self) -> None:
        if self.max_features <= 0:
            raise ValueError("max_features must be positive")
        if self.orb_bits % 8 != 0:
            raise ValueError("orb_bits must be a multiple of 8")


@dataclass
class MSCKFConfig:
    """Configuration of the MSCKF filtering block (VIO mode)."""

    window_size: int = 30
    imu_gyro_noise: float = 2e-3
    imu_accel_noise: float = 2e-2
    imu_gyro_bias_noise: float = 1e-5
    imu_accel_bias_noise: float = 1e-4
    observation_noise: float = 1.0
    min_track_for_update: int = 3
    max_features_per_update: int = 40


@dataclass
class FusionConfig:
    """Configuration of the loosely-coupled GPS fusion EKF."""

    gps_position_noise: float = 0.5
    process_noise: float = 0.25
    gate_threshold: float = 40.0


@dataclass
class MappingConfig:
    """Configuration of the SLAM mapping block (bundle adjustment)."""

    window_size: int = 8
    max_iterations: int = 5
    initial_damping: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 0.3
    convergence_tolerance: float = 1e-5
    huber_delta: float = 2.0
    # Fleet platforms move 0.24-0.30 m per frame (10th-75th percentile at the
    # 5 Hz serving rate), so a spacing near one frame of motion runs window BA
    # on almost every SLAM frame.  0.6 m is about two frames: about half the
    # BA runs, with the Fig. 3 SLAM errors held (1.0 m cost accuracy).
    keyframe_translation: float = 0.6
    keyframe_rotation: float = 0.15


@dataclass
class TrackingConfig:
    """Configuration of the tracking/registration block."""

    pnp_iterations: int = 10
    pnp_inlier_threshold: float = 3.0
    min_inliers: int = 8
    # Survey-map quality per environment (Sec. II / Fig. 3d).  Indoor maps are
    # surveyed at close range with dense coverage; outdoor maps are
    # GNSS-georeferenced and built from long-range observations, so they carry
    # both larger per-point noise and a common datum bias that registration
    # cannot average away — which is why VIO+GPS wins outdoors even when a
    # map exists.
    survey_noise_indoor: float = 0.05
    survey_noise_outdoor: float = 0.30
    survey_bias_outdoor: float = 0.40
    # Frustum culling of the local map before the projection kernel: depth
    # window plus a margin on the camera's half-FOV (the lateral cone is
    # derived from the camera intrinsics at track time).
    cull_near_m: float = 0.2
    cull_far_m: float = 60.0
    cull_fov_margin: float = 1.2


@dataclass
class BackendConfig:
    """Aggregate configuration of the optimization backend."""

    msckf: MSCKFConfig = field(default_factory=MSCKFConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    mapping: MappingConfig = field(default_factory=MappingConfig)
    tracking: TrackingConfig = field(default_factory=TrackingConfig)


@dataclass
class SensorConfig:
    """Configuration of the simulated sensor rig."""

    image_width: int = 640
    image_height: int = 480
    horizontal_fov_deg: float = 90.0
    stereo_baseline: float = 0.25
    camera_rate_hz: float = 10.0
    imu_rate_hz: float = 100.0
    imu_gyro_noise: float = 1e-3
    imu_accel_noise: float = 1e-2
    imu_gyro_bias_walk: float = 1e-5
    imu_accel_bias_walk: float = 1e-4
    gps_noise_std: float = 0.3
    gps_outage_probability: float = 0.0
    pixel_noise_std: float = 0.25
    landmark_count: int = 400
    seed: int = 0


@dataclass
class LocalizerConfig:
    """Top-level configuration of the unified localization framework.

    One config each for the frontend, the backend and the simulated sensors.
    """

    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    sensors: SensorConfig = field(default_factory=SensorConfig)

    @classmethod
    def car_default(cls) -> "LocalizerConfig":
        """Configuration matching the EDX-CAR deployment (1280x720 inputs)."""
        config = cls()
        config.sensors.image_width = 1280
        config.sensors.image_height = 720
        config.sensors.stereo_baseline = 0.4
        config.frontend.max_features = 200
        return config

    @classmethod
    def drone_default(cls) -> "LocalizerConfig":
        """Configuration matching the EDX-DRONE deployment (640x480 inputs)."""
        config = cls()
        config.sensors.image_width = 640
        config.sensors.image_height = 480
        config.sensors.stereo_baseline = 0.2
        config.frontend.max_features = 120
        return config
