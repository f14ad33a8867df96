"""Shared fixtures: small synthetic sequences and rigs used across tests."""

import gc
import multiprocessing

import numpy as np
import pytest

from repro.common.camera import PinholeCamera, StereoRig
from repro.common.config import LocalizerConfig, SensorConfig
from repro.sensors.dataset import SequenceBuilder
from repro.sensors.scenarios import ScenarioKind, scenario_catalog


@pytest.fixture(scope="session", autouse=True)
def no_worker_outlives_the_session():
    """Every worker process a test forked is joined by the end of the run.

    A sharded engine keeps its workers until it is closed or dropped, and
    an idle worker holds tens of MB, so a leak here adds up over the suite.
    """
    yield
    gc.collect()
    leftover = multiprocessing.active_children()
    assert not leftover, f"worker processes outlived the test session: {leftover}"


@pytest.fixture(scope="session")
def small_sensor_config():
    """A light-weight sensor configuration for fast tests."""
    return SensorConfig(
        image_width=320,
        image_height=240,
        stereo_baseline=0.2,
        camera_rate_hz=10.0,
        landmark_count=150,
        seed=3,
    )


@pytest.fixture(scope="session")
def small_rig(small_sensor_config):
    camera = PinholeCamera.from_fov(
        small_sensor_config.image_width, small_sensor_config.image_height, 90.0
    )
    return StereoRig(camera=camera, baseline=small_sensor_config.stereo_baseline)


def _build(kind, config, duration=6.0, render=False):
    catalog = scenario_catalog(duration=duration, landmark_count=config.landmark_count)
    return SequenceBuilder(config, render_images=render).build(catalog[kind])


@pytest.fixture(scope="session")
def indoor_sequence(small_sensor_config):
    """An indoor (unknown environment) sequence: no GPS, no map."""
    return _build(ScenarioKind.INDOOR_UNKNOWN, small_sensor_config)


@pytest.fixture(scope="session")
def indoor_mapped_sequence(small_sensor_config):
    """An indoor sequence for which a survey map is available."""
    return _build(ScenarioKind.INDOOR_KNOWN, small_sensor_config)


@pytest.fixture(scope="session")
def outdoor_sequence(small_sensor_config):
    """An outdoor sequence with GPS."""
    return _build(ScenarioKind.OUTDOOR_UNKNOWN, small_sensor_config)


@pytest.fixture(scope="session")
def rendered_sequence():
    """A tiny sequence with rendered stereo images for dense-frontend tests."""
    config = SensorConfig(
        image_width=160,
        image_height=120,
        stereo_baseline=0.2,
        camera_rate_hz=5.0,
        landmark_count=60,
        pixel_noise_std=0.2,
        seed=7,
    )
    return _build(ScenarioKind.INDOOR_UNKNOWN, config, duration=2.0, render=True)


@pytest.fixture(scope="session")
def localizer_config():
    config = LocalizerConfig()
    config.frontend.max_features = 120
    return config


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
