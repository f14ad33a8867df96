"""Tests for latency records/statistics and configuration dataclasses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    BackendConfig,
    FrontendConfig,
    LocalizerConfig,
    MSCKFConfig,
)
from repro.common.timing import (
    KernelTiming,
    LatencyRecord,
    StopwatchCollector,
    TimingStats,
)
from repro.characterization.stats import frontend_backend_shares


class TestLatencyRecord:
    def test_totals(self):
        record = LatencyRecord(frame_index=0)
        record.add_frontend("feature_extraction", 10.0)
        record.add_frontend("stereo_matching", 20.0)
        record.add_backend("kalman_gain", 5.0)
        assert record.frontend_total == 30.0
        assert record.backend_total == 5.0
        assert record.total == 35.0

    def test_add_accumulates(self):
        record = LatencyRecord(frame_index=0)
        record.add_backend("solver", 3.0)
        record.add_backend("solver", 2.0)
        assert record.backend["solver"] == 5.0

    def test_kernel_lookup(self):
        record = LatencyRecord(frame_index=0)
        record.add_frontend("feature_extraction", 1.0)
        record.add_backend("projection", 2.0)
        assert record.kernel("feature_extraction") == 1.0
        assert record.kernel("projection") == 2.0
        assert record.kernel("missing") == 0.0

    def test_scaled(self):
        record = LatencyRecord(frame_index=0)
        record.add_frontend("a", 10.0)
        record.add_backend("b", 4.0)
        scaled = record.scaled(frontend_factor=0.5, backend_factor=2.0)
        assert scaled.frontend_total == 5.0
        assert scaled.backend_total == 8.0


class TestTimingStats:
    def test_basic_statistics(self):
        stats = TimingStats([10.0, 20.0, 30.0])
        assert stats.mean == 20.0
        assert stats.minimum == 10.0
        assert stats.maximum == 30.0
        assert stats.count == 3

    def test_rsd(self):
        stats = TimingStats([10.0, 10.0, 10.0])
        assert stats.rsd == 0.0
        varied = TimingStats([5.0, 15.0])
        assert varied.rsd > 0.0

    def test_worst_to_best_ratio(self):
        stats = TimingStats([10.0, 40.0])
        assert np.isclose(stats.worst_to_best_ratio, 4.0)

    def test_empty(self):
        stats = TimingStats([])
        assert stats.mean == 0.0
        assert stats.rsd == 0.0

    def test_percentile(self):
        stats = TimingStats(list(range(101)))
        assert np.isclose(stats.percentile(50), 50.0)

    @given(st.lists(st.floats(min_value=0.1, max_value=1000.0), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_mean_bounded_by_min_max(self, values):
        stats = TimingStats(values)
        assert stats.minimum - 1e-9 <= stats.mean <= stats.maximum + 1e-9


class TestStopwatch:
    def test_measure_accumulates(self):
        collector = StopwatchCollector()
        with collector.measure("section"):
            sum(range(1000))
        with collector.measure("section"):
            sum(range(1000))
        assert collector.as_dict()["section"] >= 0.0
        assert len(collector.timings) == 2
        collector.reset()
        assert collector.total() == 0.0


class TestRecordAggregation:
    def _records(self):
        records = []
        for i in range(4):
            record = LatencyRecord(frame_index=i)
            record.add_frontend("fe", 10.0 + i)
            record.add_backend("kernel", 2.0 * i)
            records.append(record)
        return records

    def test_total_stats(self):
        stats = TimingStats(record.total for record in self._records())
        assert stats.count == 4
        assert stats.maximum > stats.minimum

    def test_frontend_backend_split(self):
        split = frontend_backend_shares(self._records())
        assert split["frontend"]["mean_ms"] > split["backend"]["mean_ms"]


class TestConfigs:
    def test_frontend_config_validation(self):
        with pytest.raises(ValueError):
            FrontendConfig(max_features=0)
        with pytest.raises(ValueError):
            FrontendConfig(orb_bits=100)

    def test_localizer_presets(self):
        car = LocalizerConfig.car_default()
        drone = LocalizerConfig.drone_default()
        assert car.sensors.image_width > drone.sensors.image_width
        assert car.frontend.max_features >= drone.frontend.max_features

    def test_backend_config_defaults(self):
        config = BackendConfig()
        assert config.msckf.window_size == 30
        assert config.mapping.window_size > 1

    def test_msckf_config_fields(self):
        config = MSCKFConfig(window_size=10)
        assert config.window_size == 10
        assert config.observation_noise > 0
