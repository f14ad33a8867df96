"""Integration tests for the experiment drivers (one per paper table/figure).

These use short sequences so the whole suite stays fast; the benchmark
harness runs the same drivers with longer characterizations.
"""

import numpy as np
import pytest

from repro.core.modes import BackendMode
from repro.experiments import common
from repro.experiments.fig03_accuracy import accuracy_vs_framerate, best_algorithm_per_scenario
from repro.experiments.fig05_08_characterization import (
    backend_breakdown_by_mode,
    dominant_backend_kernel,
    frontend_backend_by_mode,
)
from repro.experiments.fig09_11_variation import dominant_variation_kernel, variation_by_mode
from repro.experiments.fig16_scaling import fit_quality, kernel_scaling_curves, measured_kalman_gain_curve
from repro.experiments.fig17_21_acceleration import acceleration_report, backend_report, frontend_report
from repro.experiments.sec7f_scheduler import scheduler_report
from repro.experiments.table1_blocks import building_block_matrix, expected_matrix, matches_paper
from repro.experiments.table2_resources import both_platform_reports, resource_report
from repro.experiments.table3_platforms import platform_speedups
from repro.sensors.scenarios import ScenarioKind

DURATION = 6.0


@pytest.fixture(scope="module", autouse=True)
def _shared_cache():
    """Warm the run cache once for all experiment tests in this module."""
    common.all_mode_runs("car", duration=DURATION)
    yield


class TestCommonInfrastructure:
    def test_platform_lookup(self):
        assert common.platform_for("car").name == "EDX-CAR"
        assert common.platform_for("drone").name == "EDX-DRONE"
        with pytest.raises(ValueError):
            common.platform_for("boat")

    def test_characterization_run_cached(self):
        cell = common.characterization_cell(BackendMode.VIO, "car", duration=DURATION)
        first = common.default_runner().run_cell(cell)
        second = common.default_runner().run_cell(cell)
        assert first is second

    def test_baseline_records_match_length(self):
        cell = common.characterization_cell(BackendMode.VIO, "car", duration=DURATION)
        run = common.default_runner().run_cell(cell)
        records = common.baseline_records(run, "car")
        assert len(records) == len(run)


class TestTable1:
    def test_measured_matches_paper(self):
        assert all(matches_paper().values())

    def test_matrix_structure(self):
        measured = building_block_matrix()
        expected = expected_matrix()
        assert set(measured) == set(expected) == {"projection", "kalman_gain", "marginalization"}
        # Projection uses only multiplication in the paper's table.
        assert expected["projection"]["matrix_multiplication"]
        assert not expected["projection"]["matrix_inverse"]


class TestCharacterizationExperiments:
    def test_frontend_dominates_all_modes(self):
        report = frontend_backend_by_mode("car", duration=DURATION)
        for mode, shares in report.items():
            assert shares["frontend"]["share_percent"] > 50.0

    def test_backend_rsd_exceeds_frontend(self):
        report = frontend_backend_by_mode("car", duration=DURATION)
        for shares in report.values():
            assert shares["backend"]["rsd_percent"] >= shares["frontend"]["rsd_percent"]

    def test_dominant_kernels_match_paper(self):
        dominant = dominant_backend_kernel("car", duration=DURATION)
        assert dominant["registration"] == "projection"
        assert dominant["vio"] == "kalman_gain"
        assert dominant["slam"] in ("solver", "marginalization")

    def test_breakdowns_are_percentages(self):
        for kernels in backend_breakdown_by_mode("car", duration=DURATION).values():
            assert sum(kernels.values()) == pytest.approx(100.0, abs=0.5)

    def test_variation_report(self):
        report = variation_by_mode("car", duration=DURATION)
        for mode, data in report.items():
            assert data["worst_to_best_ratio"] > 1.0
            assert len(data["frontend_series_ms"]) == len(data["backend_series_ms"])

    def test_dominant_variation_kernels(self):
        dominant = dominant_variation_kernel("car", duration=DURATION)
        assert dominant["registration"] in ("projection", "update", "match", "pose_optimization")
        assert dominant["slam"] in ("marginalization", "solver")


class TestScalingExperiments:
    def test_projection_linear_kalman_quadratic(self):
        curves = kernel_scaling_curves()
        assert fit_quality(curves["projection"], degree=1) > 0.99
        assert fit_quality(curves["kalman_gain"], degree=2) > 0.95
        assert fit_quality(curves["marginalization"], degree=2) > 0.95

    def test_curves_monotonic(self):
        for rows in kernel_scaling_curves().values():
            latencies = [row["latency_ms"] for row in rows]
            assert all(b >= a for a, b in zip(latencies, latencies[1:]))

    def test_measured_kalman_curve_increases(self):
        rows = measured_kalman_gain_curve(feature_points=(5, 15, 30), repeats=1)
        assert rows[-1]["latency_ms"] > rows[0]["latency_ms"]


class TestResourceExperiments:
    def test_report_structure(self):
        report = resource_report("car")
        assert report["shared_fits"]
        assert not report["no_sharing_fits"]
        assert report["frontend_share_of_lut"] > 0.5
        assert report["memory_plan_mb"]["stencil_buffer_unoptimized_mb"] > report["memory_plan_mb"]["stencil_buffer_mb"]

    def test_both_platforms(self):
        reports = both_platform_reports()
        assert reports["car"]["shared"]["lut"] > reports["drone"]["shared"]["lut"]


class TestAccelerationExperiments:
    def test_overall_speedup(self):
        report = acceleration_report("car", duration=DURATION)
        assert 1.5 < report["overall"]["speedup"] < 3.5
        for mode in ("registration", "vio", "slam"):
            assert report[mode]["speedup"] > 1.2
            assert report[mode]["sd_reduction_percent"] > 0.0
            assert report[mode]["energy_reduction_percent"] > 20.0

    def test_throughput_ordering(self):
        report = acceleration_report("car", duration=DURATION)
        overall = report["overall"]
        assert overall["eudoxus_fps_pipelined"] >= overall["eudoxus_fps_no_pipelining"]
        assert overall["eudoxus_fps_no_pipelining"] > overall["baseline_fps"]

    def test_frontend_report(self):
        report = frontend_report("car", duration=DURATION)
        assert report["frontend_speedup"] > 1.5
        assert report["stereo_matching_ms"] > report["temporal_matching_ms"]
        assert report["eudoxus_frontend_fps_pipelined"] > report["eudoxus_frontend_fps_no_pipelining"]

    def test_backend_report(self):
        report = backend_report("car", duration=DURATION)
        for mode, data in report.items():
            assert data["kernel_speedup"] > 1.0
            assert data["backend_latency_reduction_percent"] > 0.0


class TestSchedulerExperiment:
    def test_r2_and_gap(self):
        report = scheduler_report("car", duration=DURATION)
        for mode, data in report.items():
            assert data["training_r2"] > 0.7
            assert data["gap_to_oracle_percent"] < 15.0
            assert 0.0 <= data["offload_fraction"] <= 1.0


class TestTable3:
    def test_platform_ordering(self):
        report = platform_speedups("car", duration=DURATION)
        # The paper's own baseline (multi-core, no ROS) shows the smallest speedup.
        assert report["multi_core"]["speedup_over_platform"] <= report["multi_core_ros"]["speedup_over_platform"]
        assert report["multi_core"]["speedup_over_platform"] <= report["single_core"]["speedup_over_platform"]
        assert report["adreno_gpu"]["speedup_over_platform"] >= report["multi_core"]["speedup_over_platform"]
        assert report["multi_core"]["speedup_over_platform"] > 1.3


class TestFig3Accuracy:
    def test_scenario_preferences(self):
        report = accuracy_vs_framerate(
            frame_rates=(10.0,), duration=8.0, platform_kind="drone",
            scenarios=(ScenarioKind.INDOOR_KNOWN, ScenarioKind.OUTDOOR_UNKNOWN),
            landmark_count=200,
        )
        best = best_algorithm_per_scenario(report)
        assert best[ScenarioKind.INDOOR_KNOWN.value] in ("registration", "slam")
        assert best[ScenarioKind.OUTDOOR_UNKNOWN.value] == "vio"
        # Registration is never evaluated without a map.
        algorithms = {row["algorithm"] for row in report[ScenarioKind.OUTDOOR_UNKNOWN.value]}
        assert "registration" not in algorithms
