"""Integration tests for the unified localization framework (Fig. 4 dataflow)."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.baselines.cpu import CpuLatencyModel
from repro.common.config import LocalizerConfig
from repro.core.framework import EudoxusLocalizer
from repro.core.modes import BackendMode
from repro.core.result import PoseEstimate, TrajectoryResult
from repro.experiments.common import accelerator_for
from repro.experiments.runner import RunStore
from repro.frontend.frontend import FrontendSummary
from repro.sensors.scenarios import ScenarioKind
from repro.serving import ServingEngine, SessionResult, mixed_fleet, serving_key
from repro.serving.engine import scheduler_training_samples

# What a served session may pickle to, per frame.  Frame summaries put a
# session near 1 KB per frame; keeping each frame's observations would
# cost about 8 KB.
SESSION_BYTES_PER_FRAME = 2048


@pytest.fixture(scope="module")
def config():
    config = LocalizerConfig()
    config.frontend.max_features = 100
    return config


class TestFrameworkIntegration:
    def test_outdoor_uses_vio_and_is_accurate(self, outdoor_sequence, config):
        localizer = EudoxusLocalizer(config)
        result = localizer.process_sequence(outdoor_sequence)
        assert len(result) == len(outdoor_sequence)
        assert all(e.mode == "vio" for e in result.estimates)
        assert result.rmse_error() < 1.0

    def test_indoor_unmapped_uses_slam(self, indoor_sequence, config):
        localizer = EudoxusLocalizer(config)
        result = localizer.process_sequence(indoor_sequence)
        assert all(e.mode == "slam" for e in result.estimates)
        # Low-resolution fixture: require staying localized on the 5 m course.
        assert result.rmse_error() < 1.5

    def test_indoor_mapped_uses_registration(self, indoor_mapped_sequence, config):
        localizer = EudoxusLocalizer(config)
        result = localizer.process_sequence(indoor_mapped_sequence)
        assert all(e.mode == "registration" for e in result.estimates)
        assert result.rmse_error() < 0.5

    def test_mode_override(self, indoor_sequence, config):
        localizer = EudoxusLocalizer(config, mode_override=BackendMode.VIO)
        result = localizer.process_sequence(indoor_sequence)
        assert all(e.mode == "vio" for e in result.estimates)

    def test_registration_falls_back_to_slam_without_map(self, indoor_sequence, config):
        localizer = EudoxusLocalizer(config, mode_override=BackendMode.REGISTRATION)
        result = localizer.process_sequence(indoor_sequence)
        # No survey map exists for this sequence: the framework runs SLAM instead.
        assert all(e.mode == "slam" for e in result.estimates)

    def test_registration_fallback_is_reported(self, indoor_sequence, config):
        """Regression: the fallback path reports the mode that actually ran.

        The BackendResult must carry mode="slam" (not the requested
        registration) and record the requested mode in its diagnostics, so
        downstream per-mode aggregation attributes the frames correctly.
        """
        localizer = EudoxusLocalizer(config, mode_override=BackendMode.REGISTRATION)
        result = localizer.process_sequence(indoor_sequence)
        assert localizer.registration is None
        for backend_result in result.backend_results:
            assert backend_result.mode == "slam"
            assert backend_result.diagnostics["fallback_from"] == "registration"
        # The per-mode split sees only SLAM frames — no phantom registration bin.
        assert set(result.per_mode().keys()) == {"slam"}

    def test_no_fallback_marker_when_map_exists(self, indoor_mapped_sequence, config):
        localizer = EudoxusLocalizer(config, mode_override=BackendMode.REGISTRATION)
        result = localizer.process_sequence(indoor_mapped_sequence)
        for backend_result in result.backend_results:
            assert backend_result.mode == "registration"
            assert "fallback_from" not in backend_result.diagnostics

    def test_results_carry_workloads_and_latencies(self, outdoor_sequence, config):
        localizer = EudoxusLocalizer(config)
        result = localizer.process_sequence(outdoor_sequence)
        assert len(result.frontend_results) == len(result)
        assert len(result.backend_results) == len(result)
        assert len(result.latency_records) == len(result)
        record = result.latency_records[5]
        assert record.frontend_total > 0.0
        assert result.mean_feature_count() > 10

    def test_process_frame_requires_prepare(self, outdoor_sequence, config):
        localizer = EudoxusLocalizer(config)
        with pytest.raises(RuntimeError):
            localizer.process_frame(outdoor_sequence.frames[0], outdoor_sequence,
                                    TrajectoryResult())


class TestTrajectoryResult:
    def _result(self):
        result = TrajectoryResult()
        for i in range(10):
            pose = PoseEstimate(
                frame_index=i, timestamp=0.1 * i,
                pose=__import__("repro.common.geometry", fromlist=["Pose"]).Pose(
                    np.eye(3), np.array([float(i), 0.1, 0.0])
                ),
                mode="vio" if i % 2 == 0 else "slam",
                ground_truth=__import__("repro.common.geometry", fromlist=["Pose"]).Pose(
                    np.eye(3), np.array([float(i), 0.0, 0.0])
                ),
            )
            result.estimates.append(pose)
        return result

    def test_rmse(self):
        assert self._result().rmse_error() == pytest.approx(0.1)

    def test_skip_initial(self):
        assert self._result().rmse_error(skip_initial=5) == pytest.approx(0.1)

    def test_per_mode_split(self):
        by_mode = self._result().per_mode()
        assert set(by_mode) == {"vio", "slam"}
        assert len(by_mode["vio"]) == 5

    def test_empty_result(self):
        empty = TrajectoryResult()
        assert empty.rmse_error() == 0.0
        assert empty.relative_error_percent() == 0.0
        assert empty.mean_feature_count() == 0.0


class TestAccuracyOrdering:
    """The core Fig. 2/3 claim: each scenario prefers a different algorithm.

    Two of the paper's orderings are asserted here: VIO+GPS dominates SLAM
    outdoors, and registration against a survey map matches or beats
    drift-prone VIO in known indoor environments.  The third (SLAM beating
    unaided VIO indoors, Fig. 3a) needs a few seconds of indoor IMU
    degradation (see :mod:`repro.sensors.scenarios`) to manifest and is
    guarded at 6 s in ``tests/test_fig03_winners.py``.
    """

    def test_vio_with_gps_beats_slam_outdoors(self, outdoor_sequence, config):
        vio_error = EudoxusLocalizer(config, mode_override=BackendMode.VIO).process_sequence(
            outdoor_sequence).rmse_error()
        slam_error = EudoxusLocalizer(config, mode_override=BackendMode.SLAM).process_sequence(
            outdoor_sequence).rmse_error()
        assert vio_error < slam_error

    def test_registration_competitive_with_vio_indoors_with_map(self, indoor_mapped_sequence, config):
        registration_error = EudoxusLocalizer(config).process_sequence(
            indoor_mapped_sequence).rmse_error()
        vio_error = EudoxusLocalizer(config, mode_override=BackendMode.VIO).process_sequence(
            indoor_mapped_sequence).rmse_error()
        assert registration_error < vio_error + 0.1

    def test_slam_usable_without_gps_or_map(self, indoor_sequence, config):
        slam_error = EudoxusLocalizer(config, mode_override=BackendMode.SLAM).process_sequence(
            indoor_sequence).rmse_error()
        # Low-resolution fixture: SLAM must stay localized on the 5 m course
        # even though neither GPS nor a survey map is available.
        assert slam_error < 1.5


class TestFrontendSummaries:
    """A run keeps one :class:`FrontendSummary` per frame, and every reader
    of ``frontend_results`` gets the same answer from it as from the full
    :class:`~repro.frontend.frontend.FrontendResult`."""

    @pytest.fixture(scope="class",
                    params=["outdoor_sequence", "indoor_sequence", "indoor_mapped_sequence"])
    def runs(self, request, config):
        """One run's result, and the same result over the full frontend outputs."""
        sequence = request.getfixturevalue(request.param)
        localizer = EudoxusLocalizer(config)
        localizer.prepare(sequence)
        full = []
        process = localizer.frontend.process

        def keep(*args, **kwargs):
            full.append(process(*args, **kwargs))
            return full[-1]

        localizer.frontend.process = keep
        result = localizer.process_sequence(sequence, reset=False)
        return result, dataclasses.replace(result, frontend_results=full)

    def test_results_hold_summaries_of_the_frontend_outputs(self, runs):
        result, full = runs
        assert all(type(summary) is FrontendSummary for summary in result.frontend_results)
        assert result.frontend_results == [r.summary() for r in full.frontend_results]
        assert [summary.feature_count for summary in result.frontend_results] == \
            [r.track_ids.size for r in full.frontend_results]
        assert result.mean_feature_count() > 0

    def test_accelerate_is_unchanged(self, runs):
        result, full = runs
        expected = accelerator_for("car").accelerate(full)
        got = accelerator_for("car").accelerate(result)
        assert len(got.frames) == len(result) > 0
        assert [dataclasses.astuple(f) for f in got.frames] == \
            [dataclasses.astuple(f) for f in expected.frames]

    def test_cpu_records_are_unchanged(self, runs):
        result, full = runs
        model = CpuLatencyModel()
        assert model.records_from_results(result) == model.records_from_results(full)

    def test_per_mode_and_feature_count_are_unchanged(self, runs):
        result, full = runs
        assert result.mean_feature_count() == full.mean_feature_count()
        by_mode, full_by_mode = result.per_mode(), full.per_mode()
        assert set(by_mode) == set(full_by_mode)
        for mode, part in by_mode.items():
            assert part.frontend_results == \
                [r.summary() for r in full_by_mode[mode].frontend_results]
            assert part.mean_feature_count() == full_by_mode[mode].mean_feature_count()

    def test_scheduler_training_samples_are_unchanged(self, runs):
        result, full = runs
        accelerator = accelerator_for("car")
        samples = scheduler_training_samples(
            {"s": SessionResult("s", {}, trajectory=result)}, accelerator)
        expected = scheduler_training_samples(
            {"s": SessionResult("s", {}, trajectory=full)}, accelerator)
        assert samples and samples == expected

    def test_summary_is_read_only(self, runs):
        summary = runs[0].frontend_results[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            summary.feature_count = 0


class TestSessionResultFootprint:
    @pytest.fixture(scope="class")
    def served(self):
        fleet = mixed_fleet(3, segment_duration=1.0, camera_rate_hz=5.0)
        return fleet, ServingEngine(store=None).serve(fleet)

    def test_session_pickle_fits_the_per_frame_budget(self, served):
        _, report = served
        for result in report.results.values():
            size = len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
            assert result.frame_count > 0
            assert size <= SESSION_BYTES_PER_FRAME * result.frame_count, \
                (result.stream_id, size, result.frame_count)

    def test_run_store_round_trip_keeps_signature_and_summaries(self, served, tmp_path):
        fleet, report = served
        store = RunStore(tmp_path)
        for spec in fleet:
            result = report.results[spec.stream_id]
            key = serving_key(spec)
            assert store.save_key(key, result) is not None
            loaded = store.load_key(key, expect=SessionResult)
            assert loaded.signature() == result.signature()
            assert len(loaded.trajectory.frontend_results) == loaded.frame_count
            for summary in loaded.trajectory.frontend_results:
                assert type(summary) is FrontendSummary
                assert not hasattr(summary, "observations")
