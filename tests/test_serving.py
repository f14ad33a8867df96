"""Serving layer: streams, online mode switching, engine determinism.

The load-bearing guarantees pinned here:

* N concurrent sessions multiplexed by the arrival-time streaming event
  loop (with or without autoscaled capacity) produce bit-identical
  trajectories and mode switches to the same sessions each run straight
  through (:func:`run_session`, the reference);
* the incremental frame iterator reproduces the materialized frame grid
  exactly — no dropped or duplicated frames at segment transitions;
* a congested schedule delays frames but never drops or reorders them;
* mode switches fire at the injected transition frames (exactly at map
  entry/exit, within the hysteresis window of GPS loss/reacquisition);
* session results round-trip through the persistent run store;
* served telemetry trains the runtime offload scheduler (batch after the
  fact, and online per served frame).
"""

import numpy as np
import pytest

from repro.experiments.common import accelerator_for
from repro.experiments.runner import RunStore, sensor_config_for
from repro.obs.slo import SLOTarget, SLOTracker
from repro.obs.trace import quantize_us
from repro.scheduler import LatencyAutoscaler
from repro.sensors.dataset import segment_frame_count
from repro.sensors.scenarios import ScenarioKind
from repro.serving import (
    ModeSwitchPolicy,
    ScenarioStream,
    ServingEngine,
    Session,
    StreamSegment,
    ServingReport,
    StreamSpec,
    frame_records,
    mixed_deployment_stream,
    mixed_fleet,
    random_stream,
    replay_schedule,
    run_session,
    serving_key,
)
from repro.serving.engine import (
    _Lane,
    scheduler_training_samples,
    train_offload_scheduler,
)

SEGMENT = 2.0
RATE = 5.0
FRAMES_PER_SEGMENT = int(SEGMENT * RATE)  # 10


def _sensor_config(spec):
    return sensor_config_for(spec.platform_kind, spec.camera_rate_hz, spec.seed)


def _spec(stream_id, kinds_and_events, seed=0):
    segments = tuple(
        StreamSegment(kind=kind, duration=SEGMENT, gps_outage_probability=outage)
        for kind, outage in kinds_and_events
    )
    return StreamSpec(stream_id=stream_id, segments=segments,
                      camera_rate_hz=RATE, landmark_count=120, seed=seed)


class TestStreams:
    def test_spec_payload_roundtrip(self):
        spec = random_stream("client-7", seed=13, segment_count=5)
        assert StreamSpec.from_payload(spec.payload()) == spec

    def test_mixed_fleet_distinct_and_mixed(self):
        fleet = mixed_fleet(8, segment_duration=1.0)
        assert len({spec.stream_id for spec in fleet}) == 8
        assert len({spec.seed for spec in fleet}) == 8
        # Phase rotation: the fleet does not start in lockstep.
        assert len({spec.segments[0].kind for spec in fleet}) > 1
        # Every session is the 50/25/25 mix over the four environments.
        for spec in fleet:
            kinds = {segment.kind for segment in spec.segments}
            assert kinds == set(ScenarioKind)

    def test_mixed_stream_contains_dropout_event(self):
        spec = mixed_deployment_stream("client-0", segment_duration=1.0)
        assert any(segment.gps_outage_probability >= 1.0 for segment in spec.segments)

    def test_stream_frame_count(self):
        spec = _spec("c", [(ScenarioKind.OUTDOOR_UNKNOWN, 0.0),
                           (ScenarioKind.INDOOR_UNKNOWN, 0.0)])
        assert spec.frame_count == 2 * FRAMES_PER_SEGMENT

    def test_payload_serializes_floats_exactly(self):
        """Shard workers rebuild specs from payloads — no quantization.

        A duration that differs from a round value only past the sixth
        decimal must survive the payload round-trip bit-for-bit; otherwise
        a process shard would serve a different segment than an in-process
        one and distinct specs would collide onto one cache key.
        """
        awkward = StreamSpec(
            stream_id="exact",
            segments=(StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, 0.5000001),),
            camera_rate_hz=RATE, landmark_count=100, seed=1,
            deadline_ms=123.4567890123,
        )
        rebuilt = StreamSpec.from_payload(awkward.payload())
        assert rebuilt == awkward
        assert rebuilt.frame_count == awkward.frame_count
        plain = StreamSpec(
            stream_id="exact",
            segments=(StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, 0.5),),
            camera_rate_hz=RATE, landmark_count=100, seed=1,
        )
        assert serving_key(awkward) != serving_key(plain)

    def test_deadline_roundtrips_and_defaults_to_none(self):
        spec = mixed_deployment_stream("qos", deadline_ms=250.0)
        assert StreamSpec.from_payload(spec.payload()).deadline_ms == 250.0
        assert random_stream("best-effort").deadline_ms is None
        fleet = mixed_fleet(2, segment_duration=1.0, deadline_ms=100.0)
        assert all(s.deadline_ms == 100.0 for s in fleet)


class TestStreamBoundaryExactness:
    """The incremental iterator's frame grid is exact at segment boundaries.

    Segment pacing quantizes each segment to ``round(duration * rate)``
    frames (floored at 2) on the fixed 30 s trajectory timescale; these
    tests pin that the quantization never drops or duplicates a frame at a
    transition — the stream is one contiguous, uniformly spaced grid whose
    length is exactly ``spec.frame_count`` — and that the iterator's view
    is frame-for-frame identical to what a served session records.
    """

    # Durations chosen to stress the quantization: 0.5 s and 0.7 s at 5 Hz
    # are 2.5 and 3.5 nominal frames (banker's rounding: 2 and 4), 0.3 s
    # hits the 2-frame floor.
    AWKWARD = (0.5, 0.7, 2.0, 0.3, 1.0)

    def _awkward_spec(self):
        kinds = list(ScenarioKind)
        segments = tuple(
            StreamSegment(kind=kinds[i % len(kinds)], duration=duration)
            for i, duration in enumerate(self.AWKWARD)
        )
        return StreamSpec(stream_id="awkward", segments=segments,
                          camera_rate_hz=RATE, landmark_count=100, seed=3)

    def _frames(self, stream):
        """``(frame, segment_index)`` of every frame, in stream order."""
        return [(frame, index) for index, sequence in stream.segments()
                for frame in sequence.frames]

    def test_iterator_grid_is_contiguous_and_uniform(self):
        spec = self._awkward_spec()
        stream = ScenarioStream(spec, _sensor_config(spec))
        frames = self._frames(stream)
        assert len(frames) == spec.frame_count
        indices = [frame.index for frame, _ in frames]
        assert indices == list(range(spec.frame_count))
        times = np.array([frame.timestamp for frame, _ in frames])
        np.testing.assert_allclose(np.diff(times), 1.0 / RATE, atol=1e-9)
        # The schedule's records carry the built frames' own timestamps,
        # bit for bit, without building a segment.
        records = frame_records(spec)
        assert [(t, i) for t, _, i in records] == \
            [(frame.timestamp, index) for frame, index in frames]
        arrivals = np.array([arrival for _, arrival, _ in records])
        np.testing.assert_array_equal(arrivals, [quantize_us(t) for t in times])
        np.testing.assert_array_equal(np.diff(arrivals), 200_000)

    def test_segment_counts_match_quantization(self):
        spec = self._awkward_spec()
        stream = ScenarioStream(spec, _sensor_config(spec))
        per_segment = {}
        for _, index in self._frames(stream):
            per_segment[index] = per_segment.get(index, 0) + 1
        assert per_segment == {
            i: segment_frame_count(duration, RATE)
            for i, duration in enumerate(self.AWKWARD)
        }

    def test_iterator_matches_served_session_frame_for_frame(self):
        """No off-by-one between the arrival view and the served trajectory."""
        spec = self._awkward_spec()
        stream = ScenarioStream(spec, _sensor_config(spec))
        iterated = [(frame.index, frame.timestamp, index)
                    for frame, index in self._frames(stream)]
        result = run_session(spec)
        served = [(e.frame_index, e.timestamp) for e in result.trajectory.estimates]
        assert [(i, t) for i, t, _ in iterated] == served
        # Segment starts land exactly where the iterator changes segments.
        boundaries = [iterated[k][0] for k in range(len(iterated))
                      if k == 0 or iterated[k][2] != iterated[k - 1][2]]
        assert result.segment_starts == boundaries

    def test_segments_are_built_lazily(self, monkeypatch):
        """A segment is built only when the stream reaches it, and once."""
        spec = self._awkward_spec()
        built = []
        original = ScenarioStream.build_segment

        def counting_build(self, index, start_time=0.0, start_index=0):
            built.append(index)
            return original(self, index, start_time=start_time,
                           start_index=start_index)

        monkeypatch.setattr(ScenarioStream, "build_segment", counting_build)
        session = Session(spec)
        index, _ = next(session.stream.segments())
        assert index == 0
        assert built == [0]
        built.clear()
        session.run()
        assert built == list(range(len(spec.segments)))


class TestModeSwitchPolicy:
    def test_warm_start_trusts_first_fix(self):
        policy = ModeSwitchPolicy()
        assert policy.observe(True) is True
        policy.reset()
        assert policy.observe(False) is False

    def test_hysteresis(self):
        policy = ModeSwitchPolicy(acquire_frames=2, lose_frames=3)
        policy.observe(True)
        # A single multipath dropout must not flip the mode.
        assert policy.observe(False) is True
        assert policy.observe(True) is True
        # Three consecutive misses do.
        assert [policy.observe(False) for _ in range(3)] == [True, True, False]
        # Two consecutive fixes re-acquire.
        assert [policy.observe(True) for _ in range(2)] == [False, True]


class TestOnlineModeSwitching:
    def test_switches_fire_at_injected_transitions(self):
        spec = _spec("transitions", [
            (ScenarioKind.OUTDOOR_UNKNOWN, 0.0),   # frames 0-9: GPS -> VIO
            (ScenarioKind.INDOOR_UNKNOWN, 0.0),    # frames 10-19: no GPS, no map
            (ScenarioKind.INDOOR_KNOWN, 0.0),      # frames 20-29: map entry
            (ScenarioKind.OUTDOOR_KNOWN, 0.0),     # frames 30-39: GPS back
        ])
        result = run_session(spec)
        events = [(s.frame_index, s.to_mode, s.reason) for s in result.mode_switches]
        assert events[0] == (0, "vio", "startup")
        # GPS loss is declared after lose_frames consecutive missing fixes.
        assert events[1] == (10 + 2, "slam", "gps_lost")
        # Map availability switches without hysteresis: exactly at the boundary.
        assert events[2] == (20, "registration", "map_entry")
        # Reacquisition after acquire_frames consecutive fixes.
        assert events[3] == (30 + 1, "vio", "gps_reacquired")
        assert len(events) == 4
        assert result.segment_starts == [0, 10, 20, 30]

    def test_dropout_burst_and_reacquisition(self):
        spec = _spec("dropout", [
            (ScenarioKind.OUTDOOR_KNOWN, 0.0),
            (ScenarioKind.OUTDOOR_KNOWN, 1.0),     # full outage burst
            (ScenarioKind.OUTDOOR_KNOWN, 0.0),
        ])
        result = run_session(spec)
        events = [(s.frame_index, s.to_mode, s.reason) for s in result.mode_switches]
        # With a survey map on board, GPS loss falls back to registration,
        # not SLAM (Fig. 2), and the client reacquires VIO afterwards.
        assert (10 + 2, "registration", "gps_lost") in events
        assert (20 + 1, "vio", "gps_reacquired") in events

    def test_modes_executed_match_policy(self):
        spec = _spec("modes", [(ScenarioKind.OUTDOOR_UNKNOWN, 0.0),
                               (ScenarioKind.INDOOR_UNKNOWN, 0.0)])
        result = run_session(spec)
        modes = [estimate.mode for estimate in result.trajectory.estimates]
        assert modes[:10] == ["vio"] * 10
        # After the dropout is declared (3-frame hysteresis) SLAM serves.
        assert modes[13:] == ["slam"] * 7

    def test_session_stays_localized_through_switches(self):
        result = run_session(mixed_deployment_stream("acc", segment_duration=SEGMENT,
                                                     camera_rate_hz=RATE))
        assert result.trajectory.rmse_error() < 2.0


class TestServingDeterminism:
    @pytest.fixture(scope="class")
    def fleet(self):
        return mixed_fleet(4, segment_duration=SEGMENT, camera_rate_hz=RATE)

    @pytest.fixture(scope="class")
    def serial_report(self, fleet):
        return ServingEngine(store=None).serve(fleet)

    def test_serial_event_loop_multiplexes(self, serial_report):
        assert serial_report.session_count == 4
        # All sessions share a frame rate, so every tick batches the fleet.
        assert serial_report.mean_batch_size > 1.0

    def test_interleaved_bit_identical_to_isolated(self, fleet, serial_report):
        """The event loop's interleaving cannot leak state across sessions:
        every session equals the same spec run straight through."""
        assert serial_report.session_count == len(fleet)
        for spec in fleet:
            isolated = run_session(spec)
            served = serial_report.results[spec.stream_id]
            assert served.signature() == isolated.signature()
            # Signature equality is backed by exact pose equality.
            for a, b in zip(isolated.trajectory.estimates,
                            served.trajectory.estimates):
                np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
                np.testing.assert_array_equal(a.pose.translation, b.pose.translation)
                assert a.mode == b.mode
            assert ([(s.frame_index, s.to_mode, s.reason) for s in isolated.mode_switches]
                    == [(s.frame_index, s.to_mode, s.reason) for s in served.mode_switches])

    def test_signature_ignores_wall_time_telemetry(self, serial_report):
        result = next(iter(serial_report.results.values()))
        signature = result.signature()
        result.frame_wall_ms[0] += 123.0
        assert result.signature() == signature

    def test_exhausted_stream_yields_an_empty_result(self):
        """A zero-segment stream yields an empty result, as run_session does."""
        fleet = [StreamSpec(stream_id="empty", segments=(), camera_rate_hz=RATE),
                 _spec("real", [(ScenarioKind.OUTDOOR_UNKNOWN, 0.0)])]
        report = ServingEngine(store=None).serve(fleet)
        assert report.session_count == 2
        assert report.results["empty"].frame_count == 0
        assert (report.results["empty"].signature()
                == run_session(fleet[0]).signature())


class TestStreamingIngestion:
    """The arrival-time event loop: admission, latency, determinism."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return mixed_fleet(3, segment_duration=1.0, camera_rate_hz=RATE,
                           deadline_ms=300.0)

    @pytest.fixture(scope="class")
    def isolated(self, fleet):
        return {spec.stream_id: run_session(spec) for spec in fleet}

    def test_streaming_identical_to_run_session(self, fleet, isolated):
        streaming = ServingEngine(store=None).serve(fleet)
        for stream_id, expected in isolated.items():
            assert streaming.results[stream_id].signature() == expected.signature()

    def test_streaming_under_autoscaled_capacity_identical(self, fleet, isolated):
        """Throttled capacity reshuffles *when* frames are served, never what."""
        autoscaler = LatencyAutoscaler(min_workers=1, max_workers=4, window=32,
                                       grow_patience=2, shrink_patience=4,
                                       cooldown=2)
        engine = ServingEngine(store=None, autoscaler=autoscaler,
                               frames_per_worker_tick=1)
        report = engine.serve(fleet)
        for stream_id, expected in isolated.items():
            assert report.results[stream_id].signature() == expected.signature()
        # Under-provisioned start: a backlog formed and latency was measured.
        assert report.virtual_latency_percentile(95.0) > 0.0
        assert report.scale_decisions, "every tick logs a decision"
        assert any(d.action == "grow" for d in report.scale_decisions)
        assert report.final_workers > 1

    def test_unthrottled_streaming_serves_on_arrival(self, fleet):
        """Without an autoscaler nothing queues: zero serving latency."""
        report = ServingEngine(store=None).serve(fleet)
        assert report.ticks > 0
        assert report.virtual_latency_percentile(95.0) == 0.0
        assert report.deadline_misses == 0
        assert report.mean_batch_size > 1.0
        assert report.workers == report.final_workers == 1

    def test_legacy_max_workers_warns_and_changes_nothing(self, fleet):
        """``max_workers`` sized a process pool the engine no longer has."""
        with pytest.warns(DeprecationWarning, match="max_workers"):
            legacy = ServingEngine(store=None, max_workers=8)
        report = legacy.serve(fleet)
        plain = ServingEngine(store=None).serve(fleet)
        assert report.signature() == plain.signature()
        assert report.virtual_latency_ms == plain.virtual_latency_ms
        assert report.workers == 1

    def test_ingest_admits_exactly_at_arrival(self):
        """Admission compares whole microseconds, with no tolerance.

        At frame 8's ``arrival_us`` frames 0..8 have all arrived; one
        microsecond earlier, frame 8 has not.
        """
        spec = _spec("exact", [(ScenarioKind.OUTDOOR_UNKNOWN, 0.0)])
        records = frame_records(spec)
        on_time, early = _Lane(spec, records), _Lane(spec, records)
        on_time.ingest(records[8][1])
        early.ingest(records[8][1] - 1)
        assert (on_time.arrived, early.arrived) == (9, 8)

    def test_backpressure_delays_but_never_drops(self, fleet):
        """A pinned single worker serves every frame once, in stream
        order: congestion shows up as latency, not as lost frames."""
        report = ServingReport()
        served = []
        finished, _ = replay_schedule(
            fleet, report,
            autoscaler=LatencyAutoscaler(min_workers=1, max_workers=1),
            frames_per_worker_tick=1, sizing_maps=None,
            on_serve=lambda stream_id, index, *_: served.append((stream_id, index)))
        assert sorted(finished) == sorted(spec.stream_id for spec in fleet)
        for spec in fleet:
            indices = [index for stream_id, index in served if stream_id == spec.stream_id]
            assert indices == list(range(spec.frame_count))
        assert max(report.virtual_latency_ms) > 0.0

    def test_online_scheduler_feed(self, fleet):
        accelerator = accelerator_for("drone")
        engine = ServingEngine(store=None, accelerator=accelerator)
        report = engine.serve(fleet)
        served_modes = {estimate.mode for result in report.results.values()
                        for estimate in result.trajectory.estimates}
        for mode in served_modes:
            assert accelerator.scheduler.observation_count(mode) > 0
        total = sum(accelerator.scheduler.observation_count(m) for m in served_modes)
        assert total == report.frame_count

    def test_streaming_empty_stream(self):
        fleet = [StreamSpec(stream_id="empty", segments=(), camera_rate_hz=RATE)]
        report = ServingEngine(store=None).serve(
            fleet)
        assert report.results["empty"].frame_count == 0


class TestServingAccounting:
    """Deadline-miss accounting and decision-clock continuity.

    ``deadline_misses`` has one definition — virtual-schedule violations,
    counted at a single accounting point — and these tests pin it.
    """

    @pytest.fixture(scope="class")
    def fleet(self):
        return mixed_fleet(3, segment_duration=1.0, camera_rate_hz=RATE,
                           deadline_ms=300.0)

    def test_throttled_misses_match_recorded_latencies(self, fleet):
        """The counter is exactly the over-deadline latency samples.

        A starved streaming loop queues frames past the uniform 300 ms
        deadline; every miss the report counts must correspond one-to-one
        with a ``virtual_latency_ms`` sample above the deadline — the
        single-accounting-point invariant.
        """
        autoscaler = LatencyAutoscaler(min_workers=1, max_workers=1,
                                       window=32)
        engine = ServingEngine(store=None,
                               autoscaler=autoscaler,
                               frames_per_worker_tick=1)
        report = engine.serve(fleet)
        over = sum(1 for latency in report.virtual_latency_ms if latency > 300.0)
        assert report.deadline_misses == over
        assert report.deadline_misses > 0  # the throttle actually bit

    @pytest.mark.parametrize("rate", [RATE, 30.0])
    def test_two_interval_deadline_is_exact(self, rate):
        """A frame served exactly at its deadline is on time, at any rate.

        A throttled fleet with a deadline of two frame intervals serves
        many frames exactly two ticks after they arrive.  Every latency is
        within 1 µs of a whole number of intervals (1/30 s is not a whole
        number of µs), and ``deadline_misses`` and the SLO tracker's bad
        events both count exactly the latencies past the deadline.
        """
        deadline_ms = 2e3 / rate
        fleet = mixed_fleet(3, segment_duration=1.0, camera_rate_hz=rate,
                            deadline_ms=deadline_ms)
        slo = SLOTracker({"fleet": SLOTarget("fleet", objective=0.9,
                                             deadline_ms=deadline_ms)})
        engine = ServingEngine(store=None,
                               autoscaler=LatencyAutoscaler(min_workers=1, max_workers=1,
                                                            window=32),
                               frames_per_worker_tick=1, slo=slo)
        report = engine.serve(fleet)
        latency_us = np.rint(np.array(report.virtual_latency_ms) * 1e3)
        deadline_us = quantize_us(deadline_ms / 1e3)
        interval_us = 1e6 / rate
        off_grid = np.abs(latency_us - np.round(latency_us / interval_us) * interval_us)
        assert off_grid.max() <= 1.0
        assert np.any(latency_us == deadline_us)
        over = int(np.sum(latency_us > deadline_us))
        assert over > 0  # the throttle actually bit
        assert report.deadline_misses == over
        assert slo.totals("fleet") == (len(latency_us) - over, over)

    def test_decision_log_monotone_across_serve_calls(self, fleet):
        """A shared autoscaler's log stays clock-ordered call to call.

        Each serve call's virtual clock restarts near zero; the engine's
        continuity offset must keep the accumulated decision log sorted by
        clock (and tick) so the service's metrics endpoint can order it.
        """
        autoscaler = LatencyAutoscaler(min_workers=1, max_workers=4,
                                       window=32, grow_patience=2,
                                       shrink_patience=4, cooldown=2)
        engine = ServingEngine(store=None,
                               autoscaler=autoscaler,
                               frames_per_worker_tick=1)
        engine.serve(fleet)
        first_count = len(autoscaler.decisions)
        engine.serve(fleet)
        assert len(autoscaler.decisions) > first_count
        decisions = list(autoscaler.decisions)
        clocks = [d.clock for d in decisions]
        assert clocks == sorted(clocks)
        # The second call's decisions (prime included) sit strictly after
        # every clock of the first call's.
        assert clocks[first_count] > clocks[first_count - 1]
        ticks = [d.tick for d in decisions]
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)


class TestServingStore:
    def test_session_results_roundtrip(self, tmp_path):
        fleet = mixed_fleet(2, segment_duration=1.0, camera_rate_hz=RATE)
        store = RunStore(tmp_path)
        first = ServingEngine(store=store).serve(fleet)
        assert first.computed_sessions == 2 and first.store_hits == 0
        second = ServingEngine(store=store).serve(fleet)
        assert second.computed_sessions == 0 and second.store_hits == 2
        for stream_id in first.results:
            assert second.results[stream_id].signature() == first.results[stream_id].signature()

    def test_key_covers_spec(self, tmp_path):
        a = mixed_deployment_stream("a", seed=0, segment_duration=1.0)
        b = mixed_deployment_stream("a", seed=1, segment_duration=1.0)
        assert serving_key(a) != serving_key(b)

    def test_key_ignores_deadline(self):
        """A QoS change must keep the cache warm — results are identical."""
        a = mixed_deployment_stream("a", segment_duration=1.0)
        b = mixed_deployment_stream("a", segment_duration=1.0, deadline_ms=400.0)
        assert serving_key(a) == serving_key(b)

    def test_store_hit_reports_requested_deadline(self, tmp_path):
        """A hit computed under another QoS contract reports the current one."""
        cold = mixed_fleet(1, segment_duration=1.0, camera_rate_hz=RATE)
        warm = mixed_fleet(1, segment_duration=1.0, camera_rate_hz=RATE,
                           deadline_ms=250.0)
        store = RunStore(tmp_path)
        ServingEngine(store=store).serve(cold)
        report = ServingEngine(store=store).serve(warm)
        assert report.store_hits == 1
        payload = report.results[warm[0].stream_id].spec_payload
        assert payload["deadline_ms"] == 250.0

    def test_warm_serve_still_reports_resolution_path(self, tmp_path):
        fleet = mixed_fleet(2, segment_duration=1.0, camera_rate_hz=RATE)
        store = RunStore(tmp_path)
        ServingEngine(store=store).serve(fleet)
        warm = ServingEngine(store=store).serve(
            fleet)
        assert warm.store_hits == 2

    def test_duplicate_stream_ids_rejected(self):
        spec = mixed_deployment_stream("dup", segment_duration=1.0)
        with pytest.raises(ValueError):
            ServingEngine().serve([spec, spec])


class TestSchedulerTelemetryFeed:
    @pytest.fixture(scope="class")
    def results(self):
        fleet = mixed_fleet(2, segment_duration=SEGMENT, camera_rate_hz=RATE)
        return ServingEngine(store=None).serve(fleet).results

    def test_samples_cover_served_modes(self, results):
        accelerator = accelerator_for("drone")
        samples = scheduler_training_samples(results, accelerator)
        served_modes = {estimate.mode for result in results.values()
                        for estimate in result.trajectory.estimates}
        assert set(samples) == served_modes
        for workloads, latencies in samples.values():
            assert len(workloads) == len(latencies) > 0

    def test_trains_offload_scheduler(self, results):
        accelerator = accelerator_for("drone")
        fits = train_offload_scheduler(results, accelerator)
        assert fits, "no mode had enough traffic to train"
        for mode, r2 in fits.items():
            assert mode in accelerator.scheduler.models
            assert r2 <= 1.0 + 1e-9
        mode = next(iter(fits))
        workload = next(
            backend_result.workload
            for result in results.values()
            for backend_result in result.trajectory.backend_results
            if backend_result.mode == mode
        )
        decision = accelerator.scheduler.decide(mode, workload, actual_cpu_ms=1.0)
        assert decision.predicted_cpu_ms >= 0.0

    def test_online_observation_refits(self, results):
        accelerator = accelerator_for("drone")
        scheduler = accelerator.scheduler
        samples = scheduler_training_samples(results, accelerator)
        mode, (workloads, latencies) = max(samples.items(), key=lambda kv: len(kv[1][0]))
        assert len(workloads) >= 8
        refit_r2 = None
        for workload, cpu_ms in zip(workloads, latencies):
            fit = scheduler.observe(mode, workload, cpu_ms, refit_every=8)
            refit_r2 = fit if fit is not None else refit_r2
        assert refit_r2 is not None
        assert mode in scheduler.models
