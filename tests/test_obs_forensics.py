"""SLO plane, failure-signature triage, and the flight recorder.

Unit coverage for the three forensic layers PR 9 adds to repro.obs:

* :class:`SLOTracker` — per-tenant burn-rate accounting on an arbitrary
  clock domain, the multi-window fast-burn page signal, and the
  per-shard breakdown;
* :func:`classify_session` — the closed failure-signature vocabulary and
  its severity precedence;
* :class:`FlightRecorder` — deterministic triggers, content-addressed
  dedupe, bounded eviction, the env knobs, and the front door's
  shed-spike window;

plus the two acceptance pins the ISSUE names: identical virtual-clock
failures yield **bit-identical bundle hashes** across runs, and the full
forensic stack (SLO + recorder + tracer + metrics) leaves served
signatures byte-identical to a plain engine's.
"""

import json
from types import SimpleNamespace

import pytest

from repro.obs import (
    DEFAULT_SLO_TARGETS,
    FlightRecorder,
    MetricsRegistry,
    SIG_DEADLINE_MISS,
    SIG_DIVERGENCE,
    SIG_MAP_STALE_THRASH,
    SIG_OK,
    SIG_WRONG_WINNER,
    SLOTracker,
    Tracer,
    classify_session,
    load_bundle,
    parse_prometheus,
    recorder_from_env,
    signature_census,
)
from repro.scheduler import LatencyAutoscaler
from repro.sensors.scenarios import ScenarioKind
from repro.serving import ServingEngine, StreamSegment, StreamSpec, mixed_fleet
from repro.serving.engine import run_session
from repro.serving.streams import cold_start_fleet

RATE = 5.0


def _spec(stream_id="triage", environment=None, seed=0):
    indoor = (StreamSegment(ScenarioKind.INDOOR_UNKNOWN, 2.0,
                            environment=environment)
              if environment else
              StreamSegment(ScenarioKind.INDOOR_UNKNOWN, 2.0, label="inside"))
    return StreamSpec(
        stream_id=stream_id,
        segments=(
            StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, 1.0, label="approach"),
            indoor,
        ),
        camera_rate_hz=RATE,
        seed=seed,
    )


# ------------------------------------------------------------ SLO tracker


class TestSLOTracker:
    def test_tenant_for_deadline_is_exact_match(self):
        slo = SLOTracker()
        assert slo.tenant_for_deadline(200.0) == "gold"
        assert slo.tenant_for_deadline(400.0) == "silver"
        assert slo.tenant_for_deadline(800.0) == "bronze"
        assert slo.tenant_for_deadline(999.0) is None
        assert slo.tenant_for_deadline(None) is None

    def test_best_effort_is_exempt(self):
        assert "best_effort" not in DEFAULT_SLO_TARGETS

    def test_all_miss_burn_rate_is_inverse_error_budget(self):
        slo = SLOTracker()
        for tick in range(10):
            slo.record("gold", float(tick), ok=False)
        # gold objective 99.5% -> budget 0.005 -> all-miss burn = 200x.
        assert slo.burn_rate("gold", 60.0, now=9.0) == pytest.approx(200.0)
        assert slo.totals("gold") == (0, 10)
        assert "gold" in slo.fast_burns()

    def test_fast_burn_needs_both_windows(self):
        """The SRE multi-window AND: an old burst that has left the fast
        window must not page, however bad the slow window still looks."""
        slo = SLOTracker(fast_window_s=1.0, slow_window_s=1000.0)
        for tick in range(10):
            slo.record("gold", float(tick), ok=False)
        for tick in range(100, 110):
            slo.record("gold", float(tick), ok=True)
        rates = slo.burn_rates()["gold"]
        assert rates["fast"] == 0.0 and rates["slow"] > 8.0
        assert slo.fast_burns() == []

    def test_per_shard_burn_is_isolated(self):
        slo = SLOTracker()
        for tick in range(10):
            slo.record("gold", float(tick), ok=False, shard=0)
            slo.record("gold", float(tick), ok=True, shard=1)
        assert "gold" in slo.fast_burns(shard=0)
        assert slo.fast_burns(shard=1) == []
        # The tenant-level view aggregates both shards' events.
        assert slo.totals("gold") == (10, 10)
        assert slo.shards() == [0, 1]

    def test_snapshot_is_json_clean(self):
        slo = SLOTracker()
        slo.record("silver", 1.0, ok=False, shard=2)
        snapshot = json.loads(json.dumps(slo.snapshot()))
        assert snapshot["domain"] == "virtual"
        assert snapshot["tenants"]["silver"]["misses"] == 1
        assert "2" in snapshot["shards"]

    def test_bind_metrics_renders_slo_families(self):
        registry = MetricsRegistry()
        slo = SLOTracker(domain="wall")
        slo.bind_metrics(registry)
        slo.record("bronze", 0.5, ok=True)
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed["eudoxus_slo_requests_total"]["samples"][
            'eudoxus_slo_requests_total{domain="wall",tenant="bronze",'
            'outcome="hit"}'] == 1.0
        assert parsed["eudoxus_slo_objective"]["samples"][
            'eudoxus_slo_objective{domain="wall",tenant="bronze"}'] == 0.95


# ----------------------------------------------------------------- triage


class TestTriage:
    @pytest.fixture(scope="class")
    def result(self):
        return run_session(_spec())

    def test_clean_session_is_ok(self, result):
        assert classify_session(result) == SIG_OK

    def test_deadline_misses_classify(self, result):
        assert classify_session(result, deadline_misses=3) == SIG_DEADLINE_MISS

    def test_divergence_outranks_misses(self, result):
        # A negative threshold makes any finite RMSE a divergence — the
        # knob exists precisely so tests need not build a diverging world.
        assert classify_session(result, deadline_misses=3,
                                divergence_rmse_m=-1.0) == SIG_DIVERGENCE

    def test_stale_thrash_outranks_wrong_winner_and_misses(self, result):
        assert classify_session(result, deadline_misses=3,
                                stale_thrash_min=0) == SIG_MAP_STALE_THRASH

    def test_wrong_winner_when_promised_map_served_slam(self):
        """A session that explored an environment with SLAM, classified
        against an assignment claiming that environment was mapped, is a
        wrong-winner: registration was expected, SLAM won."""
        from repro.serving.streams import segment_environment_id
        spec = _spec(environment="triage-atrium")
        environment_id = segment_environment_id(spec, 1)
        assert environment_id is not None
        result = run_session(spec)
        assert classify_session(result) == SIG_OK
        assert classify_session(
            result, mapped_environments=(environment_id,)) == SIG_WRONG_WINNER

    def test_census_aggregates_sorted(self):
        census = signature_census({"a": SIG_OK, "b": SIG_DEADLINE_MISS,
                                   "c": SIG_OK})
        assert census == {SIG_DEADLINE_MISS: 1, SIG_OK: 2}
        assert list(census) == sorted(census)


# -------------------------------------------------------- flight recorder


def _report(signatures=None, deadline_misses=0):
    return SimpleNamespace(failure_signatures=signatures or {},
                           deadline_misses=deadline_misses)


class TestFlightRecorder:
    def test_record_is_content_addressed_and_dedupes(self, tmp_path):
        recorder = FlightRecorder(root=tmp_path)
        first = recorder.record("divergence", {"streams": ["a"]})
        again = recorder.record("divergence", {"streams": ["a"]})
        other = recorder.record("divergence", {"streams": ["b"]})
        assert first == again and first != other
        assert len(recorder.bundle_paths()) == 2
        bundle = load_bundle(first)
        assert bundle["kind"] == "divergence"
        assert bundle["bundle_hash"][:16] in first.name

    def test_eviction_keeps_newest(self, tmp_path):
        recorder = FlightRecorder(root=tmp_path, max_bundles=2)
        for index in range(4):
            recorder.record("deadline_miss_burst", {"wave": index})
        assert len(recorder.bundle_paths()) == 2

    def test_env_knobs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EUDOXUS_RECORDER", raising=False)
        assert recorder_from_env() is None
        monkeypatch.setenv("EUDOXUS_RECORDER", "0")
        assert recorder_from_env() is None
        monkeypatch.setenv("EUDOXUS_RECORDER", "1")
        monkeypatch.setenv("EUDOXUS_RECORDER_MAX_BUNDLES", "3")
        recorder = recorder_from_env()
        assert recorder is not None and recorder.max_bundles == 3
        monkeypatch.setenv("EUDOXUS_RECORDER_MAX_BUNDLES", "junk")
        assert recorder_from_env().max_bundles == 16

    def test_triggers_in_severity_order(self, tmp_path):
        recorder = FlightRecorder(root=tmp_path)
        assert recorder.triggers_for(_report()) == []
        assert recorder.triggers_for(_report(deadline_misses=8)) == [
            "deadline_miss_burst"]
        fired = recorder.triggers_for(
            _report({"a": SIG_DIVERGENCE, "b": SIG_MAP_STALE_THRASH},
                    deadline_misses=20))
        assert fired == ["divergence", "map_stale_thrash",
                         "deadline_miss_burst"]

    def test_shed_spike_window_fills_then_resets(self, tmp_path):
        recorder = FlightRecorder(root=tmp_path, shed_spike=3,
                                  shed_window_s=10.0)
        assert recorder.note_shed("saturated", 1.0) is None
        assert recorder.note_shed("saturated", 2.0) is None
        path = recorder.note_shed("deadline_infeasible", 3.0,
                                  context={"admission_tail": []})
        assert path is not None
        bundle = load_bundle(path)
        assert bundle["payload"]["shed_count"] == 3
        assert bundle["payload"]["reasons"] == {"deadline_infeasible": 1,
                                                "saturated": 2}
        assert bundle["telemetry"] == {"admission_tail": []}
        # The window cleared: the next shed starts a fresh count.
        assert recorder.note_shed("saturated", 4.0) is None

    def test_old_sheds_age_out_of_the_window(self, tmp_path):
        recorder = FlightRecorder(root=tmp_path, shed_spike=3,
                                  shed_window_s=10.0)
        recorder.note_shed("saturated", 1.0)
        recorder.note_shed("saturated", 2.0)
        assert recorder.note_shed("saturated", 50.0) is None


# -------------------------------------------------- engine acceptance pins


def _starved_engine(slo, recorder):
    return ServingEngine(
        store=None,
        autoscaler=LatencyAutoscaler(min_workers=1, max_workers=1),
        frames_per_worker_tick=1, slo=slo, recorder=recorder)


class TestForensicAcceptance:
    def test_identical_failures_yield_bit_identical_bundles(self, tmp_path):
        """The ISSUE's determinism pin: two fresh runs of the identical
        starved fleet produce the identical content-addressed bundle."""
        names, hashes = [], []
        for run in ("first", "second"):
            fleet = cold_start_fleet(4, deadline_ms=200.0)
            recorder = FlightRecorder(root=tmp_path / run)
            report = _starved_engine(SLOTracker(), recorder).serve(
                fleet)
            assert report.deadline_misses > 0
            paths = recorder.bundle_paths()
            assert paths, "starved fleet captured no bundle"
            names.append([path.name for path in paths])
            hashes.append([load_bundle(path)["bundle_hash"]
                           for path in paths])
        assert names[0] == names[1]
        assert hashes[0] == hashes[1]

    def test_bundle_sessions_are_replayable(self, tmp_path):
        fleet = cold_start_fleet(4, deadline_ms=200.0)
        recorder = FlightRecorder(root=tmp_path)
        _starved_engine(SLOTracker(), recorder).serve(
            fleet)
        bundle = load_bundle(recorder.bundle_paths()[-1])
        sessions = bundle["payload"]["sessions"]
        assert sessions
        for entry in sessions:
            assert entry["serving_key"]
            assert entry["spec_fingerprint"]
            assert entry["signature"] != SIG_OK

    def test_full_forensic_stack_is_inert(self):
        """Signatures with SLO + recorder + tracer + metrics all bound are
        byte-identical to the plain engine's (the golden contract)."""
        fleet = mixed_fleet(4, segment_duration=1.0, camera_rate_hz=RATE)
        plain = ServingEngine(store=None).serve(
            fleet)
        import tempfile
        with tempfile.TemporaryDirectory() as root:
            instrumented = ServingEngine(
                store=None, tracer=Tracer(),
                metrics=MetricsRegistry(), slo=SLOTracker(),
                recorder=FlightRecorder(root=root)).serve(
                fleet)
        assert instrumented.signature() == plain.signature()
        for stream_id, result in plain.results.items():
            assert (instrumented.results[stream_id].signature()
                    == result.signature())
