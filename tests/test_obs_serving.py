"""Observability x serving: determinism, inertness, and telemetry pins.

The contracts this file enforces, in order of importance:

1. **Inert**: serving with a tracer and a bound metrics registry yields
   byte-identical :meth:`SessionResult.signature` digests — pinned against
   the same ``tests/data/serving_signatures.json`` the golden suite uses,
   with ``EUDOXUS_TRACE=1`` forced on.
2. **Deterministic**: the virtual-clock ``session``-category span sequence
   is a pure function of the fleet — identical to the spans of each
   session run straight through (:func:`run_session`), and across repeat
   runs.
3. **Complete**: exported Chrome traces carry spans from the engine, the
   session layer, the scheduler, and the map plane; ``ServingReport``
   exposes the map-service telemetry slice and a pinned ``as_dict`` shape.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments.runner import RunStore
from repro.maps import MapStore
from repro.obs import MetricsRegistry, Tracer
from repro.obs.profile import (
    _NULL,
    disable_kernel_tracing,
    enable_kernel_tracing,
    profile_kernel,
)
from repro.cluster import ShardedServingEngine
from repro.scheduler import LatencyAutoscaler
from repro.serving import ServingEngine, cold_start_fleet, mixed_fleet, run_session

GOLDEN_PATH = Path(__file__).parent / "data" / "serving_signatures.json"

FLEET_SIZE = 3
SEGMENT_DURATION = 1.0
RATE_HZ = 5.0
MAP_ENVIRONMENT = "obs-atrium"
MAP_GATE = 0.05


def canonical_fleet():
    return mixed_fleet(FLEET_SIZE, segment_duration=SEGMENT_DURATION,
                       camera_rate_hz=RATE_HZ)


def map_wave(base_seed, prefix):
    return cold_start_fleet(2, environment=MAP_ENVIRONMENT,
                            base_seed=base_seed,
                            segment_duration=SEGMENT_DURATION,
                            camera_rate_hz=RATE_HZ, prefix=prefix)


def traced_engine(**kwargs):
    kwargs.setdefault("store", None)
    return ServingEngine(tracer=Tracer(), **kwargs)


def session_span_sequence(tracer):
    """The deterministic projection: session-category virtual-clock spans."""
    return [event for event in tracer.events if event.category == "session"]


# ------------------------------------------------------------ determinism


class TestSpanDeterminism:
    def _serve(self):
        engine = traced_engine()
        engine.serve(canonical_fleet())
        return session_span_sequence(engine.tracer)

    def test_session_spans_match_run_session(self):
        streaming = self._serve()
        assert streaming, "no session spans recorded"
        # A fresh engine's decision clock starts at zero, so the spans of
        # each session run straight through line up exactly.
        isolated = [span
                    for spec in sorted(canonical_fleet(),
                                       key=lambda spec: spec.stream_id)
                    for span in run_session(spec).trace_spans()]
        assert streaming == isolated

    def test_repeat_runs_are_identical(self):
        first = self._serve()
        second = self._serve()
        assert first == second

    def test_session_spans_live_on_the_virtual_clock(self):
        spans = self._serve()
        assert {event.clock for event in spans} == {"virtual"}

    def test_span_sequence_covers_every_stream(self):
        spans = self._serve()
        fleet = canonical_fleet()
        session_spans = [e for e in spans if e.name == "session"]
        assert sorted(e.track for e in session_spans) == sorted(
            spec.stream_id for spec in fleet)

    def test_mode_runs_partition_each_session(self):
        """Per stream, collapsed mode-run frame counts sum to the session's
        frame count — the span projection loses no frames."""
        engine = traced_engine()
        report = engine.serve(canonical_fleet())
        for stream_id, result in report.results.items():
            runs = [e for e in session_span_sequence(engine.tracer)
                    if e.track == stream_id and e.name.startswith("mode.")
                    and e.phase == "X"]
            assert sum(e.args_dict()["frames"] for e in runs) == result.frame_count


class TestGoldenWithTracing:
    def test_signatures_unchanged_with_tracing_enabled(self, monkeypatch):
        """The inertness contract: EUDOXUS_TRACE=1 plus a bound metrics
        registry must not move a single signature bit."""
        if not GOLDEN_PATH.is_file():
            pytest.fail("golden file missing; run the golden suite first")
        golden = json.loads(GOLDEN_PATH.read_text())["signatures"]
        monkeypatch.setenv("EUDOXUS_TRACE", "1")
        engine = ServingEngine(store=None,
                               metrics=MetricsRegistry())
        assert engine.tracer is not None, "EUDOXUS_TRACE=1 must auto-build"
        report = engine.serve(canonical_fleet())
        produced = {stream_id: result.signature()
                    for stream_id, result in sorted(report.results.items())}
        assert produced == golden


# ------------------------------------------------------------- trace export


class TestTraceExport:
    def test_export_covers_engine_scheduler_session(self, tmp_path):
        autoscaler = LatencyAutoscaler(min_workers=1, max_workers=4, window=32,
                                       grow_patience=2, shrink_patience=4,
                                       cooldown=2)
        engine = traced_engine(autoscaler=autoscaler, frames_per_worker_tick=1)
        engine.serve(canonical_fleet())
        path = engine.tracer.export_chrome(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        categories = {entry.get("cat") for entry in doc["traceEvents"]}
        assert {"session", "engine", "scheduler"} <= categories

    def test_map_engine_traces_map_plane(self, tmp_path):
        store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
        engine = traced_engine(map_store=store, min_map_quality=MAP_GATE)
        engine.serve(map_wave(100, "cold"))
        engine.serve(map_wave(9100, "warm"))
        names = {event.name for event in engine.tracer.by_category("maps")}
        assert "map.resolve" in names
        doc = json.loads(
            engine.tracer.export_chrome(tmp_path / "t.json").read_text())
        assert any(entry.get("cat") == "maps" for entry in doc["traceEvents"])

    def test_cluster_emits_the_plain_engine_map_instants(self, tmp_path):
        """One emission site for the map plane: a 2-shard cluster exports
        the same ``maps``-category instant names and arg keys as the plain
        engine for the same cold + warm waves."""
        def instant_shapes(engine):
            engine.serve(map_wave(100, "cold"))
            engine.serve(map_wave(9100, "warm"))
            return {(event.name, tuple(sorted(event.args_dict())))
                    for event in engine.tracer.by_category("maps")}

        plain = instant_shapes(traced_engine(
            map_store=MapStore(tmp_path / "plain", max_bytes=-1, max_age_s=-1),
            min_map_quality=MAP_GATE))
        cluster = instant_shapes(ShardedServingEngine(
            2, map_store=MapStore(tmp_path / "cluster", max_bytes=-1,
                                  max_age_s=-1),
            min_map_quality=MAP_GATE, tracer=Tracer()))
        assert {name for name, _ in plain} >= {
            "map.resolve", "map.publish_wave", "map.apply_updates"}
        assert cluster == plain

    def test_store_hits_emit_instants(self, tmp_path):
        store = RunStore(tmp_path / "runs", max_bytes=-1, max_age_s=-1)
        fleet = canonical_fleet()
        engine = traced_engine(store=store)
        engine.serve(fleet)
        first = [e.name for e in engine.tracer.by_category("store")]
        assert first.count("run_store.miss") == FLEET_SIZE
        rerun = ServingEngine(store=store, tracer=Tracer())
        rerun.serve(fleet)
        second = [e.name for e in rerun.tracer.by_category("store")]
        assert second.count("run_store.hit") == FLEET_SIZE

    def test_untraced_engine_records_nothing(self):
        engine = ServingEngine(store=None)
        assert engine.tracer is None
        engine.serve(canonical_fleet())


# ------------------------------------------------------------ kernel hooks


class TestKernelHooks:
    def teardown_method(self):
        disable_kernel_tracing()

    def test_disabled_by_default_and_null_context_is_cheap(self):
        context = profile_kernel("slam.bundle_adjustment")
        assert context is _NULL  # no allocation: the one shared no-op
        with context:
            pass  # the disabled context records nowhere

    def test_enabled_hooks_capture_backend_kernels(self):
        tracer = enable_kernel_tracing()
        ServingEngine(store=None).serve(
            mixed_fleet(2, segment_duration=SEGMENT_DURATION,
                        camera_rate_hz=RATE_HZ))
        names = {event.name for event in tracer.by_category("kernel")}
        assert {"frontend.triangulation", "msckf.update"} <= names
        assert all(event.clock == "wall"
                   for event in tracer.by_category("kernel"))

    def test_disable_stops_recording(self):
        tracer = enable_kernel_tracing()
        disable_kernel_tracing()
        with profile_kernel("msckf.update"):
            pass
        assert len(tracer) == 0


# ------------------------------------------------------- metrics integration


class TestEngineMetrics:
    def test_serve_populates_engine_families(self):
        registry = MetricsRegistry()
        autoscaler = LatencyAutoscaler(min_workers=1, max_workers=4, window=32,
                                       grow_patience=2, shrink_patience=4,
                                       cooldown=2)
        engine = ServingEngine(store=None,
                               autoscaler=autoscaler,
                               frames_per_worker_tick=1, metrics=registry)
        report = engine.serve(canonical_fleet())
        snapshot = registry.as_dict()
        assert snapshot["eudoxus_engine_frames_total"][""] == report.frame_count
        latency = snapshot["eudoxus_engine_serving_latency_ms"][""]
        assert latency["count"] == report.frame_count
        assert "eudoxus_autoscaler_decisions_total" in registry
        assert sum(
            snapshot["eudoxus_autoscaler_decisions_total"].values()) == len(
            autoscaler.decisions)

    def test_mode_census_matches_metric(self):
        registry = MetricsRegistry()
        engine = ServingEngine(store=None, metrics=registry)
        report = engine.serve(canonical_fleet())
        by_mode = registry.as_dict()["eudoxus_engine_mode_frames_total"]
        for mode, count in report.mode_census().items():
            assert by_mode[f'{{mode="{mode}"}}'] == count

    def test_rebinding_same_registry_is_safe(self):
        registry = MetricsRegistry()
        engine = ServingEngine(store=None, metrics=registry)
        engine.bind_metrics(registry)  # idempotent, no ValueError
        engine.serve(canonical_fleet())


class TestMapServiceTelemetry:
    """ROADMAP item 5: resolve hit rate, merge latency, version churn."""

    def _lifecycle(self, tmp_path, registry=None):
        store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=MAP_GATE, metrics=registry)
        cold = engine.serve(map_wave(100, "cold"))
        warm = engine.serve(map_wave(9100, "warm"))
        return store, cold, warm

    def test_report_carries_resolve_and_merge_telemetry(self, tmp_path):
        _, cold, warm = self._lifecycle(tmp_path)
        assert cold.map_resolve_hits == 0 and cold.map_resolve_misses == 0
        total = warm.map_resolve_hits + warm.map_resolve_misses
        assert total > 0, "warm wave resolved nothing — telemetry vacuous"
        assert warm.map_resolve_misses >= 1  # first resolve recomputes
        assert 0.0 <= warm.map_resolve_hit_rate <= 1.0
        assert len(warm.map_merge_ms) == warm.map_resolve_misses
        assert all(ms >= 0.0 for ms in warm.map_merge_ms)
        assert warm.map_merge_percentile(50.0) >= 0.0

    def test_version_churn_counts_canonical_changes(self, tmp_path):
        store, cold, warm = self._lifecycle(tmp_path)
        # The warm wave materializes a canonical (first churn tick) and then
        # applies update deltas producing a new version (second tick); the
        # churn dict is keyed by the store's environment digest.
        assert warm.map_version_churn, "no churn recorded on the warm wave"
        for env_key, ticks in warm.map_version_churn.items():
            assert ticks >= 1
            assert store.version_churn[env_key] >= ticks

    def test_summary_and_prometheus_expose_hit_rate(self, tmp_path):
        registry = MetricsRegistry()
        store, _, warm = self._lifecycle(tmp_path, registry=registry)
        assert "map_resolve_hit_rate" in warm.summary()
        text = registry.render_prometheus()
        from repro.obs import parse_prometheus
        parsed = parse_prometheus(text)
        assert "eudoxus_map_store_resolve_hit_rate" in parsed
        rate = parsed["eudoxus_map_store_resolve_hit_rate"]["samples"][
            "eudoxus_map_store_resolve_hit_rate"]
        total = store.resolve_hits + store.resolve_misses
        assert rate == pytest.approx(store.resolve_hits / total)
        assert "eudoxus_map_store_merge_ms" in parsed
        assert "eudoxus_map_store_version_churn_total" in parsed

    def test_warm_rewave_counts_memo_hits(self, tmp_path):
        """A wave that re-serves an unchanged fleet map must report the
        resolve as a memo hit — in the report and in the engine's gauge —
        rather than 0/0 because some cache answered before the store."""
        registry = MetricsRegistry()
        store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=MAP_GATE, map_updates=False,
                               metrics=registry)
        engine.serve(map_wave(100, "cold"))
        engine.serve(map_wave(9100, "warm"))
        third = engine.serve(map_wave(18100, "third"))
        assert third.fleet_maps, "third wave resolved no fleet map"
        assert third.map_resolve_hits >= 1
        assert third.map_resolve_hit_rate == 1.0
        assert (third.map_cache_hits, third.map_cache_misses) == (
            third.map_resolve_hits, third.map_resolve_misses)
        from repro.obs import parse_prometheus
        parsed = parse_prometheus(registry.render_prometheus())
        gauge = parsed["eudoxus_engine_map_resolve_hit_rate"]["samples"][
            "eudoxus_engine_map_resolve_hit_rate"]
        assert gauge == third.map_resolve_hit_rate


# ------------------------------------------------------------ report shape


REPORT_KEYS = {
    "computed_sessions", "deadline_misses", "failure_census", "final_workers",
    "fleet_maps",
    "frame_count", "frames_per_second", "map_acquisition_count",
    "map_merge_p50_ms", "map_resolve_hit_rate",
    "map_resolve_hits", "map_resolve_misses",
    "map_update_count", "map_version_churn",
    "maps_published", "maps_updated", "mean_batch_size", "mode_census",
    "mode_switches", "p50_frame_ms", "p50_serving_ms", "p95_frame_ms",
    "p95_serving_ms", "parallel", "replayed_streams", "resizes",
    "scale_decisions", "session_count", "sessions", "sessions_per_second",
    "store_hits", "ticks", "wall_s", "workers",
}

SESSION_KEYS = {"deadline_misses", "failure_signature", "frames",
                "map_acquisitions", "map_updates", "mode_switches",
                "published_maps", "signature"}


class TestReportAsDict:
    def test_key_set_is_pinned(self):
        report = ServingEngine(store=None).serve(
            canonical_fleet())
        payload = report.as_dict()
        assert set(payload) == REPORT_KEYS, (
            "ServingReport.as_dict changed shape — update the pin AND the "
            "consumers (dashboards parse this)")
        for session in payload["sessions"].values():
            assert set(session) == SESSION_KEYS

    def test_round_trips_through_json(self, tmp_path):
        store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=MAP_GATE)
        engine.serve(map_wave(100, "cold"))
        report = engine.serve(map_wave(9100, "warm"))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["session_count"] == 2
        assert payload["map_resolve_hits"] == report.map_resolve_hits
        assert payload["sessions"], "per-session block missing"

    def test_signatures_survive_the_round_trip(self):
        report = ServingEngine(store=None).serve(
            canonical_fleet())
        payload = report.as_dict()
        for stream_id, result in report.results.items():
            assert payload["sessions"][stream_id]["signature"] == \
                result.signature()
