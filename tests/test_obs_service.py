"""Observability at the service front door.

Drives a real :class:`LocalizationService` on an ephemeral port (same
``asyncio.run`` discipline as tests/test_service.py) and checks:

* ``GET /v1/metrics?format=prometheus`` renders the shared registry as
  parseable text exposition — including the admission shed counters and
  the map-store resolve hit rate the acceptance criteria name;
* the JSON endpoint grew a ``map_service`` section (ROADMAP item 5);
* admission verdicts and dispatch waves land in the shared tracer.

The loadgen client is JSON-only, so prometheus responses are fetched with
a tiny raw-text HTTP helper.
"""

import asyncio
import json

import pytest

from repro.maps import MapStore
from repro.obs import MetricsRegistry, Tracer, parse_prometheus
from repro.scheduler import LatencyAutoscaler
from repro.serving import ServingEngine
from repro.service import AdmissionController, LocalizationService
from repro.service.loadgen import request

SEGMENTS_WIRE = [
    {"kind": "outdoor_unknown", "duration": 1.0, "label": "approach"},
    {"kind": "indoor_unknown", "duration": 1.0, "label": "inside"},
]

# Mirrors cold_start_fleet: approach outdoors, then explore a shared indoor
# environment — the shape that publishes (cold) and acquires (warm) maps.
MAP_SEGMENTS_WIRE = [
    {"kind": "outdoor_unknown", "duration": 1.0, "label": "approach"},
    {"kind": "indoor_unknown", "duration": 1.0, "environment": "svc-atrium"},
    {"kind": "indoor_unknown", "duration": 1.0, "environment": "svc-atrium"},
]


async def raw_get(host, port, target):
    """Fetch a path without assuming a JSON body: (status, headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {target} HTTP/1.1\r\nHost: {host}\r\n"
                 f"Connection: close\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = data.decode().partition("\r\n\r\n")
    status_line, *header_lines = head.split("\r\n")
    status = int(status_line.split(" ", 2)[1])
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def _run(coro_fn, engine=None, **service_kwargs):
    async def main():
        service = LocalizationService(
            engine if engine is not None else ServingEngine(store=None),
            port=0, **service_kwargs)
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.stop()
    return asyncio.run(main())


async def _serve_one(service, segments=SEGMENTS_WIRE, qos="best_effort",
                     seed=0, stream_id=""):
    payload = {"qos": qos, "segments": segments, "seed": seed}
    if stream_id:
        payload["stream_id"] = stream_id
    status, body = await request(service.host, service.port, "POST",
                                 "/v1/sessions", payload)
    assert status == 201, body
    status, body = await request(
        service.host, service.port, "GET",
        f"/v1/sessions/{body['session_id']}/result")
    assert status == 200, body
    return body


# -------------------------------------------------------------- prometheus


class TestPrometheusEndpoint:
    def test_text_exposition_parses_and_has_core_families(self):
        async def scenario(service):
            await _serve_one(service)
            status, headers, text = await raw_get(
                service.host, service.port, "/v1/metrics?format=prometheus")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            parsed = parse_prometheus(text)
            assert "eudoxus_service_shed_total" in parsed
            assert "eudoxus_engine_frames_total" in parsed
            assert parsed["eudoxus_engine_frames_total"]["samples"][
                "eudoxus_engine_frames_total"] > 0
            admitted = parsed["eudoxus_service_admission_total"]["samples"]
            assert admitted[
                'eudoxus_service_admission_total'
                '{verdict="admitted",qos="best_effort"}'] == 1.0
            assert parsed["eudoxus_service_inflight"]["samples"][
                "eudoxus_service_inflight"] == 0.0
        _run(scenario)

    def test_map_engine_exposes_resolve_hit_rate(self, tmp_path):
        store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=0.05)

        async def scenario(service):
            # Two waves against one environment: publish, then acquire.
            await _serve_one(service, MAP_SEGMENTS_WIRE, seed=100,
                             stream_id="cold-0")
            await _serve_one(service, MAP_SEGMENTS_WIRE, seed=9100,
                             stream_id="warm-0")
            _, _, text = await raw_get(
                service.host, service.port, "/v1/metrics?format=prometheus")
            parsed = parse_prometheus(text)
            assert "eudoxus_map_store_resolve_hit_rate" in parsed
            assert "eudoxus_map_store_resolve_total" in parsed
            resolves = parsed["eudoxus_map_store_resolve_total"]["samples"]
            assert sum(resolves.values()) > 0, "no resolves recorded"
        _run(scenario, engine=engine)

    def test_shed_counter_increments_on_refusal(self):
        admission = AdmissionController(policy="inflight", max_inflight=1)
        engine = ServingEngine(store=None)

        async def scenario(service):
            status, body = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"qos": "best_effort"})  # stays open: occupies inflight
            assert status == 201
            status, body = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"qos": "best_effort"})
            assert status == 503
            _, _, text = await raw_get(
                service.host, service.port, "/v1/metrics?format=prometheus")
            parsed = parse_prometheus(text)
            shed = parsed["eudoxus_service_shed_total"]["samples"]
            assert shed['eudoxus_service_shed_total'
                        '{reason="max_inflight"}'] == 1.0
        _run(scenario, engine=engine, admission=admission)

    def test_unknown_format_is_a_400(self):
        async def scenario(service):
            status, _, body = await raw_get(
                service.host, service.port, "/v1/metrics?format=xml")
            assert status == 400
            assert "unknown metrics format" in body
        _run(scenario)

    def test_plain_json_endpoint_still_works_with_query(self):
        async def scenario(service):
            status, body = await request(service.host, service.port, "GET",
                                         "/v1/metrics?format=json")
            assert status == 200
            assert "sessions" in body
        _run(scenario)


# ------------------------------------------------------------- json metrics


class TestMapServiceSection:
    def test_absent_without_a_map_store(self):
        async def scenario(service):
            _, metrics = await request(service.host, service.port, "GET",
                                       "/v1/metrics")
            assert metrics["map_service"] is None
        _run(scenario)

    def test_live_counters_with_a_map_store(self, tmp_path):
        store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=0.05)

        async def scenario(service):
            await _serve_one(service, MAP_SEGMENTS_WIRE, seed=100,
                             stream_id="cold-0")
            await _serve_one(service, MAP_SEGMENTS_WIRE, seed=9100,
                             stream_id="warm-0")
            _, metrics = await request(service.host, service.port, "GET",
                                       "/v1/metrics")
            section = metrics["map_service"]
            assert section is not None
            assert section["published"] >= 1
            total = section["resolve_hits"] + section["resolve_misses"]
            assert total >= 1
            assert 0.0 <= section["resolve_hit_rate"] <= 1.0
            assert section["merge_count"] == len(store.merge_ms)
            json.dumps(metrics)  # the endpoint payload stays serialisable
        _run(scenario, engine=engine)


# ------------------------------------------------------------ front-door spans


class TestFrontDoorTracing:
    def test_admission_and_wave_spans_recorded(self):
        tracer = Tracer()
        engine = ServingEngine(store=None)

        async def scenario(service):
            await _serve_one(service)
            service_events = service.tracer.by_category("service")
            names = [event.name for event in service_events]
            assert "admission.admit" in names
            assert "service.wave" in names
            assert all(event.clock == "wall" for event in service_events)
            # The shared tracer carries engine + front-door spans together.
            assert service.tracer.by_category("session")
        _run(scenario, engine=engine, tracer=tracer)

    def test_shed_verdict_traced(self):
        tracer = Tracer()
        admission = AdmissionController(policy="inflight", max_inflight=1)
        engine = ServingEngine(store=None)

        async def scenario(service):
            await request(service.host, service.port, "POST", "/v1/sessions",
                          {"qos": "best_effort"})
            status, _ = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"qos": "best_effort"})
            assert status == 503
            sheds = [event for event in service.tracer.by_category("service")
                     if event.name == "admission.shed"]
            assert len(sheds) == 1
            assert sheds[0].args_dict()["reason"] == "max_inflight"
        _run(scenario, engine=engine, admission=admission, tracer=tracer)

    def test_untraced_service_stays_untraced(self):
        async def scenario(service):
            assert service.tracer is None
            await _serve_one(service)
        _run(scenario)


class TestRegistrySharing:
    def test_external_registry_is_used_verbatim(self):
        registry = MetricsRegistry()
        engine = ServingEngine(store=None)

        async def scenario(service):
            assert service.registry is registry
            await _serve_one(service)
            assert registry.counter(
                "eudoxus_service_admission_total",
                "Admission verdicts by outcome and QoS class.",
                ("verdict", "qos")).value(
                verdict="admitted", qos="best_effort") == 1.0
        _run(scenario, engine=engine, metrics=registry)

    def test_signature_identical_through_instrumented_front_door(self):
        """The wire-level determinism contract survives full observability:
        the served signature equals the library-call signature."""
        engine = ServingEngine(store=None, metrics=MetricsRegistry(),
                               tracer=Tracer())

        async def scenario(service):
            return await _serve_one(service, seed=7, stream_id="wire")
        body = _run(scenario, engine=engine)

        from repro.sensors.scenarios import ScenarioKind
        from repro.serving import StreamSegment, StreamSpec
        from repro.serving.engine import run_session
        from repro.service import DEFAULT_QOS_CLASSES, apply_qos
        spec = apply_qos(StreamSpec(
            stream_id="wire",
            segments=(
                StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, 1.0,
                              label="approach"),
                StreamSegment(ScenarioKind.INDOOR_UNKNOWN, 1.0,
                              label="inside"),
            ),
            camera_rate_hz=5.0, seed=7,
        ), DEFAULT_QOS_CLASSES["best_effort"])
        assert body["signature"] == run_session(spec).signature()


# ----------------------------------------------------------------- healthz


class TestHealthzShardRows:
    def test_one_saturated_shard_surfaces_in_its_row_only(self):
        """Per-shard health is per-shard: saturating one shard's scaler
        flips that row's ``saturated`` flag while the sibling stays clear,
        the cluster-wide headline stays False (the rebalancer can still
        move load), and every row carries its SLO fast-burn flag."""
        from repro.cluster import ShardedServingEngine
        engine = ShardedServingEngine(
            2,
            autoscaler_factory=lambda shard: LatencyAutoscaler(
                min_workers=1, max_workers=1, grow_patience=1),
        )
        scaler = engine.autoscalers[1]
        scaler.observe(1000.0, deadline_ms=100.0)
        scaler.decide()
        assert scaler.saturated

        async def scenario(service):
            status, health = await request(service.host, service.port,
                                           "GET", "/healthz")
            assert status == 200
            return health
        health = _run(scenario, engine=engine)

        rows = health["shards"]
        assert [row["shard"] for row in rows] == [0, 1]
        assert [row["saturated"] for row in rows] == [False, True]
        assert all(row["slo_fast_burn"] is False for row in rows)
        assert health["saturated"] is False
        assert health["slo_fast_burn"] == []
