"""Service front door: QoS mapping, admission control, HTTP lifecycle.

Three layers of coverage, matching the package's structure:

* pure units (QoS catalog, admission verdicts, arrival profiles) need no
  event loop at all;
* the service lifecycle tests run a real :class:`LocalizationService` on
  an ephemeral port inside ``asyncio.run`` (no pytest-asyncio in the
  container) and speak actual HTTP through the loadgen client;
* the determinism contract: a session served through the front door
  yields the byte-identical signature the library call yields.
"""

import asyncio
import os

import pytest

from repro.scheduler import LatencyAutoscaler
from repro.sensors.scenarios import ScenarioKind
from repro.serving import ServingEngine, StreamSegment, StreamSpec, serving_key
from repro.serving.engine import run_session
from repro.service import (
    AdmissionController,
    ArrivalProfile,
    DEFAULT_QOS_CLASSES,
    LoadGenerator,
    LocalizationService,
    MAX_INFLIGHT_ENV,
    PORT_ENV,
    QoSClass,
    SHED_POLICY_ENV,
    apply_qos,
)
from repro.service.loadgen import request

RATE = 5.0

SEGMENTS_WIRE = [
    {"kind": "outdoor_unknown", "duration": 1.0, "label": "approach"},
    {"kind": "indoor_unknown", "duration": 1.0, "label": "inside"},
]


def _spec(stream_id="lib", deadline_ms=None, seed=0):
    return StreamSpec(
        stream_id=stream_id,
        segments=(
            StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, 1.0, label="approach"),
            StreamSegment(ScenarioKind.INDOOR_UNKNOWN, 1.0, label="inside"),
        ),
        camera_rate_hz=RATE,
        seed=seed,
        deadline_ms=deadline_ms,
    )


def _run(coro_fn, engine=None, **service_kwargs):
    """Start a service on an ephemeral port, run the test coroutine, stop."""
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


# ------------------------------------------------------------------- QoS


class TestQoS:
    def test_apply_stamps_class_deadline(self):
        spec = _spec()
        gold = apply_qos(spec, DEFAULT_QOS_CLASSES["gold"])
        assert gold.deadline_ms == 200.0
        assert gold.stream_id == spec.stream_id
        assert gold.segments == spec.segments

    def test_best_effort_has_no_deadline(self):
        spec = apply_qos(_spec(deadline_ms=123.0),
                         DEFAULT_QOS_CLASSES["best_effort"])
        assert spec.deadline_ms is None

    def test_qos_change_keeps_serving_cache_warm(self):
        """serving_key excludes the deadline, so re-admitting a stream
        under a different class re-uses its cached result."""
        spec = _spec()
        silver = apply_qos(spec, DEFAULT_QOS_CLASSES["silver"])
        bronze = apply_qos(spec, DEFAULT_QOS_CLASSES["bronze"])
        assert serving_key(silver) == serving_key(bronze)

    def test_default_catalog_shape(self):
        assert set(DEFAULT_QOS_CLASSES) == {"gold", "silver", "bronze",
                                            "best_effort"}
        assert not DEFAULT_QOS_CLASSES["gold"].sheddable
        assert all(DEFAULT_QOS_CLASSES[name].sheddable
                   for name in ("silver", "bronze", "best_effort"))


# -------------------------------------------------------------- admission


class TestAdmission:
    def test_policy_none_admits_everything(self):
        controller = AdmissionController(policy="none", max_inflight=1)
        decision = controller.admit(DEFAULT_QOS_CLASSES["bronze"], inflight=999)
        assert decision.admitted

    def test_inflight_cap_sheds_every_class(self):
        controller = AdmissionController(policy="inflight", max_inflight=2)
        assert controller.admit(DEFAULT_QOS_CLASSES["gold"], inflight=1).admitted
        decision = controller.admit(DEFAULT_QOS_CLASSES["gold"], inflight=2)
        assert not decision.admitted
        assert decision.reason == "max_inflight"
        assert controller.shed_counts == {"max_inflight": 1}

    def test_saturation_sheds_sheddable_admits_protected(self):
        controller = AdmissionController(
            policy="saturation", max_inflight=8, saturated_fn=lambda: True)
        shed = controller.admit(DEFAULT_QOS_CLASSES["silver"], inflight=0)
        assert not shed.admitted and shed.reason == "saturated"
        kept = controller.admit(DEFAULT_QOS_CLASSES["gold"], inflight=0)
        assert kept.admitted and kept.saturated

    def test_saturated_bound_tightens_protected_admissions(self):
        controller = AdmissionController(
            policy="saturation", max_inflight=8, saturated_inflight=2,
            saturated_fn=lambda: True)
        gold = DEFAULT_QOS_CLASSES["gold"]
        assert controller.admit(gold, inflight=1).admitted
        decision = controller.admit(gold, inflight=2)
        assert not decision.admitted
        assert decision.reason == "saturated"
        assert decision.limit == 2

    def test_not_saturated_admits_normally(self):
        controller = AdmissionController(
            policy="saturation", max_inflight=8, saturated_fn=lambda: False)
        assert controller.admit(DEFAULT_QOS_CLASSES["bronze"], inflight=7).admitted

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(policy="psychic")
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)

    def test_snapshot_counts(self):
        controller = AdmissionController(
            policy="saturation", max_inflight=1, saturated_fn=lambda: False)
        controller.admit(DEFAULT_QOS_CLASSES["silver"], inflight=0)
        controller.admit(DEFAULT_QOS_CLASSES["silver"], inflight=1)
        snapshot = controller.snapshot()
        assert snapshot["admitted"] == 1
        assert snapshot["shed"] == 1
        assert snapshot["shed_reasons"] == {"max_inflight": 1}


# --------------------------------------------------------- arrival profiles


class TestArrivalProfile:
    def test_schedules_are_seeded_and_deterministic(self):
        profile = ArrivalProfile(kind="poisson", rate=5.0, duration_s=20.0,
                                 seed=3)
        assert profile.arrivals() == profile.arrivals()
        other = ArrivalProfile(kind="poisson", rate=5.0, duration_s=20.0,
                               seed=4)
        assert profile.arrivals() != other.arrivals()

    def test_arrivals_stay_inside_the_run(self):
        for kind in ("poisson", "diurnal", "flash"):
            profile = ArrivalProfile(kind=kind, rate=3.0, peak_rate=9.0,
                                     duration_s=10.0, seed=1)
            times = profile.arrivals()
            assert times == sorted(times)
            assert all(0.0 <= t < 10.0 for t in times)

    def test_flash_crowd_concentrates_midrun(self):
        profile = ArrivalProfile(kind="flash", rate=1.0, peak_rate=20.0,
                                 duration_s=30.0, flash_fraction=0.3, seed=7)
        times = profile.arrivals()
        inside = sum(1 for t in times if 10.5 <= t < 19.5)
        outside = len(times) - inside
        # The crowd window is 30% of the run but carries the vast majority
        # of arrivals at a 20x rate ratio.
        assert inside > 2 * outside

    def test_diurnal_rate_peaks_midrun(self):
        profile = ArrivalProfile(kind="diurnal", rate=2.0, peak_rate=10.0,
                                 duration_s=40.0)
        assert profile.rate_at(20.0) == pytest.approx(10.0)
        assert profile.rate_at(0.0) == pytest.approx(2.0)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            ArrivalProfile(kind="psychic")
        with pytest.raises(ValueError):
            ArrivalProfile(kind="flash", rate=5.0, peak_rate=1.0)
        with pytest.raises(ValueError):
            ArrivalProfile(rate=0.0)


# ------------------------------------------------------------ env knobs


class TestEnvKnobs:
    def test_service_env_defaults(self, monkeypatch):
        monkeypatch.setenv(PORT_ENV, "9999")
        monkeypatch.setenv(MAX_INFLIGHT_ENV, "5")
        monkeypatch.setenv(SHED_POLICY_ENV, "inflight")
        service = LocalizationService(ServingEngine(store=None))
        assert service.port == 9999
        assert service.admission.max_inflight == 5
        assert service.admission.policy == "inflight"

    def test_explicit_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv(PORT_ENV, "9999")
        controller = AdmissionController(policy="none")
        service = LocalizationService(ServingEngine(store=None), port=0,
                                      admission=controller)
        assert service.port == 0
        assert service.admission is controller


# ------------------------------------------------------- service lifecycle


class TestServiceLifecycle:
    def test_end_to_end_session_over_http(self):
        async def scenario(service):
            status, payload = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "e2e", "qos": "silver",
                 "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE})
            assert status == 201
            assert payload["state"] == "queued"
            assert payload["deadline_ms"] == 400.0
            status, result = await request(
                service.host, service.port, "GET", "/v1/sessions/e2e/result")
            assert status == 200
            assert result["state"] == "done"
            assert result["frames"] > 0
            assert result["signature"]
            status, health = await request(
                service.host, service.port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["inflight"] == 0
            return result
        result = _run(scenario)
        assert result["qos"] == "silver"

    def test_front_door_signature_matches_library_call(self):
        """The determinism contract across the network boundary."""
        async def scenario(service):
            await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "parity", "qos": "gold",
                 "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE, "seed": 3})
            _, result = await request(
                service.host, service.port, "GET",
                "/v1/sessions/parity/result")
            return result["signature"]
        served = _run(scenario)
        library = run_session(_spec("parity", deadline_ms=200.0, seed=3))
        assert served == library.signature()

    def test_feed_then_seal_then_result(self):
        async def scenario(service):
            status, _ = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "fed", "qos": "bronze", "camera_rate_hz": RATE})
            assert status == 201
            status, payload = await request(
                service.host, service.port, "POST",
                "/v1/sessions/fed/segments",
                {"segments": SEGMENTS_WIRE[:1]})
            assert status == 200 and payload["state"] == "open"
            status, payload = await request(
                service.host, service.port, "POST",
                "/v1/sessions/fed/segments",
                {"segments": SEGMENTS_WIRE[1:], "seal": True})
            assert status == 200 and payload["state"] == "queued"
            status, result = await request(
                service.host, service.port, "GET", "/v1/sessions/fed/result")
            assert status == 200 and result["frames"] > 0
            # Sealed sessions refuse further segments.
            status, _ = await request(
                service.host, service.port, "POST",
                "/v1/sessions/fed/segments", {"segments": SEGMENTS_WIRE})
            assert status == 409
        _run(scenario)

    def test_error_mapping(self):
        async def scenario(service):
            # Unknown QoS class -> 400.
            status, payload = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"qos": "diamond"})
            assert status == 400 and "diamond" in payload["error"]
            # Client-quoted deadline -> 400 (deadlines are service-assigned).
            status, payload = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"qos": "silver", "deadline_ms": 50.0})
            assert status == 400 and "QoS" in payload["error"]
            # Unknown session -> 404.
            status, _ = await request(
                service.host, service.port, "GET", "/v1/sessions/ghost")
            assert status == 404
            # Result of an empty open session -> 409.
            await request(service.host, service.port, "POST", "/v1/sessions",
                          {"stream_id": "empty", "qos": "silver"})
            status, _ = await request(
                service.host, service.port, "GET",
                "/v1/sessions/empty/result")
            assert status == 409
            # Bad segment kind -> 400.
            status, _ = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"qos": "silver", "segments": [{"kind": "underwater"}]})
            assert status == 400
            # Unknown route -> 404.
            status, _ = await request(
                service.host, service.port, "GET", "/v2/anything")
            assert status == 404
        _run(scenario)

    def test_duplicate_stream_id_conflicts(self):
        async def scenario(service):
            body = {"stream_id": "twin", "qos": "silver",
                    "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE}
            status, _ = await request(service.host, service.port, "POST",
                                      "/v1/sessions", body)
            assert status == 201
            status, _ = await request(service.host, service.port, "POST",
                                      "/v1/sessions", body)
            assert status == 409
        _run(scenario)


# ------------------------------------------------------- admission at door


class TestServiceAdmission:
    def test_inflight_cap_sheds_with_503(self):
        controller = AdmissionController(policy="inflight", max_inflight=1)

        async def scenario(service):
            # First session stays open (no segments) — it occupies the slot.
            status, _ = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "holder", "qos": "silver"})
            assert status == 201
            status, payload = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "refused", "qos": "silver"})
            assert status == 503
            assert "max_inflight" in payload["error"]
            return service
        service = _run(scenario, admission=controller)
        assert service.admission.shed_counts == {"max_inflight": 1}
        assert "refused" not in service.sessions

    def test_saturation_sheds_sheddable_but_not_protected(self):
        controller = AdmissionController(
            policy="saturation", max_inflight=8, saturated_fn=lambda: True)

        async def scenario(service):
            status, payload = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "shed-me", "qos": "bronze"})
            assert status == 503
            assert "saturated" in payload["error"]
            status, _ = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "vip", "qos": "gold",
                 "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE})
            assert status == 201
            status, result = await request(
                service.host, service.port, "GET", "/v1/sessions/vip/result")
            assert status == 200 and result["state"] == "done"
        _run(scenario, admission=controller)

    def test_shed_session_leaves_no_trace(self, tmp_path):
        """A shed request must never touch the engine or either store."""
        from repro.experiments.runner import RunStore
        from repro.maps import MapStore
        run_root = tmp_path / "runs"
        map_root = tmp_path / "maps"
        engine = ServingEngine(store=RunStore(root=run_root),
                               map_store=MapStore(root=map_root))
        serve_calls = []
        original_serve = engine.serve
        engine.serve = lambda *a, **k: (serve_calls.append(a),
                                        original_serve(*a, **k))[1]
        controller = AdmissionController(
            policy="saturation", max_inflight=8, saturated_fn=lambda: True)

        async def scenario(service):
            status, _ = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "doomed", "qos": "silver",
                 "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE})
            assert status == 503
            return service
        service = _run(scenario, engine=engine, admission=controller)
        assert not serve_calls, "shed session must not reach the engine"
        assert "doomed" not in service.sessions
        assert not list(run_root.rglob("*")), "run store must stay untouched"
        assert not list(map_root.rglob("*")), "map store must stay untouched"

    def test_saturation_signal_wired_to_engine_autoscaler(self):
        """The default controller probes the engine's shared autoscaler."""
        autoscaler = LatencyAutoscaler(min_workers=1, max_workers=1,
                                       grow_patience=1)
        engine = ServingEngine(store=None, autoscaler=autoscaler)
        service = LocalizationService(engine, port=0)
        assert service.admission.saturated_inflight == \
            1 * engine.frames_per_worker_tick
        assert not service.admission.saturated_fn()
        autoscaler.observe(1000.0, deadline_ms=100.0)
        autoscaler.decide()
        assert autoscaler.saturated
        assert service.admission.saturated_fn()


# ---------------------------------------------------------------- metrics


class TestServiceMetrics:
    def test_metrics_report_waves_and_ordered_decisions(self):
        autoscaler = LatencyAutoscaler(min_workers=1, max_workers=2,
                                       window=32, grow_patience=1,
                                       cooldown=0)
        engine = ServingEngine(store=None, autoscaler=autoscaler,
                               frames_per_worker_tick=1)

        async def scenario(service):
            for index in range(2):  # two separate waves
                await request(
                    service.host, service.port, "POST", "/v1/sessions",
                    {"stream_id": f"wave-{index}", "qos": "silver",
                     "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE,
                     "seed": index})
                await request(
                    service.host, service.port, "GET",
                    f"/v1/sessions/wave-{index}/result")
            status, metrics = await request(
                service.host, service.port, "GET", "/v1/metrics")
            assert status == 200
            return metrics
        metrics = _run(scenario, engine=engine)
        assert metrics["sessions"]["created"] == 2
        assert metrics["sessions"]["completed"] == 2
        assert metrics["sessions"]["inflight"] == 0
        assert len(metrics["waves"]) == 2
        assert metrics["turnaround_ms"]["p95"] > 0.0
        clocks = [d["clock"] for d in metrics["scale_decisions"]]
        assert clocks and clocks == sorted(clocks)
        ticks = [d["tick"] for d in metrics["scale_decisions"]]
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)

    def test_loadgen_round_trip(self):
        """A tiny open-loop run against a healthy service completes fully."""
        async def scenario(service):
            generator = LoadGenerator(
                service.host, service.port,
                session_body={"segments": SEGMENTS_WIRE,
                              "camera_rate_hz": RATE},
                qos_cycle=("silver", "bronze"))
            profile = ArrivalProfile(kind="poisson", rate=4.0,
                                     duration_s=1.0, seed=5)
            return await generator.run(profile)
        report = _run(scenario)
        assert report.offered > 0
        assert report.completed == report.admitted == report.offered
        assert report.shed == 0 and report.errors == 0
        assert len(report.signatures) == report.completed
        summary = report.summary()
        assert summary["shed_rate"] == 0.0
        assert summary["p95_turnaround_ms"] > 0.0


# ------------------------------------------------------- sharded front door


def _sharded_engine(shards=2):
    from repro.cluster import ShardedServingEngine
    # max_workers == min_workers so a single over-pressure observation
    # saturates a shard (same idiom as the plain-engine saturation test).
    return ShardedServingEngine(
        shards,
        autoscaler_factory=lambda shard: LatencyAutoscaler(
            min_workers=1, max_workers=1, grow_patience=1),
    )


def _stream_for_shard(engine, shard, prefix="svc"):
    """A stream id the engine's live ring routes to ``shard``."""
    for index in range(4096):
        stream_id = f"{prefix}-{index}"
        if engine.ring.shard_for(stream_id) == shard:
            return stream_id
    raise AssertionError(f"no stream id found for shard {shard}")


def _saturate_shard(engine, shard):
    scaler = engine.autoscalers[shard]
    scaler.observe(1000.0, deadline_ms=100.0)
    scaler.decide()
    assert scaler.saturated


class TestShardedService:
    def test_default_admission_wired_to_shard_probes(self):
        """A sharded engine behind the door gets per-shard admission: the
        target-shard probe, all-shards fallback, and the pinned cluster
        capacity as the tightened bound."""
        engine = _sharded_engine()
        service = LocalizationService(engine, port=0)
        assert service.admission.shard_saturated_fn == engine.saturated_for
        assert service.admission.saturated_inflight == engine.pinned_capacity
        assert service.admission.saturated_inflight == \
            2 * 1 * engine.frames_per_worker_tick
        # Zero-arg fallback is ALL-shards saturation, not any-shard.
        assert not service.admission.saturated_fn()
        _saturate_shard(engine, 0)
        assert not service.admission.saturated_fn()
        _saturate_shard(engine, 1)
        assert service.admission.saturated_fn()

    def test_sheds_by_target_shard_not_cluster(self):
        """One hot shard refuses only its own streams; traffic bound for
        the idle sibling keeps flowing."""
        engine = _sharded_engine()
        _saturate_shard(engine, 0)
        hot = _stream_for_shard(engine, 0)
        cool = _stream_for_shard(engine, 1)

        async def scenario(service):
            status, payload = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": hot, "qos": "bronze",
                 "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE})
            assert status == 503
            assert "saturated" in payload["error"]
            status, _ = await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": cool, "qos": "bronze",
                 "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE})
            assert status == 201
            status, result = await request(
                service.host, service.port, "GET",
                f"/v1/sessions/{cool}/result")
            assert status == 200 and result["state"] == "done"
            return service
        service = _run(scenario, engine=engine)
        assert service.admission.shed_counts == {"saturated": 1}
        assert hot not in service.sessions

    def test_healthz_and_metrics_expose_cluster_shape(self):
        engine = _sharded_engine()

        async def scenario(service):
            await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "shape", "qos": "silver",
                 "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE})
            await request(service.host, service.port, "GET",
                          "/v1/sessions/shape/result")
            _, health = await request(service.host, service.port, "GET",
                                      "/healthz")
            _, metrics = await request(service.host, service.port, "GET",
                                       "/v1/metrics")
            return health, metrics
        health, metrics = _run(scenario, engine=engine)
        assert [row["shard"] for row in health["shards"]] == [0, 1]
        assert all(not row["saturated"] for row in health["shards"])
        assert metrics["cluster"]["shards"] == 2
        assert metrics["cluster"]["waves_served"] == 1
        assert metrics["scale_decisions"], "shard decisions must surface"
        assert all("shard" in d for d in metrics["scale_decisions"])

    def test_sharded_front_door_signature_parity(self):
        """Determinism across both boundaries at once: network + sharding."""
        async def scenario(service):
            await request(
                service.host, service.port, "POST", "/v1/sessions",
                {"stream_id": "parity", "qos": "gold",
                 "segments": SEGMENTS_WIRE, "camera_rate_hz": RATE, "seed": 3})
            _, result = await request(
                service.host, service.port, "GET",
                "/v1/sessions/parity/result")
            return result["signature"]
        served = _run(scenario, engine=_sharded_engine())
        library = run_session(_spec("parity", deadline_ms=200.0, seed=3))
        assert served == library.signature()
