"""Asyncio service front door over :class:`~repro.serving.ServingEngine`.

The engine stays an importable library; this module is the network-shaped
boundary in front of it.  :class:`LocalizationService` runs a stdlib-only
asyncio HTTP server (no third-party web framework — the container bakes in
only the scientific toolchain) exposing the session lifecycle:

* ``POST /v1/sessions`` — create a session under a QoS class.  Admission
  control runs **here**, before any session object or store entry exists;
  a shed request gets ``503`` and leaves no trace in the serving stack.
  Inline ``segments`` seal the session immediately.
* ``POST /v1/sessions/{id}/segments`` — feed more segments to an open
  session; ``{"seal": true}`` closes it for serving.
* ``GET /v1/sessions/{id}`` — lifecycle state
  (``open → queued → serving → done | failed``).
* ``GET /v1/sessions/{id}/result`` — long-poll for the session's result
  (seals an open session that already has segments; ``409`` if empty).
* ``GET /healthz`` — liveness, the current saturation signal, tenants in
  SLO fast-burn, and (sharded) per-shard rows with their burn state.
* ``GET /v1/slo`` — the SLO plane: the front door's wall-clock burn-rate
  snapshot and the engine's virtual-clock one (when an engine-side
  tracker is attached).
* ``GET /v1/metrics`` — counters, shed reasons, map-service telemetry,
  per-wave serving summaries, turnaround percentiles, and the engine's
  clock-ordered autoscaler decision log.  ``?format=prometheus`` renders
  the shared :class:`repro.obs.MetricsRegistry` as text exposition 0.0.4
  instead of JSON.

Serving runs in **waves**: a background dispatcher collects every sealed
session, hands the batch to ``engine.serve(specs)`` on a worker thread
(the engine is synchronous and
CPU-bound; ``asyncio.to_thread`` keeps the event loop responsive), and
fans results back out.  The virtual-clock loop stays the deterministic
oracle — a session served through the front door yields the byte-identical
:meth:`~repro.serving.session.SessionResult.signature` the library call
yields — while admission, queueing, and turnaround run on real time.

Environment knobs (all ``EUDOXUS_SERVICE_*``):

* ``EUDOXUS_SERVICE_PORT`` — listen port (default 8351; 0 = ephemeral).
* ``EUDOXUS_SERVICE_MAX_INFLIGHT`` — hard cap on admitted, unfinished
  sessions (default 64).
* ``EUDOXUS_SERVICE_SHED_POLICY`` — ``none`` / ``inflight`` /
  ``saturation`` (default ``saturation``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLOTracker
from repro.obs.trace import Tracer
from repro.obs.triage import SIG_SHED
from repro.serving.engine import ServingEngine, ServingReport
from repro.serving.session import SessionResult
from repro.serving.streams import ScenarioKind, StreamSegment, StreamSpec
from repro.service.admission import AdmissionController
from repro.service.qos import DEFAULT_QOS_CLASSES, QoSClass, apply_qos

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_PORT",
    "LocalizationService",
    "MAX_INFLIGHT_ENV",
    "PORT_ENV",
    "ServiceError",
    "SHED_POLICY_ENV",
]

PORT_ENV = "EUDOXUS_SERVICE_PORT"
MAX_INFLIGHT_ENV = "EUDOXUS_SERVICE_MAX_INFLIGHT"
SHED_POLICY_ENV = "EUDOXUS_SERVICE_SHED_POLICY"
DEFAULT_PORT = 8351
DEFAULT_MAX_INFLIGHT = 64

#: Bounded telemetry: the metrics endpoint reports tails, never unbounded
#: histories (same discipline as the autoscaler's decision log).
WAVE_LOG_LIMIT = 512
TURNAROUND_RESERVOIR = 4096


class ServiceError(Exception):
    """A client-visible failure with an HTTP status.

    Everything the request handlers raise deliberately is one of these;
    anything else maps to 500 so internal bugs can't masquerade as client
    errors.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATES = ("open", "queued", "serving", "done", "failed")


@dataclass
class _ServiceSession:
    """Registry entry: the lifecycle wrapper around one client stream."""

    session_id: str
    qos: QoSClass
    platform_kind: str
    camera_rate_hz: float
    landmark_count: int
    seed: int
    segments: List[StreamSegment] = field(default_factory=list)
    state: str = "open"
    created_at: float = 0.0
    sealed_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result: Optional[SessionResult] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def spec(self) -> StreamSpec:
        """The immutable engine-facing view, deadline stamped by QoS."""
        spec = StreamSpec(
            stream_id=self.session_id,
            segments=tuple(self.segments),
            platform_kind=self.platform_kind,
            camera_rate_hz=self.camera_rate_hz,
            landmark_count=self.landmark_count,
            seed=self.seed,
        )
        return apply_qos(spec, self.qos)

    @property
    def inflight(self) -> bool:
        return self.state in ("open", "queued", "serving")

    def status(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "session_id": self.session_id,
            "state": self.state,
            "qos": self.qos.name,
            "deadline_ms": self.qos.deadline_ms,
            "segments": len(self.segments),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


def _parse_segment(raw: Dict[str, object]) -> StreamSegment:
    """One wire-format segment -> :class:`StreamSegment`.

    The wire format mirrors the dataclass; ``kind`` is the scenario slug
    (``outdoor_unknown`` …).  Unknown keys are rejected rather than
    ignored so client typos surface as 400s, not silently-default runs.
    """
    if not isinstance(raw, dict):
        raise ServiceError(400, "each segment must be an object")
    allowed = {"kind", "duration", "gps_outage_probability",
               "imu_noise_scale", "imu_bias_scale", "label", "environment"}
    unknown = set(raw) - allowed
    if unknown:
        raise ServiceError(400, f"unknown segment fields: {sorted(unknown)}")
    try:
        kind = ScenarioKind(str(raw["kind"]))
    except (KeyError, ValueError) as exc:
        raise ServiceError(
            400, f"segment kind must be one of "
                 f"{[k.value for k in ScenarioKind]}") from exc
    try:
        return StreamSegment(
            kind=kind,
            duration=float(raw.get("duration", 2.0)),
            gps_outage_probability=float(raw.get("gps_outage_probability", 0.0)),
            imu_noise_scale=(None if raw.get("imu_noise_scale") is None
                             else float(raw["imu_noise_scale"])),
            imu_bias_scale=(None if raw.get("imu_bias_scale") is None
                            else float(raw["imu_bias_scale"])),
            label=str(raw.get("label", "")),
            environment=(None if raw.get("environment") is None
                         else str(raw["environment"])),
        )
    except (TypeError, ValueError) as exc:
        raise ServiceError(400, f"bad segment: {exc}") from exc


class LocalizationService:
    """The async front door: admission, session registry, wave dispatch.

    Construct around an existing engine (library-first: the service owns
    no serving logic), then either ``await start()`` / ``await stop()``
    from an async context or use :meth:`run` for a blocking entry point.
    """

    def __init__(self, engine: ServingEngine,
                 qos_classes: Optional[Dict[str, QoSClass]] = None,
                 admission: Optional[AdmissionController] = None,
                 host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 slo: Optional[SLOTracker] = None,
                 recorder: Optional[FlightRecorder] = None) -> None:
        self.engine = engine
        # Duck-typed shard awareness: a sharded engine
        # (repro.cluster.ShardedServingEngine) exposes the per-stream
        # saturation probe; the service never imports the cluster layer.
        self._sharded = hasattr(engine, "saturated_for")
        self.qos_classes = dict(qos_classes or DEFAULT_QOS_CLASSES)
        self.host = host
        self.port = int(os.environ.get(PORT_ENV, DEFAULT_PORT)) if port is None else port
        if admission is None:
            policy = os.environ.get(SHED_POLICY_ENV, "saturation")
            max_inflight = int(os.environ.get(MAX_INFLIGHT_ENV,
                                              DEFAULT_MAX_INFLIGHT))
            if self._sharded:
                # Sharded engine: the per-stream probe judges the TARGET
                # shard (see AdmissionController._saturation_signal for the
                # pinned aggregate semantics); the zero-arg fallback is
                # cluster-wide exhaustion; the tightened bound is the
                # cluster's summed pinned capacity.
                admission = AdmissionController(
                    policy=policy,
                    max_inflight=max_inflight,
                    saturated_inflight=engine.pinned_capacity,
                    saturated_fn=lambda: engine.saturated,
                    shard_saturated_fn=engine.saturated_for,
                )
            else:
                scaler = engine.autoscaler
                admission = AdmissionController(
                    policy=policy,
                    max_inflight=max_inflight,
                    # While saturated, tighten admissions to the pool's
                    # pinned per-tick service capacity so the backlog drains.
                    saturated_inflight=(
                        scaler.max_workers * engine.frames_per_worker_tick
                        if scaler is not None else None),
                    saturated_fn=(lambda: scaler.saturated)
                    if scaler is not None else (lambda: False),
                )
        self.admission = admission
        # Observability: the service owns one registry for the whole stack
        # (``/v1/metrics?format=prometheus`` renders it) and shares the
        # engine's tracer so front-door spans land in the same buffer as
        # engine/map/scheduler spans.  Binding is idempotent and inert —
        # golden signatures are pinned unchanged with it active.
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else engine.tracer
        if tracer is not None:
            engine.tracer = tracer
        # Front-door SLO plane: per-session deadline outcomes on the wall
        # clock (the operator-facing domain), one event per finished or
        # shed deadlined session, rolled up per tenant and — behind a
        # sharded engine — per shard.  The engine's own tracker (if any)
        # stays the virtual-clock view; GET /v1/slo reports both.
        self.slo = slo if slo is not None else SLOTracker(domain="wall")
        self._slo_epoch = time.perf_counter()
        # The flight recorder is shared with the engine by default so the
        # front door's shed-spike bundles land next to the engine's
        # trigger bundles.
        self.recorder = (recorder if recorder is not None
                         else getattr(engine, "recorder", None))
        engine.bind_metrics(self.registry)
        self.admission.bind_metrics(self.registry)
        self.slo.bind_metrics(self.registry)
        if self.tracer is not None:
            self.tracer.bind_metrics(self.registry)
        self._m_wave_wall = self.registry.histogram(
            "eudoxus_service_wave_wall_ms",
            "Wall-clock milliseconds per dispatch wave.")
        self._m_turnaround = self.registry.histogram(
            "eudoxus_service_turnaround_ms",
            "Seal-to-finish turnaround per session, milliseconds.")
        self._m_inflight = self.registry.gauge(
            "eudoxus_service_inflight",
            "Admitted, unfinished sessions right now.")
        self._m_session_states = self.registry.gauge(
            "eudoxus_service_sessions",
            "Session lifecycle totals by terminal outcome.", ("outcome",))
        self.registry.register_collector(self._collect_metrics)
        self.sessions: Dict[str, _ServiceSession] = {}
        self.created = 0
        self.completed = 0
        self.failed = 0
        # Running triage census across waves (plus front-door "shed"
        # stamps, which the engine never sees) — the service-lifetime
        # aggregate of ServingReport.failure_census.
        self.failure_census: Dict[str, int] = {}
        self.waves: List[Dict[str, float]] = []
        self.turnaround_ms: List[float] = []
        self._next_id = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._work_ready: Optional[asyncio.Event] = None

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the listener (resolving port 0 to the real one) and start
        the wave dispatcher."""
        self._work_ready = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def run(self) -> None:
        """Blocking entry point (``python -m repro.service``)."""
        async def _main() -> None:
            await self.start()
            assert self._server is not None
            async with self._server:
                await self._server.serve_forever()
        asyncio.run(_main())

    # ------------------------------------------------------- wave dispatch

    @property
    def inflight(self) -> int:
        return sum(1 for session in self.sessions.values() if session.inflight)

    def _saturated(self) -> bool:
        if self._sharded:
            # Cluster-wide exhaustion (every shard saturated) — the health
            # endpoint's headline; per-shard detail rides in "shards".
            return bool(self.engine.saturated)
        scaler = getattr(self.engine, "autoscaler", None)
        return bool(scaler.saturated) if scaler is not None else False

    async def _dispatch_loop(self) -> None:
        assert self._work_ready is not None
        while True:
            await self._work_ready.wait()
            self._work_ready.clear()
            wave = [session for session in self.sessions.values()
                    if session.state == "queued"]
            if not wave:
                continue
            for session in wave:
                session.state = "serving"
            specs = [session.spec() for session in wave]
            started = time.perf_counter()
            wave_span = (self.tracer.wall_span(
                "service.wave", "service", track="service",
                sessions=len(wave))
                if self.tracer is not None else contextlib.nullcontext())
            try:
                # The engine is synchronous and CPU-bound; a worker thread
                # keeps admission and health endpoints live mid-wave.  The
                # plain engine computes its sessions and replays their
                # deterministic schedule; a sharded engine fans the
                # sessions out over the host's cores and replays each
                # shard's schedule, which cannot perturb results.
                with wave_span:
                    report: ServingReport = await asyncio.to_thread(
                        self.engine.serve, specs)
            except Exception as exc:  # engine bug or bad fleet: fail the wave
                for session in wave:
                    session.state = "failed"
                    session.error = f"{type(exc).__name__}: {exc}"
                    session.finished_at = time.perf_counter()
                    session.done.set()
                self.failed += len(wave)
                continue
            finished = time.perf_counter()
            slo_now = finished - self._slo_epoch
            shard_of = getattr(report, "shard_of", {})
            for session in wave:
                result = report.results.get(session.session_id)
                if result is None:
                    session.state = "failed"
                    session.error = "engine returned no result"
                    self.failed += 1
                else:
                    session.result = result
                    session.state = "done"
                    self.completed += 1
                if session.qos.deadline_ms is not None:
                    # One wall-clock SLO event per deadlined session: ok
                    # means it finished with a clean virtual schedule.
                    misses = report.deadline_misses_by_stream.get(
                        session.session_id, 0)
                    self.slo.record(
                        session.qos.name, slo_now,
                        result is not None and misses == 0,
                        shard=shard_of.get(session.session_id))
                session.finished_at = finished
                if session.sealed_at is not None:
                    turnaround = 1000.0 * (finished - session.sealed_at)
                    self.turnaround_ms.append(turnaround)
                    self._m_turnaround.observe(turnaround)
                session.done.set()
            del self.turnaround_ms[:-TURNAROUND_RESERVOIR]
            for signature, count in report.failure_census().items():
                self.failure_census[signature] = (
                    self.failure_census.get(signature, 0) + count)
            self._m_wave_wall.observe(1000.0 * (finished - started))
            self.waves.append({
                "sessions": float(len(wave)),
                "wall_s": finished - started,
                "p95_serving_ms": report.virtual_latency_percentile(95.0),
                "deadline_misses": float(report.deadline_misses),
                "final_workers": float(report.final_workers),
                "saturated": float(self._saturated()),
            })
            del self.waves[:-WAVE_LOG_LIMIT]

    # --------------------------------------------------------- HTTP plumbing

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        content_type = "application/json"
        try:
            response = await self._handle_request(reader)
        except ServiceError as exc:
            response = exc.status, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — last-resort 500 mapping
            response = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if len(response) == 3:
            # Non-JSON route (Prometheus exposition): pre-rendered text.
            status, text, content_type = response
            body = str(text).encode()
        else:
            status, payload = response
            body = json.dumps(payload).encode()
        reason = {200: "OK", 201: "Created", 400: "Bad Request",
                  404: "Not Found", 409: "Conflict",
                  503: "Service Unavailable"}.get(status, "Error")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    async def _handle_request(self, reader: asyncio.StreamReader
                              ) -> Union[Tuple[int, Dict[str, object]],
                                         Tuple[int, str, str]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ServiceError(400, "empty request")
        try:
            method, path, _ = request_line.split(" ", 2)
        except ValueError as exc:
            raise ServiceError(400, f"malformed request line: {request_line!r}") from exc
        content_length = 0
        while True:
            header = (await reader.readline()).decode("latin-1").strip()
            if not header:
                break
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        body: Dict[str, object] = {}
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServiceError(400, f"body is not valid JSON: {exc}") from exc
            if not isinstance(body, dict):
                raise ServiceError(400, "body must be a JSON object")
        return await self._route(method, path, body)

    async def _route(self, method: str, path: str,
                     body: Dict[str, object]
                     ) -> Union[Tuple[int, Dict[str, object]],
                                Tuple[int, str, str]]:
        path, _, query = path.partition("?")
        params: Dict[str, str] = {}
        for pair in query.split("&"):
            if pair:
                name, _, value = pair.partition("=")
                params[name] = value
        if method == "GET" and path == "/healthz":
            payload: Dict[str, object] = {"status": "ok",
                                          "inflight": self.inflight,
                                          "saturated": self._saturated(),
                                          "slo_fast_burn": self.slo.fast_burns()}
            if self._sharded:
                rows = self.engine.shard_health()
                for row in rows:
                    row["slo_fast_burn"] = bool(
                        self.slo.fast_burns(shard=row["shard"]))
                payload["shards"] = rows
            return 200, payload
        if method == "GET" and path == "/v1/slo":
            engine_slo = getattr(self.engine, "slo", None)
            return 200, {
                "service": self.slo.snapshot(),
                "engine": (engine_slo.snapshot()
                           if engine_slo is not None else None),
            }
        if method == "GET" and path == "/v1/metrics":
            fmt = params.get("format", "json")
            if fmt == "prometheus":
                return (200, self.registry.render_prometheus(),
                        "text/plain; version=0.0.4; charset=utf-8")
            if fmt != "json":
                raise ServiceError(
                    400, f"unknown metrics format {fmt!r}; "
                         f"expected 'json' or 'prometheus'")
            return 200, self.metrics()
        if method == "POST" and path == "/v1/sessions":
            return await self._create_session(body)
        parts = path.strip("/").split("/")
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "sessions":
            session = self.sessions.get(parts[2])
            if session is None:
                raise ServiceError(404, f"no such session: {parts[2]}")
            if method == "POST" and len(parts) == 4 and parts[3] == "segments":
                return self._feed_segments(session, body)
            if method == "GET" and len(parts) == 3:
                return 200, session.status()
            if method == "GET" and len(parts) == 4 and parts[3] == "result":
                return await self._await_result(session)
        raise ServiceError(404, f"no route for {method} {path}")

    # ------------------------------------------------------------ handlers

    async def _create_session(self, body: Dict[str, object]
                              ) -> Tuple[int, Dict[str, object]]:
        if "deadline_ms" in body:
            # Deadlines are the service's promise, not the client's claim —
            # accepting one would let clients bypass the QoS catalog.
            raise ServiceError(
                400, "deadline_ms is assigned by the QoS class; pass 'qos'")
        qos_name = str(body.get("qos", "best_effort"))
        qos = self.qos_classes.get(qos_name)
        if qos is None:
            raise ServiceError(
                400, f"unknown QoS class {qos_name!r}; expected one of "
                     f"{sorted(self.qos_classes)}")
        # The prospective identity is computed BEFORE the verdict so a
        # shard-aware controller can judge the shard this stream would
        # actually land on; the id counter only advances on admission, so a
        # shed request still leaves no trace (not even a consumed id).
        session_id = str(body.get("stream_id", "")) or f"s-{self._next_id:06d}"
        decision = self.admission.admit(qos, self.inflight,
                                        stream_id=session_id)
        if self.tracer is not None:
            self.tracer.instant(
                "admission.admit" if decision.admitted else "admission.shed",
                "service", self.tracer.wall_now(), clock="wall",
                track="service", qos=qos.name, reason=decision.reason,
                inflight=decision.inflight)
        if not decision.admitted:
            # The front door is the only layer that can stamp `shed` — a
            # refused session never produces a SessionResult to triage.
            self.failure_census[SIG_SHED] = (
                self.failure_census.get(SIG_SHED, 0) + 1)
            if qos.deadline_ms is not None:
                # A refused deadlined request burns its tenant's budget:
                # the client asked for a contract and got nothing.
                self.slo.record(qos.name,
                                time.perf_counter() - self._slo_epoch,
                                ok=False)
            if self.recorder is not None:
                self.recorder.note_shed(
                    decision.reason, time.perf_counter() - self._slo_epoch,
                    context={"admission_tail": [
                        d.to_dict()
                        for d in list(self.admission.decisions)[-16:]]})
            raise ServiceError(
                503, f"shed ({decision.reason}): inflight {decision.inflight}"
                     f", limit {decision.limit}")
        self._next_id += 1
        if session_id in self.sessions:
            raise ServiceError(409, f"session {session_id!r} already exists")
        try:
            session = _ServiceSession(
                session_id=session_id,
                qos=qos,
                platform_kind=str(body.get("platform_kind", "drone")),
                camera_rate_hz=float(body.get("camera_rate_hz", 5.0)),
                landmark_count=int(body.get("landmark_count", 150)),
                seed=int(body.get("seed", 0)),
                created_at=time.perf_counter(),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, f"bad session parameters: {exc}") from exc
        segments = body.get("segments")
        if segments is not None:
            if not isinstance(segments, list):
                raise ServiceError(400, "segments must be a list")
            session.segments.extend(_parse_segment(raw) for raw in segments)
            self._seal(session)
        self.sessions[session_id] = session
        self.created += 1
        return 201, session.status()

    def _feed_segments(self, session: _ServiceSession,
                       body: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        if session.state != "open":
            raise ServiceError(
                409, f"session {session.session_id} is {session.state}, "
                     f"not open for segments")
        segments = body.get("segments", [])
        if not isinstance(segments, list):
            raise ServiceError(400, "segments must be a list")
        session.segments.extend(_parse_segment(raw) for raw in segments)
        if body.get("seal"):
            self._seal(session)
        return 200, session.status()

    def _seal(self, session: _ServiceSession) -> None:
        if not session.segments:
            raise ServiceError(
                409, f"session {session.session_id} has no segments to serve")
        session.state = "queued"
        session.sealed_at = time.perf_counter()
        if self._work_ready is not None:
            self._work_ready.set()

    async def _await_result(self, session: _ServiceSession
                            ) -> Tuple[int, Dict[str, object]]:
        if session.state == "open":
            # Long-poll doubles as the seal for clients that streamed their
            # segments and just want the answer.
            self._seal(session)
        await session.done.wait()
        if session.state == "failed":
            raise ServiceError(500, session.error or "session failed")
        result = session.result
        assert result is not None
        census: Dict[str, int] = {}
        for estimate in result.trajectory.estimates:
            census[estimate.mode] = census.get(estimate.mode, 0) + 1
        return 200, {
            "session_id": session.session_id,
            "state": session.state,
            "qos": session.qos.name,
            "deadline_ms": session.qos.deadline_ms,
            "frames": result.frame_count,
            "mode_census": census,
            "mode_switches": len(result.mode_switches),
            "map_acquisitions": len(result.map_acquisitions),
            # The determinism contract, over the wire: byte-identical to
            # the library-call signature for the same spec.
            "signature": result.signature(),
        }

    # ------------------------------------------------------------- metrics

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Live gauges, refreshed at exposition time (not on the hot path)."""
        self._m_inflight.set(float(self.inflight))
        self._m_session_states.set(float(self.created), outcome="created")
        self._m_session_states.set(float(self.completed), outcome="completed")
        self._m_session_states.set(float(self.failed), outcome="failed")
        self._m_session_states.set(
            float(self.admission.shed_count), outcome="shed")

    def _map_service_metrics(self) -> Optional[Dict[str, object]]:
        """ROADMAP item 5 telemetry: the map service's live counters, or
        ``None`` when the engine serves without a fleet-map plane."""
        store = getattr(self.engine, "map_store", None)
        if store is None:
            return None
        total = store.resolve_hits + store.resolve_misses
        merge_ms = list(store.merge_ms)
        return {
            "resolve_hits": store.resolve_hits,
            "resolve_misses": store.resolve_misses,
            "resolve_hit_rate": (store.resolve_hits / total) if total else 0.0,
            "merge_count": len(merge_ms),
            "merge_p50_ms": (float(np.percentile(merge_ms, 50.0))
                             if merge_ms else 0.0),
            "published": store.published,
            "updated": store.updated,
            "version_churn": dict(sorted(store.version_churn.items())),
        }

    def metrics(self) -> Dict[str, object]:
        scaler = getattr(self.engine, "autoscaler", None)
        decisions: List[Dict[str, object]] = []
        if scaler is not None:
            decisions = [
                {"tick": d.tick, "clock": d.clock, "action": d.action,
                 "workers": d.workers_after, "saturated": d.saturated,
                 "reason": d.reason}
                for d in list(scaler.decisions)[-64:]
            ]
        elif self._sharded:
            # One autoscaler per shard: report each shard's recent tail,
            # tagged with its shard index.
            per_shard = max(1, 64 // max(1, self.engine.shard_count))
            for shard, shard_scaler in enumerate(self.engine.autoscalers):
                if shard_scaler is None:
                    continue
                decisions.extend(
                    {"shard": shard, "tick": d.tick, "clock": d.clock,
                     "action": d.action, "workers": d.workers_after,
                     "saturated": d.saturated, "reason": d.reason}
                    for d in list(shard_scaler.decisions)[-per_shard:]
                )
        turnaround = self.turnaround_ms
        percentiles = {
            "p50": float(np.percentile(turnaround, 50.0)) if turnaround else 0.0,
            "p95": float(np.percentile(turnaround, 95.0)) if turnaround else 0.0,
        }
        return {
            "sessions": {
                "created": self.created,
                "completed": self.completed,
                "failed": self.failed,
                "shed": self.admission.shed_count,
                "inflight": self.inflight,
            },
            "admission": self.admission.snapshot(),
            "qos_classes": {
                name: {"deadline_ms": qos.deadline_ms,
                       "sheddable": qos.sheddable}
                for name, qos in self.qos_classes.items()
            },
            "saturated": self._saturated(),
            "slo": self.slo.snapshot(),
            "failure_census": dict(sorted(self.failure_census.items())),
            "cluster": (self.engine.describe() if self._sharded else None),
            "map_service": self._map_service_metrics(),
            "turnaround_ms": percentiles,
            "waves": self.waves[-32:],
            # Monotone across waves thanks to the engine's decision-clock
            # continuity offset — the ordering contract this endpoint needs.
            "scale_decisions": decisions,
        }
