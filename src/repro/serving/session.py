"""Per-client serving sessions with online backend mode switching.

A :class:`Session` owns one client's state: the scenario stream position,
one :class:`~repro.core.framework.EudoxusLocalizer` (the shared frontend +
multi-mode backend of Fig. 4), and the :class:`ModeSwitchPolicy` that picks
the backend mode *online* from observable signals — GPS fix health (with
hysteresis, so a single multipath dropout does not flip the backend) and
survey-map availability — following the paper's Fig. 2 taxonomy:

=====================  ==================
(GPS trusted, map)     Backend mode
=====================  ==================
(yes, any)             VIO (+GPS)
(no, with map)         Registration
(no, no map)           SLAM
=====================  ==================

On a mid-segment switch the incoming backend is re-anchored at the last
served estimate (state handover), so the client's trajectory stays
continuous through GPS dropouts and reacquisitions.  At segment boundaries
the backends are re-prepared exactly like
:meth:`~repro.core.framework.EudoxusLocalizer.process_mixed` does.

Everything a session computes is a pure function of its
:class:`~repro.serving.streams.StreamSpec`; wall-clock frame latencies are
recorded as telemetry but excluded from :meth:`SessionResult.signature`, the
bit-identity witness the engine uses to prove serial == parallel execution.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.backend.registration import RegistrationBackend
from repro.common.config import LocalizerConfig
from repro.core.framework import EudoxusLocalizer
from repro.core.modes import BackendMode
from repro.core.result import TrajectoryResult
from repro.experiments.runner import localizer_config_for, sensor_config_for
from repro.maps import (
    MapObservationAccumulator,
    MapSnapshot,
    MapUpdate,
    snapshot_from_mapper,
)
from repro.sensors.dataset import Frame
from repro.serving.streams import (
    ScenarioStream,
    StreamFrame,
    StreamSpec,
    segment_environment_id,
)

# Per-session ingress bound: how many arrived-but-unserved frames a session
# buffers before it pushes back on ingestion.  Two seconds of frames at the
# default 5 Hz — enough to ride out a scheduling hiccup, small enough that a
# congested fleet's memory stays bounded (backpressure, not buffering, is
# the overload response).
DEFAULT_INGRESS_CAPACITY = 10

# Publication gates: a segment's SLAM map is only worth publishing once SLAM
# actually served a few frames there and the mapper accumulated a non-trivial
# landmark set — tiny fragments would only dilute the fleet merge.
MIN_PUBLISH_SLAM_FRAMES = 3
MIN_PUBLISH_LANDMARKS = 12

# Map-update gates, mirroring the publication gates: a registration stretch
# contributes a MapUpdate delta back to the fleet only once it actually
# re-observed the map for a few frames across a non-trivial landmark subset.
MIN_UPDATE_REGISTRATION_FRAMES = 3
MIN_UPDATE_LANDMARKS = 8

# Staleness demotion: a fleet map whose registration residuals stay above
# this for a full window of tracked frames is treated as stale — the world
# drifted since it was built — and the session falls back to SLAM
# (switch reason ``map_stale``), which both serves honest poses and, at the
# segment exit, publishes a fresh snapshot of the drifted world.  The
# threshold sits well above healthy fleet-map residuals (~0.05-0.15 m with
# the default stereo noise) and below what a meaningful displacement burst
# produces (a partial burst reads ~0.5 m+ even after the robust solver
# anchors on the unmoved majority).
MAP_STALE_RESIDUAL_M = 0.35
MAP_STALE_WINDOW = 4


@dataclass
class ModeSwitch:
    """One online backend reconfiguration event."""

    frame_index: int
    timestamp: float
    from_mode: Optional[str]
    to_mode: str
    reason: str
    segment_index: int


@dataclass
class MapAcquisition:
    """One fleet-map acquisition: a session entering a mapped environment.

    Recorded when a session enters a segment whose shared environment has a
    servable fleet map — the map-entry event that unlocks the ``*_KNOWN``
    modes mid-stream.  ``version`` is the canonical map's content digest
    (the same value folded into the serving cache key), so the acquisition
    log is a complete provenance record of which map produced which poses.
    """

    environment_id: str
    version: str
    quality: float
    segment_index: int
    frame_index: int
    timestamp: float


class ModeSwitchPolicy:
    """Fig. 2 mode selection from observable signals, with GPS hysteresis.

    GPS is *trusted* after ``acquire_frames`` consecutive epochs with a fix
    and *lost* after ``lose_frames`` consecutive epochs without one; the
    first frame warm-starts the trust state from its fix (a real receiver
    has been tracking since before the session connected).  Map
    availability is a deployment fact (the map is loaded or it is not), so
    it switches without hysteresis.
    """

    def __init__(self, acquire_frames: int = 2, lose_frames: int = 3) -> None:
        self.acquire_frames = max(1, int(acquire_frames))
        self.lose_frames = max(1, int(lose_frames))
        self.reset()

    def reset(self) -> None:
        self._fix_streak = 0
        self._miss_streak = 0
        self._trusted: Optional[bool] = None

    @property
    def gps_trusted(self) -> bool:
        return bool(self._trusted)

    def observe(self, has_fix: bool) -> bool:
        """Fold one GPS epoch into the trust state; returns the new state."""
        if has_fix:
            self._fix_streak += 1
            self._miss_streak = 0
        else:
            self._miss_streak += 1
            self._fix_streak = 0
        if self._trusted is None:
            self._trusted = has_fix
        elif self._trusted and self._miss_streak >= self.lose_frames:
            self._trusted = False
        elif not self._trusted and self._fix_streak >= self.acquire_frames:
            self._trusted = True
        return self._trusted

    def decide(self, frame: Frame, has_map: bool) -> BackendMode:
        if self.observe(frame.has_gps):
            return BackendMode.VIO
        if has_map:
            return BackendMode.REGISTRATION
        return BackendMode.SLAM


@dataclass
class SessionResult:
    """Everything one session produced, plus its telemetry.

    ``frame_wall_ms`` is measured wall time and therefore varies between
    runs; it is deliberately excluded from :meth:`signature` so the
    signature witnesses only the deterministic outputs (poses, modes,
    switch events).
    """

    stream_id: str
    spec_payload: Dict
    trajectory: TrajectoryResult = field(default_factory=TrajectoryResult)
    mode_switches: List[ModeSwitch] = field(default_factory=list)
    segment_starts: List[int] = field(default_factory=list)
    frame_wall_ms: List[float] = field(default_factory=list)
    map_acquisitions: List[MapAcquisition] = field(default_factory=list)
    published_maps: List[MapSnapshot] = field(default_factory=list)
    map_updates: List[MapUpdate] = field(default_factory=list)

    @property
    def frame_count(self) -> int:
        return len(self.trajectory.estimates)

    def latency_percentile(self, percent: float) -> float:
        if not self.frame_wall_ms:
            return 0.0
        return float(np.percentile(self.frame_wall_ms, percent))

    def signature(self) -> str:
        """Bit-exact digest of the deterministic session outputs."""
        digest = hashlib.sha256()
        for estimate in self.trajectory.estimates:
            digest.update(np.ascontiguousarray(estimate.pose.rotation, dtype=np.float64).tobytes())
            digest.update(np.ascontiguousarray(estimate.pose.translation, dtype=np.float64).tobytes())
            digest.update(estimate.mode.encode())
        for switch in self.mode_switches:
            digest.update(
                f"{switch.frame_index}:{switch.from_mode}:{switch.to_mode}:{switch.reason}".encode()
            )
        # Fleet-map provenance is a deterministic output too: acquiring a
        # different map version (or publishing different snapshots) must
        # never hide behind an identical pose trace.  Sessions that touch no
        # shared environment contribute nothing here, so their signatures
        # are unchanged from the pre-map-service era.
        for acquisition in self.map_acquisitions:
            digest.update(f"acq:{acquisition.environment_id}:{acquisition.version}:"
                          f"{acquisition.frame_index}".encode())
        for snapshot in self.published_maps:
            digest.update(f"pub:{snapshot.environment_id}:{snapshot.version}".encode())
        for update in self.map_updates:
            digest.update(f"upd:{update.environment_id}:{update.version}".encode())
        return digest.hexdigest()

    def trace_spans(self, clock_offset: float = 0.0) -> List["SpanEvent"]:
        """Derive this session's deterministic trace spans (virtual clock).

        Spans are computed *from the result data* — estimate timestamps and
        modes, switch events, map provenance — never recorded on the serving
        hot path.  Because a session result is a pure function of its spec
        (the bit-identity contract :meth:`signature` witnesses), the derived
        span sequence is identical however the session was served (straight
        through, in the streaming loop, in a shard) and on warm store hits.
        ``clock_offset``
        shifts the stream-relative timestamps onto the engine's continuous
        decision clock.
        """
        from repro.obs.trace import SpanEvent, quantize_us

        estimates = self.trajectory.estimates
        if not estimates:
            return []
        rate = float(self.spec_payload.get("camera_rate_hz", 0.0) or 0.0)
        interval = 1.0 / rate if rate > 0.0 else 0.0

        def span(name: str, start: float, duration: float,
                 phase: str = "X", **args: object) -> SpanEvent:
            return SpanEvent(
                name=name, category="session", phase=phase, clock="virtual",
                timestamp_us=quantize_us(clock_offset + start),
                duration_us=max(0, quantize_us(duration)),
                track=self.stream_id, args=tuple(sorted(args.items())))

        first, last = estimates[0].timestamp, estimates[-1].timestamp
        spans = [span("session", first, (last - first) + interval,
                      frames=self.frame_count,
                      switches=len(self.mode_switches))]
        # Mode runs: consecutive frames served by the same backend collapse
        # into one span each — the trace shows *which backend held the
        # stream when*, not five hundred per-frame slivers.
        run_start = 0
        for index in range(1, len(estimates) + 1):
            if (index == len(estimates)
                    or estimates[index].mode != estimates[run_start].mode):
                start_ts = estimates[run_start].timestamp
                end_ts = estimates[index - 1].timestamp
                spans.append(span(f"mode.{estimates[run_start].mode}",
                                  start_ts, (end_ts - start_ts) + interval,
                                  frames=index - run_start,
                                  start_frame=run_start))
                run_start = index
        for switch in self.mode_switches:
            spans.append(span("mode.switch", switch.timestamp, 0.0, phase="i",
                              frame=switch.frame_index,
                              from_mode=str(switch.from_mode),
                              to_mode=switch.to_mode, reason=switch.reason))
        for acquisition in self.map_acquisitions:
            spans.append(span("map.acquire", acquisition.timestamp, 0.0,
                              phase="i",
                              environment=acquisition.environment_id,
                              version=acquisition.version[:12],
                              frame=acquisition.frame_index))
        # Publishes and updates are flushed at segment exit / end of serve;
        # snapshots carry no stream timestamp, so pin them to session end.
        session_end = last + interval
        for snapshot in self.published_maps:
            spans.append(span("map.publish", session_end, 0.0, phase="i",
                              environment=snapshot.environment_id,
                              version=snapshot.version[:12]))
        for update in self.map_updates:
            spans.append(span("map.update", session_end, 0.0, phase="i",
                              environment=update.environment_id,
                              version=update.version[:12]))
        return spans


class Session:
    """One client's serving state: stream position, ingress queue, localizer.

    Frames reach a session through two equivalent paths:

    * **straight through** — :meth:`step` pulls the next frame straight from
      the stream's incremental iterator and serves it (:meth:`run`, the
      reference :func:`~repro.serving.engine.run_session` path);
    * **streaming ingestion** — the engine's event loop calls
      :meth:`ingest_ready` to admit frames that have *arrived* on the
      virtual clock into a bounded ingress queue, then :meth:`serve_pending`
      to serve the queue head.  A full queue refuses further ingestion
      (backpressure): the un-admitted frames keep their arrival stamps, so
      congestion shows up as serving latency, not as dropped frames.

    Both paths funnel every frame through the same :meth:`_serve` core, so
    they produce bit-identical :class:`SessionResult`s — the engine's
    signature contract against :func:`~repro.serving.engine.run_session`
    rests on this.
    """

    def __init__(self, spec: StreamSpec, config: Optional[LocalizerConfig] = None,
                 policy: Optional[ModeSwitchPolicy] = None,
                 ingress_capacity: int = DEFAULT_INGRESS_CAPACITY,
                 maps: Optional[Dict[str, MapSnapshot]] = None) -> None:
        self.spec = spec
        self.stream = ScenarioStream(
            spec, sensor_config_for(spec.platform_kind, spec.camera_rate_hz, spec.seed)
        )
        self.localizer = EudoxusLocalizer(config or localizer_config_for(spec.platform_kind))
        self.policy = policy or ModeSwitchPolicy()
        self.ingress_capacity = max(1, int(ingress_capacity))
        self._result = SessionResult(stream_id=spec.stream_id, spec_payload=spec.payload())
        self._frames: Iterator[StreamFrame] = self.stream.frames()
        self._peek: Optional[StreamFrame] = None
        self._generator_done = False
        self._ingress: Deque[StreamFrame] = deque()
        self._segment_index = -1
        self._segment_fresh = True
        self._current_mode: Optional[BackendMode] = None
        self._had_map = False
        # Fleet maps resolved for this session *before* serving started
        # (environment id -> canonical snapshot).  Resolution happens once,
        # up front, in the engine, so every execution path of one serve call
        # sees the same assignment — the bit-identity contract extends to
        # map acquisition.
        self._fleet_maps: Dict[int, Tuple[str, MapSnapshot]] = {}
        if maps:
            for index, environment_id in spec.environment_ids.items():
                snapshot = maps.get(environment_id)
                if snapshot is not None:
                    self._fleet_maps[index] = (environment_id, snapshot)
        self._active_fleet_map: Optional[Tuple[str, MapSnapshot]] = None
        self._segment_environment_id: Optional[str] = None
        self._segment_slam_frames = 0
        self._final_map_flushed = False
        # Map-update lifecycle state: while a fleet map is active, every
        # registration frame's per-landmark observations accumulate here;
        # a rolling window of frame-level residuals drives the staleness
        # demotion (the map is dropped when the world visibly drifted).
        self._map_accumulator: Optional[MapObservationAccumulator] = None
        self._stale_residuals: Deque[float] = deque(maxlen=MAP_STALE_WINDOW)
        self._map_stale = False

    # ---------------------------------------------------------- arrival side

    def _advance(self) -> None:
        """Generate the next frame into the peek slot (if any remain)."""
        if self._peek is None and not self._generator_done:
            try:
                self._peek = next(self._frames)
            except StopIteration:
                self._generator_done = True

    def next_arrival(self) -> Optional[float]:
        """Arrival time of the next not-yet-ingested frame (None at EOS)."""
        self._advance()
        return self._peek.arrival_time if self._peek is not None else None

    # Admission tolerance, as a fraction of the frame interval: an event
    # loop that advances its clock by repeated float adds drifts a few ulps
    # below the exact arrival grid (e.g. 8 x 0.2 = 1.5999999999999999 vs a
    # frame stamped 1.6); without the slack such a frame would be refused
    # and admitted one full tick late, recording a phantom frame interval
    # of serving latency.
    INGEST_SLACK_FRACTION = 1e-6

    def ingest_ready(self, clock: float) -> int:
        """Admit frames that have arrived by ``clock`` into the ingress queue.

        Stops at the queue bound (backpressure) or at the first frame that
        has not arrived yet; returns the number of frames admitted.  The
        comparison tolerates :data:`INGEST_SLACK_FRACTION` of a frame
        interval of clock drift, so a frame is never deferred a tick by
        float rounding alone.
        """
        slack = self.INGEST_SLACK_FRACTION * self.spec.frame_interval
        admitted = 0
        while len(self._ingress) < self.ingress_capacity:
            self._advance()
            if self._peek is None or self._peek.arrival_time > clock + slack:
                break
            self._ingress.append(self._peek)
            self._peek = None
            admitted += 1
        return admitted

    @property
    def pending(self) -> int:
        """Frames admitted but not yet served."""
        return len(self._ingress)

    def next_pending(self) -> Optional[float]:
        """Arrival time of the queue head (None when the queue is empty)."""
        return self._ingress[0].arrival_time if self._ingress else None

    def serve_pending(self) -> Optional[StreamFrame]:
        """Serve the ingress-queue head; None when nothing is pending."""
        if not self._ingress:
            return None
        stream_frame = self._ingress.popleft()
        self._serve(stream_frame)
        return stream_frame

    # ------------------------------------------------------------- stepping

    @property
    def done(self) -> bool:
        if self._ingress:
            return False
        return self.next_arrival() is None

    def step(self) -> bool:
        """Serve one frame; returns False once the stream is exhausted."""
        if self._ingress:
            self.serve_pending()
            return True
        self._advance()
        if self._peek is None:
            return False
        stream_frame = self._peek
        self._peek = None
        self._serve(stream_frame)
        return True

    def run(self) -> SessionResult:
        """Serve the whole stream to completion, frame by frame."""
        while self.step():
            pass
        return self.result()

    def result(self) -> SessionResult:
        # Stream exhaustion is the final map-exit boundary: flush the last
        # segment's publishable SLAM map exactly once.  Mid-stream callers
        # (telemetry hooks) see ``done`` False and leave the result as-is.
        if not self._final_map_flushed and self.done:
            self._final_map_flushed = True
            self._publish_segment_map()
            self._flush_map_update()
        return self._result

    # ------------------------------------------------------------ internals

    def _serve(self, stream_frame: StreamFrame) -> None:
        """Serve one frame: segment turnover, mode policy, backend, telemetry."""
        frame = stream_frame.frame
        sequence = stream_frame.sequence
        if stream_frame.segment_index != self._segment_index:
            # Leaving a segment is a map-exit boundary: publish its SLAM map
            # and flush the accumulated map-update delta before the backends
            # (and the mapper's state) are rebuilt.
            self._publish_segment_map()
            self._flush_map_update()
            # First frame of a new segment: re-prepare the backends exactly
            # like process_mixed does at segment boundaries.
            self.localizer.prepare(sequence)
            self._result.segment_starts.append(frame.index)
            self._segment_index = stream_frame.segment_index
            self._segment_fresh = True
            self._enter_segment(stream_frame, sequence)

        has_map = sequence.has_prebuilt_map or self._active_fleet_map is not None
        started = time.perf_counter()
        mode = self.policy.decide(frame, has_map=has_map)
        if mode is not self._current_mode:
            self._on_switch(frame, mode, has_map=has_map,
                            fleet_map=self._active_fleet_map is not None
                            and not sequence.has_prebuilt_map)
        self.localizer.mode_selector.override = mode
        estimate = self.localizer.process_frame(frame, sequence)
        self.localizer.collect_last_frame(estimate, self._result.trajectory)
        self._result.frame_wall_ms.append(1000.0 * (time.perf_counter() - started))

        if mode is BackendMode.SLAM:
            self._segment_slam_frames += 1
        elif (mode is BackendMode.REGISTRATION
              and self._active_fleet_map is not None
              and self._map_accumulator is not None):
            self._observe_fleet_map()
        self._current_mode = mode
        self._had_map = has_map
        self._segment_fresh = False

    def _enter_segment(self, stream_frame: StreamFrame, sequence) -> None:
        """Segment-entry map acquisition: install the fleet map, log the event."""
        index = stream_frame.segment_index
        self._segment_environment_id = segment_environment_id(self.spec, index)
        self._segment_slam_frames = 0
        self._active_fleet_map = None
        self._map_accumulator = None
        self._stale_residuals.clear()
        self._map_stale = False
        assignment = self._fleet_maps.get(index)
        if assignment is None or sequence.has_prebuilt_map:
            # A surveyed (prebuilt) map always wins over a fleet map.
            return
        environment_id, snapshot = assignment
        self.localizer.registration = RegistrationBackend.from_snapshot(
            snapshot,
            config=self.localizer.config.backend.tracking,
            camera=sequence.rig.camera,
        )
        self._active_fleet_map = assignment
        self._map_accumulator = MapObservationAccumulator(
            environment_id=environment_id,
            base_version=snapshot.version,
            source=self.spec.stream_id,
            segment_index=index,
        )
        self._result.map_acquisitions.append(MapAcquisition(
            environment_id=environment_id,
            version=snapshot.version,
            quality=snapshot.quality,
            segment_index=index,
            frame_index=stream_frame.frame.index,
            timestamp=stream_frame.frame.timestamp,
        ))

    def _observe_fleet_map(self) -> None:
        """Fold one registration frame's landmark evidence into the update.

        Also runs the staleness check: when the rolling window of tracked
        frames' mean residuals stays above :data:`MAP_STALE_RESIDUAL_M`, the
        fleet map is demoted (the world drifted since it was built) — the
        next frame's policy sees no map and falls back to SLAM, which serves
        honest poses *and* publishes a fresh snapshot at the segment exit.
        The accumulated update survives the demotion: its inflated residuals
        are exactly the evidence the store-side apply needs to prune or
        relocate the drifted landmarks.
        """
        registration = self.localizer.registration
        observations = registration.map_observations if registration is not None else []
        if not observations:
            # An untracked frame contributes no landmark evidence; it does
            # not advance the staleness window either (no measurement).
            return
        frame_residual = self._map_accumulator.observe_frame(observations)
        self._stale_residuals.append(frame_residual)
        if (len(self._stale_residuals) == MAP_STALE_WINDOW
                and min(self._stale_residuals) > MAP_STALE_RESIDUAL_M):
            self._active_fleet_map = None
            self._map_stale = True

    def _flush_map_update(self) -> None:
        """Map-exit flush: reduce the accumulated observations to a delta.

        Mirrors :meth:`_publish_segment_map`: gated on enough registration
        frames and enough distinct landmarks, pure data in the result — the
        engine performs the store write (apply) after the session completes.
        """
        accumulator = self._map_accumulator
        self._map_accumulator = None
        if accumulator is None:
            return
        if accumulator.frame_count < MIN_UPDATE_REGISTRATION_FRAMES:
            return
        if accumulator.landmark_count < MIN_UPDATE_LANDMARKS:
            return
        self._result.map_updates.append(accumulator.to_update())

    def _publish_segment_map(self) -> None:
        """Map-exit publish: snapshot the finished segment's SLAM map.

        Only segments in a *shared* environment publish, and only when SLAM
        actually built something there (enough served SLAM frames, enough
        landmarks).  The snapshot lands in the session result — pure data;
        the engine performs the store write after the session completes, so
        worker processes stay side-effect-free.
        """
        if self._segment_environment_id is None:
            return
        if self._segment_slam_frames < MIN_PUBLISH_SLAM_FRAMES:
            return
        slam = self.localizer.slam
        if slam is None or slam.mapper.map_size < MIN_PUBLISH_LANDMARKS:
            return
        self._result.published_maps.append(snapshot_from_mapper(
            slam.mapper,
            self._segment_environment_id,
            source=self.spec.stream_id,
            segment_index=self._segment_index,
            frame_count=self._segment_slam_frames,
        ))

    def _on_switch(self, frame: Frame, mode: BackendMode, has_map: bool,
                   fleet_map: bool = False) -> None:
        if self._current_mode is None:
            reason = "startup"
        elif self.policy.gps_trusted and mode is BackendMode.VIO:
            reason = "gps_reacquired"
        elif self._current_mode is BackendMode.VIO:
            reason = "gps_lost"
        elif has_map and not self._had_map:
            # A fleet-built map unlocking a *_KNOWN mode is observably
            # different from walking into a surveyed environment.
            reason = "map_acquired" if fleet_map else "map_entry"
        elif self._had_map and not has_map:
            # Losing a map mid-segment happens two ways: the stream left the
            # mapped area (map_exit), or the staleness check demoted a fleet
            # map whose world drifted since it was built (map_stale).
            reason = "map_stale" if self._map_stale else "map_exit"
        else:
            reason = "environment_change"
        if not self._segment_fresh:
            # Mid-segment reconfiguration: re-anchor the incoming backend at
            # the last served estimate so the client's trajectory stays
            # continuous.  At segment boundaries the backends were just
            # re-prepared and bootstrap themselves instead.
            self._handover(mode, frame)
        self._result.mode_switches.append(ModeSwitch(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            from_mode=self._current_mode.value if self._current_mode is not None else None,
            to_mode=mode.value,
            reason=reason,
            segment_index=self._segment_index,
        ))

    def _handover(self, mode: BackendMode, frame: Frame) -> None:
        estimates = self._result.trajectory.estimates
        if not estimates:
            return
        last_pose = estimates[-1].pose
        if mode is BackendMode.VIO and self.localizer.vio is not None:
            self.localizer.vio.reset()
            self.localizer.vio.initialize(last_pose, frame.ground_truth_velocity)
        elif mode is BackendMode.SLAM and self.localizer.slam is not None:
            self.localizer.slam.reset()
            self.localizer.slam.initialize(last_pose)
            # The mapper restarts from scratch: frames served before the
            # reset no longer back the map, so the publish gate's frame
            # count must restart too — otherwise a just-reset one-keyframe
            # fragment (whose window residuals are deceptively near zero)
            # could pass the gate on a stale count and outrank honest
            # multi-keyframe snapshots in the fleet merge.
            self._segment_slam_frames = 0
        elif mode is BackendMode.REGISTRATION and self.localizer.registration is not None:
            # Registration estimates every frame independently, but seeding
            # its projection prior with the last served estimate keeps the
            # visible-map workload anchored at the client's true viewpoint
            # (the same re-anchoring contract the other backends get).
            self.localizer.registration.initialize(last_pose)
