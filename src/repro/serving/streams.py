"""Scenario streams: time-varying deployments for the serving layer.

A :class:`StreamSpec` is a pure, picklable description of one client's
deployment over time: an ordered tuple of :class:`StreamSegment` entries
(scenario kind + duration + injected events) plus the sensor parameters and
the session seed.  Because every random stream in the pipeline is derived
deterministically from the spec, a spec is also the serving layer's unit of
work and cache key: running the same spec serially, in a worker process, or
in a later session produces bit-identical results.

:func:`segment_grid` stitches a spec's segments into one clock and one
frame numbering, from the spec alone; :func:`frame_records` (the arrival
view the engine schedules by) and :class:`ScenarioStream` (which turns a spec
into concrete :class:`~repro.sensors.dataset.SyntheticSequence` segments,
one at a time) both read it.

Injected events mirror the Fig. 2 taxonomy transitions a fleet sees in the
field:

* **indoor/outdoor transitions** — consecutive segments of different kinds;
* **GPS dropout / reacquisition** — an outdoor segment with
  ``gps_outage_probability = 1.0`` sandwiched between healthy segments;
* **map entry / exit** — switching between the ``*_KNOWN`` and
  ``*_UNKNOWN`` variant of the same environment;
* **IMU degradation bursts** — a segment that scales the IMU noise/bias
  densities beyond the scenario default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import SensorConfig
from repro.obs.trace import quantize_us
from repro.sensors.dataset import (
    SequenceBuilder,
    SyntheticSequence,
    segment_frame_count,
    segment_frame_times,
)
from repro.sensors.scenarios import OperatingScenario, ScenarioKind, scenario_catalog
from repro.sensors.world import LandmarkWorld

# Seed stride between the segments of one stream and between the streams of a
# generated fleet.
SEGMENT_SEED_STRIDE = 10
STREAM_SEED_STRIDE = 1000

# The catalog derives trajectory periods from its ``duration`` argument, so
# building a 2 s segment directly would traverse the whole course in 2 s —
# physically absurd dynamics.  Serving segments instead sample the first
# ``duration`` seconds of a trajectory paced for this timescale, keeping
# platform dynamics realistic regardless of how finely a stream is segmented.
TRAJECTORY_TIMESCALE_S = 30.0


@dataclass(frozen=True)
class StreamSegment:
    """One homogeneous stretch of a client's deployment.

    ``imu_noise_scale`` / ``imu_bias_scale`` of ``None`` inherit the
    scenario's own defaults (indoor segments carry the indoor IMU
    degradation); a number overrides them — that is how degradation bursts
    are injected.  ``gps_outage_probability`` raises the scenario's dropout
    probability (1.0 = a full GPS outage for the whole segment).
    """

    kind: ScenarioKind
    duration: float
    gps_outage_probability: float = 0.0
    imu_noise_scale: Optional[float] = None
    imu_bias_scale: Optional[float] = None
    label: str = ""
    # Naming an environment places the segment in a *shared* world: every
    # session whose segment names the same environment (with the same
    # scenario shape) traverses the same landmark world, which is what makes
    # maps published by one session reusable by another.  ``None`` keeps the
    # legacy per-session world.
    environment: Optional[str] = None
    # World drift: a displacement burst applied to the landmark world after
    # generation — ``world_drift_fraction`` of the landmarks move by
    # ~``world_drift_m`` (seeded by ``world_drift_seed``).  This models the
    # physical world changing *between fleet waves* (structure moved,
    # shelving rearranged), so it is deliberately NOT part of the
    # environment id: the fleet still believes it is in the same place, and
    # any previously published map is now silently stale — exactly the
    # condition the map-update lifecycle has to detect and repair.
    world_drift_m: float = 0.0
    world_drift_fraction: float = 0.0
    world_drift_seed: int = 0

    def __post_init__(self) -> None:
        # Inert drift configurations (zero magnitude or zero fraction)
        # normalize to the canonical no-drift triple: they generate the
        # identical world, so they must also hash to the identical cache
        # key — a factory default seed must never split the cache from a
        # hand-built equivalent segment.
        if self.world_drift_m <= 0.0 or self.world_drift_fraction <= 0.0:
            object.__setattr__(self, "world_drift_m", 0.0)
            object.__setattr__(self, "world_drift_fraction", 0.0)
            object.__setattr__(self, "world_drift_seed", 0)

    @property
    def drifted(self) -> bool:
        """Whether this segment's world carries a displacement burst."""
        return self.world_drift_m > 0.0 and self.world_drift_fraction > 0.0

    def payload(self) -> Dict:
        # Floats are serialized exactly (json round-trips repr), not rounded:
        # a worker process rebuilds the segment from this payload, and any
        # quantization here would make the pool serve a *different* segment
        # than the serial path (and collide cache keys across specs).
        payload = {
            "kind": self.kind.value,
            "duration": float(self.duration),
            "gps_outage_probability": float(self.gps_outage_probability),
            "imu_noise_scale": self.imu_noise_scale,
            "imu_bias_scale": self.imu_bias_scale,
            "label": self.label,
            "environment": self.environment,
        }
        # Only-when-present, like every other content digest in this repo:
        # un-drifted segments keep the exact legacy payload shape, so every
        # pre-existing serving cache key survives the feature.
        if self.drifted:
            payload["world_drift_m"] = float(self.world_drift_m)
            payload["world_drift_fraction"] = float(self.world_drift_fraction)
            payload["world_drift_seed"] = int(self.world_drift_seed)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict) -> "StreamSegment":
        return cls(
            kind=ScenarioKind(payload["kind"]),
            duration=payload["duration"],
            gps_outage_probability=payload["gps_outage_probability"],
            imu_noise_scale=payload["imu_noise_scale"],
            imu_bias_scale=payload["imu_bias_scale"],
            label=payload.get("label", ""),
            environment=payload.get("environment"),
            world_drift_m=payload.get("world_drift_m", 0.0),
            world_drift_fraction=payload.get("world_drift_fraction", 0.0),
            world_drift_seed=payload.get("world_drift_seed", 0),
        )


@dataclass(frozen=True)
class StreamSpec:
    """A complete, deterministic description of one serving session.

    ``deadline_ms`` is the per-session serving deadline: the frame latency
    budget the client tolerates between a frame's arrival and its served
    estimate.  It is a quality-of-service contract, not an input to the
    localization math — results are bit-identical with or without it — but
    the engine's autoscaler sizes the worker pool against it.  ``None``
    means best-effort (no deadline).
    """

    stream_id: str
    segments: Tuple[StreamSegment, ...]
    platform_kind: str = "drone"
    camera_rate_hz: float = 5.0
    landmark_count: int = 150
    seed: int = 0
    deadline_ms: Optional[float] = None

    @property
    def frame_count(self) -> int:
        """Total frames the stream will produce (segments never go below 2)."""
        return sum(segment_frame_count(segment.duration, self.camera_rate_hz)
                   for segment in self.segments)

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.camera_rate_hz

    @property
    def environment_ids(self) -> Dict[int, str]:
        """Segment index -> shared-environment id, for segments naming one."""
        ids: Dict[int, str] = {}
        for index in range(len(self.segments)):
            environment_id = segment_environment_id(self, index)
            if environment_id is not None:
                ids[index] = environment_id
        return ids

    def payload(self) -> Dict:
        # Exact float serialization for the same reason as StreamSegment:
        # the payload must reconstruct this spec bit-for-bit in a worker.
        return {
            "stream_id": self.stream_id,
            "segments": [segment.payload() for segment in self.segments],
            "platform_kind": self.platform_kind,
            "camera_rate_hz": float(self.camera_rate_hz),
            "landmark_count": int(self.landmark_count),
            "seed": int(self.seed),
            "deadline_ms": (float(self.deadline_ms)
                            if self.deadline_ms is not None else None),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "StreamSpec":
        return cls(
            stream_id=payload["stream_id"],
            segments=tuple(StreamSegment.from_payload(p) for p in payload["segments"]),
            platform_kind=payload["platform_kind"],
            camera_rate_hz=payload["camera_rate_hz"],
            landmark_count=payload["landmark_count"],
            seed=payload["seed"],
            deadline_ms=payload.get("deadline_ms"),
        )


# --------------------------------------------------------- shared environments


def environment_world_seed(name: str) -> int:
    """Deterministic world seed every session naming ``name`` shares.

    Derived from a cryptographic digest of the environment name (never from
    Python's salted ``hash``), so two processes — or two serving waves days
    apart — generate bit-identical landmark worlds for the same name.
    """
    digest = hashlib.sha256(name.encode()).digest()
    return int.from_bytes(digest[:4], "big")


def segment_environment_id(spec: StreamSpec, index: int) -> Optional[str]:
    """The map-service identity of one segment's environment (None if unshared).

    Two segments share an environment id exactly when they generate the same
    landmark world: same environment name *and* same world determinants
    (scenario kind, duration, frame rate, landmark count).  Folding the
    determinants into the id means a map can never be wrongly served to a
    session whose world merely shares the name.

    Segments whose scenario kind carries a prebuilt survey map are outside
    the map service (the survey map always wins: they never acquire a fleet
    map, and never run the SLAM that would publish one), so they carry no
    environment id — which also keeps their serving cache keys independent
    of map-store evolution they cannot observe.
    """
    segment = spec.segments[index]
    if not segment.environment or segment.kind.has_map:
        return None
    payload = {
        "name": segment.environment,
        "kind": segment.kind.value,
        "duration": float(segment.duration),
        "camera_rate_hz": float(spec.camera_rate_hz),
        "landmark_count": int(spec.landmark_count),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def drift_world(world: LandmarkWorld, drift_m: float, fraction: float,
                seed: int = 0) -> LandmarkWorld:
    """Displace a deterministic subset of a world's landmarks (drift burst).

    Models the physical environment changing between fleet waves: a
    ``fraction`` of the landmarks (chosen by ``seed``) move by a Gaussian
    offset of scale ``drift_m``; identities and appearance are preserved —
    the frontend still recognizes the landmarks, but any map built before
    the burst now points at the wrong positions for the moved subset.  A
    *partial* burst is the interesting regime: the robust registration
    solver anchors on the unmoved majority, so the moved landmarks show up
    as large per-landmark residuals — detectable, and repairable from
    registration observations.
    """
    fraction = float(np.clip(fraction, 0.0, 1.0))
    if drift_m <= 0.0 or fraction <= 0.0 or not len(world):
        return world
    rng = np.random.default_rng(seed)
    moved = rng.random(len(world)) < fraction
    offsets = rng.normal(0.0, drift_m, size=(len(world), 3))
    positions = world.positions.copy()
    positions[moved] += offsets[moved]
    return LandmarkWorld(world.landmark_ids, positions, world.appearance_seeds, is_indoor=world.is_indoor)


def expected_segment_mode(spec: StreamSpec, index: int,
                          mapped_environments: Sequence[str] = ()) -> str:
    """The majority backend mode a segment is *expected* to serve in.

    The engine's map-aware sizing builds on this: given the fleet-map
    assignment resolved before dispatch, each segment's dominant mode
    follows the Fig. 2 taxonomy — GPS available for most frames => VIO,
    map available (surveyed or fleet-built) => registration, otherwise
    SLAM.  It is an *expectation* (the online policy may briefly deviate
    around transitions and the staleness check can demote a drifted map
    mid-segment), good enough to size a worker pool by, not a prediction
    of every frame; the engine's cost estimate additionally interpolates
    partial GPS outages instead of rounding to the majority mode.
    """
    segment = spec.segments[index]
    if segment.kind.has_gps and segment.gps_outage_probability < 0.5:
        return "vio"
    return expected_gps_denied_mode(spec, index, mapped_environments)


def expected_gps_denied_mode(spec: StreamSpec, index: int,
                             mapped_environments: Sequence[str] = ()) -> str:
    """The mode a segment's frames fall onto when GPS is unavailable."""
    segment = spec.segments[index]
    if segment.kind.has_map:
        return "registration"
    environment_id = segment_environment_id(spec, index)
    if environment_id is not None and environment_id in mapped_environments:
        return "registration"
    return "slam"


def segment_grid(spec: StreamSpec) -> Iterator[Tuple[List[float], int]]:
    """Each segment's frame timestamps and first frame index, in order.

    The one place segments are stitched: the next segment starts one frame
    interval after the previous segment's last frame, at the next frame
    index.  The timestamps are :func:`segment_frame_times`, which is what
    :meth:`~repro.sensors.dataset.SequenceBuilder.build` stamps a segment's
    frames with, so they equal the built frames' own timestamps bit for bit.
    """
    start_time = 0.0
    start_index = 0
    for segment in spec.segments:
        times = segment_frame_times(segment.duration, spec.camera_rate_hz,
                                    start_time).tolist()
        yield times, start_index
        start_time = times[-1] + 1.0 / spec.camera_rate_hz
        start_index += len(times)


def frame_records(spec: StreamSpec) -> List[Tuple[float, int, int]]:
    """``(timestamp, arrival_us, segment_index)`` of every frame of a stream.

    What the serving schedule reads of a stream, computed from the spec
    alone through :func:`segment_grid`.  ``arrival_us`` is the timestamp
    quantized once to whole microseconds (a client uploads a frame the moment
    its camera produces it); the schedule compares and subtracts only these
    integers.
    """
    return [(timestamp, quantize_us(timestamp), index)
            for index, (times, _) in enumerate(segment_grid(spec))
            for timestamp in times]


class ScenarioStream:
    """Materializes a :class:`StreamSpec` into sequence segments on demand."""

    def __init__(self, spec: StreamSpec, sensor_config: SensorConfig) -> None:
        self.spec = spec
        self.builder = SequenceBuilder(sensor_config)

    def __len__(self) -> int:
        return len(self.spec.segments)

    def segment_scenario(self, index: int) -> OperatingScenario:
        """The operating scenario for one segment, with event overrides applied."""
        segment = self.spec.segments[index]
        base = scenario_catalog(duration=TRAJECTORY_TIMESCALE_S,
                                landmark_count=self.spec.landmark_count)[segment.kind]
        overrides: Dict = {
            "duration": segment.duration,
            "gps_outage_probability": max(base.gps_outage_probability,
                                          segment.gps_outage_probability),
        }
        if segment.imu_noise_scale is not None:
            overrides["imu_noise_scale"] = segment.imu_noise_scale
        if segment.imu_bias_scale is not None:
            overrides["imu_bias_scale"] = segment.imu_bias_scale
        return replace(base, **overrides)

    def build_segment(self, index: int, start_time: float = 0.0,
                      start_index: int = 0) -> SyntheticSequence:
        """Build segment ``index`` continuing the stream's clock and indices.

        A segment naming a shared environment pins the landmark world to the
        environment's seed (every session in that environment sees the same
        world); the sensor-noise streams stay session-seeded either way.
        """
        segment = self.spec.segments[index]
        world_seed = (environment_world_seed(segment.environment)
                      if segment.environment else None)
        world_mutator = None
        if segment.drifted:
            world_mutator = lambda world: drift_world(  # noqa: E731
                world, segment.world_drift_m, segment.world_drift_fraction,
                seed=segment.world_drift_seed)
        return self.builder.build(
            self.segment_scenario(index),
            start_time=start_time,
            start_index=start_index,
            seed_offset=SEGMENT_SEED_STRIDE * index,
            world_seed=world_seed,
            world_mutator=world_mutator,
        )

    def segments(self) -> Iterator[Tuple[int, SyntheticSequence]]:
        """``(index, sequence)`` of every segment, on the :func:`segment_grid`.

        Lazy: a segment is built only when the iterator reaches it, so a
        stream of any length occupies the memory of a single segment.
        Because segment contents depend only on ``(spec, start_time,
        start_index)``, the frames are bit-identical wherever they are built.
        """
        for index, (times, start_index) in enumerate(segment_grid(self.spec)):
            yield index, self.build_segment(index, start_time=times[0],
                                            start_index=start_index)


# ------------------------------------------------------------------ factories


def mixed_deployment_stream(stream_id: str, seed: int = 0,
                            segment_duration: float = 2.0,
                            platform_kind: str = "drone",
                            camera_rate_hz: float = 5.0,
                            landmark_count: int = 150,
                            rotate: int = 0,
                            dropout: bool = True,
                            deadline_ms: Optional[float] = None,
                            indoor_environment: Optional[str] = None) -> StreamSpec:
    """The paper's 50/25/25 mixed deployment as a time-varying stream.

    Segments follow the Sec. VII-A mix (50 % outdoor, 25 % indoor unmapped,
    25 % indoor mapped); ``rotate`` shifts the segment order so the sessions
    of a fleet transition at different times and in different directions.
    With ``dropout`` the second outdoor stretch contains a full GPS outage
    followed by reacquisition — the event the online mode switcher must
    absorb without losing the client.  ``indoor_environment`` places the
    unmapped indoor stretch in a shared world, so a fleet map published
    there by one session can displace later sessions' SLAM with
    registration.
    """
    half = segment_duration / 2.0
    segments: List[StreamSegment] = [
        StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, segment_duration, label="outdoor"),
        StreamSegment(ScenarioKind.INDOOR_UNKNOWN, segment_duration, label="indoor_entry",
                      environment=indoor_environment),
    ]
    if dropout:
        segments += [
            StreamSegment(ScenarioKind.OUTDOOR_KNOWN, half, label="outdoor_mapped"),
            StreamSegment(ScenarioKind.OUTDOOR_KNOWN, half,
                          gps_outage_probability=1.0, label="gps_dropout"),
            StreamSegment(ScenarioKind.OUTDOOR_KNOWN, half, label="gps_reacquired"),
        ]
    else:
        segments.append(StreamSegment(ScenarioKind.OUTDOOR_KNOWN, segment_duration,
                                      label="outdoor_mapped"))
    segments.append(StreamSegment(ScenarioKind.INDOOR_KNOWN, segment_duration,
                                  label="map_entry"))
    rotate %= len(segments)
    segments = segments[rotate:] + segments[:rotate]
    return StreamSpec(
        stream_id=stream_id,
        segments=tuple(segments),
        platform_kind=platform_kind,
        camera_rate_hz=camera_rate_hz,
        landmark_count=landmark_count,
        seed=seed,
        deadline_ms=deadline_ms,
    )


def random_stream(stream_id: str, seed: int = 0, segment_count: int = 6,
                  segment_duration: float = 2.0, platform_kind: str = "drone",
                  camera_rate_hz: float = 5.0, landmark_count: int = 150,
                  dropout_probability: float = 0.2,
                  imu_burst_probability: float = 0.2,
                  imu_burst_scale: float = 4.0,
                  deadline_ms: Optional[float] = None) -> StreamSpec:
    """A seeded random walk over the Fig. 2 taxonomy with injected events."""
    rng = np.random.default_rng(seed)
    kinds = list(ScenarioKind)
    segments: List[StreamSegment] = []
    for _ in range(segment_count):
        kind = kinds[int(rng.integers(len(kinds)))]
        outage = 0.0
        noise_scale = None
        bias_scale = None
        label = kind.value
        if kind.has_gps and rng.random() < dropout_probability:
            outage = 1.0
            label = "gps_dropout"
        elif kind.is_indoor and rng.random() < imu_burst_probability:
            base = scenario_catalog(duration=segment_duration)[kind]
            noise_scale = base.imu_noise_scale * imu_burst_scale
            bias_scale = base.imu_bias_scale * imu_burst_scale
            label = "imu_burst"
        segments.append(StreamSegment(
            kind=kind,
            duration=segment_duration,
            gps_outage_probability=outage,
            imu_noise_scale=noise_scale,
            imu_bias_scale=bias_scale,
            label=label,
        ))
    return StreamSpec(
        stream_id=stream_id,
        segments=tuple(segments),
        platform_kind=platform_kind,
        camera_rate_hz=camera_rate_hz,
        landmark_count=landmark_count,
        seed=seed,
        deadline_ms=deadline_ms,
    )


def mixed_fleet(count: int, base_seed: int = 0, segment_duration: float = 2.0,
                platform_kind: str = "drone", camera_rate_hz: float = 5.0,
                landmark_count: int = 150,
                deadline_ms: Optional[float] = None,
                indoor_environment: Optional[str] = None) -> List[StreamSpec]:
    """A fleet of mixed-deployment sessions with distinct seeds and phases.

    Every session follows the 50/25/25 mix, but each starts at a different
    point of the cycle (``rotate``) and runs on its own seed, so at any
    instant the fleet spans all four environments — the mixed-deployment
    traffic shape the serving engine is benchmarked on.  With
    ``indoor_environment`` the fleet's unmapped indoor stretches share one
    world, making them eligible for fleet-map reuse.
    """
    return [
        mixed_deployment_stream(
            stream_id=f"session-{i:03d}",
            seed=base_seed + STREAM_SEED_STRIDE * i,
            segment_duration=segment_duration,
            platform_kind=platform_kind,
            camera_rate_hz=camera_rate_hz,
            landmark_count=landmark_count,
            rotate=i,
            deadline_ms=deadline_ms,
            indoor_environment=indoor_environment,
        )
        for i in range(count)
    ]


def cold_start_fleet(count: int, environment: str = "shared-warehouse",
                     base_seed: int = 0, segment_duration: float = 2.0,
                     explore_segments: int = 2, platform_kind: str = "drone",
                     camera_rate_hz: float = 5.0, landmark_count: int = 150,
                     deadline_ms: Optional[float] = None,
                     drift_m: float = 0.0, drift_fraction: float = 0.0,
                     drift_seed: int = 1,
                     prefix: str = "session") -> List[StreamSpec]:
    """A fleet converging on one shared, initially unmapped environment.

    Every session approaches outdoors (VIO) and then works inside the same
    shared indoor world for ``explore_segments`` stretches.  Against an
    empty map store the indoor stretches run SLAM and publish snapshots at
    every segment exit; once the merged fleet map clears the quality gate,
    a later wave of the same shape acquires it and serves the identical
    segments through registration instead — the cold-start -> warm-map
    transition the map-reuse benchmark measures.

    ``drift_m``/``drift_fraction``/``drift_seed`` optionally place the
    shared world *after* a landmark-displacement burst (see
    :func:`drifting_environment_fleet` for the lifecycle this exercises);
    the defaults keep the un-drifted world.
    """
    fleet: List[StreamSpec] = []
    for i in range(count):
        segments: List[StreamSegment] = [
            StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, segment_duration,
                          label="approach"),
        ]
        for k in range(max(1, int(explore_segments))):
            segments.append(StreamSegment(
                ScenarioKind.INDOOR_UNKNOWN, segment_duration,
                label=f"{environment}#{k}", environment=environment,
                world_drift_m=float(drift_m),
                world_drift_fraction=float(drift_fraction),
                world_drift_seed=int(drift_seed),
            ))
        fleet.append(StreamSpec(
            stream_id=f"{prefix}-{i:03d}",
            segments=tuple(segments),
            platform_kind=platform_kind,
            camera_rate_hz=camera_rate_hz,
            landmark_count=landmark_count,
            seed=base_seed + STREAM_SEED_STRIDE * i,
            deadline_ms=deadline_ms,
        ))
    return fleet


def drifting_environment_fleet(count: int, environment: str = "shifting-depot",
                               **kwargs) -> List[StreamSpec]:
    """A cold-start-shaped fleet over a shared world that can *drift*.

    Identical traffic shape to :func:`cold_start_fleet` (it delegates), but
    named for the lifecycle it exercises: the shared world carries a
    displacement burst — ``drift_fraction`` of the landmarks moved by
    ~``drift_m`` since the environment was named (``drift_m=0`` is the
    pre-drift wave).  The environment id is unchanged by drift — the fleet
    still resolves and acquires whatever map was published before the
    burst — so serving a post-drift wave exercises the full staleness
    lifecycle: registration residuals spike on the moved landmarks,
    sessions demote the stale map (``map_stale``) and fall back to SLAM,
    their accumulated :class:`~repro.maps.update.MapUpdate` deltas
    prune/relocate the moved landmarks, and the *next* wave registers
    against the repaired canonical.
    """
    return cold_start_fleet(count, environment=environment, **kwargs)


def multi_environment_fleet(count: int,
                            environments: Sequence[str] = ("atrium", "warehouse"),
                            base_seed: int = 0, segment_duration: float = 2.0,
                            platform_kind: str = "drone",
                            camera_rate_hz: float = 5.0,
                            landmark_count: int = 150,
                            deadline_ms: Optional[float] = None,
                            prefix: str = "session") -> List[StreamSpec]:
    """A fleet touring several shared worlds in session-rotated order.

    Session ``i`` visits every named environment, starting ``i`` positions
    into the tour, so at any instant different sessions occupy different
    environments — some publishing maps where the store is cold, some
    registering against maps earlier sessions built.
    """
    if not environments:
        raise ValueError("multi_environment_fleet needs at least one environment")
    fleet: List[StreamSpec] = []
    for i in range(count):
        tour = [environments[(i + k) % len(environments)]
                for k in range(len(environments))]
        segments: List[StreamSegment] = [
            StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, segment_duration,
                          label="transit"),
        ]
        for name in tour:
            segments.append(StreamSegment(
                ScenarioKind.INDOOR_UNKNOWN, segment_duration,
                label=name, environment=name,
            ))
        fleet.append(StreamSpec(
            stream_id=f"{prefix}-{i:03d}",
            segments=tuple(segments),
            platform_kind=platform_kind,
            camera_rate_hz=camera_rate_hz,
            landmark_count=landmark_count,
            seed=base_seed + STREAM_SEED_STRIDE * i,
            deadline_ms=deadline_ms,
        ))
    return fleet
