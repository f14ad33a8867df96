"""Streaming multi-session serving layer.

``repro.serving`` multiplexes many concurrent localization *sessions* — one
per client device — over a shared pool of backend workers:

* :mod:`repro.serving.streams` describes time-varying deployments
  (:class:`StreamSpec` / :class:`ScenarioStream`): ordered scenario segments
  with injected GPS dropouts, IMU degradation bursts and map entry/exit.
  :meth:`ScenarioStream.segments` builds the segments lazily, one at a
  time; :func:`frame_records` is the arrival-time view the schedule reads,
  computed from the spec alone on the same segment grid;
  :attr:`StreamSpec.deadline_ms` carries the per-session serving deadline.
* :mod:`repro.serving.session` holds per-client state (:class:`Session`):
  it serves the unified framework segment by segment straight through and
  switches the backend mode online via the Fig. 2 policy with GPS
  hysteresis.
* :mod:`repro.serving.engine` dispatches fleets (:class:`ServingEngine`)
  in two steps: it computes every session straight through (each
  bit-identical to :func:`run_session`, with deterministic per-session
  seeds), then :func:`replay_schedule` replays the arrival-time event loop
  on a virtual clock — per-session ingress queues, capacity sized by
  the latency-aware :class:`~repro.scheduler.LatencyAutoscaler`
  when one is attached.  The schedule reads only the specs, so the split
  changes no result and no latency.  The engine persists results in the
  run store and reports throughput/latency/autoscaling telemetry.
* :mod:`repro.serving.wave` is the wave lifecycle that engine and the
  sharded coordinator (:mod:`repro.cluster`) share: resolve fleet maps,
  dispatch, publish, apply updates, record telemetry and forensics.

With a :class:`~repro.maps.MapStore` attached, the engine also runs the
fleet map service lifecycle: segments naming a shared environment
(:attr:`StreamSegment.environment`) traverse a common landmark world, SLAM
sessions publish map snapshots at segment exits, and later sessions acquire
the merged canonical map — registration displacing SLAM mid-stream, with
the resolved map versions folded into the serving cache keys.
:func:`cold_start_fleet` / :func:`multi_environment_fleet` generate the
matching fleet shapes.
"""

from repro.serving.engine import (
    MODE_FRAME_COST,
    ServingEngine,
    ServingReport,
    replay_schedule,
    run_session,
)
from repro.serving.session import (
    MapAcquisition,
    ModeSwitch,
    ModeSwitchPolicy,
    Session,
    SessionResult,
)
from repro.serving.streams import (
    ScenarioStream,
    StreamSegment,
    StreamSpec,
    cold_start_fleet,
    drift_world,
    drifting_environment_fleet,
    environment_world_seed,
    expected_gps_denied_mode,
    expected_segment_mode,
    frame_records,
    mixed_deployment_stream,
    mixed_fleet,
    multi_environment_fleet,
    random_stream,
    segment_environment_id,
)
from repro.serving.wave import serving_key

__all__ = [
    "MODE_FRAME_COST",
    "MapAcquisition",
    "ModeSwitch",
    "ModeSwitchPolicy",
    "ScenarioStream",
    "ServingEngine",
    "ServingReport",
    "Session",
    "SessionResult",
    "StreamSegment",
    "StreamSpec",
    "cold_start_fleet",
    "drift_world",
    "drifting_environment_fleet",
    "environment_world_seed",
    "expected_gps_denied_mode",
    "expected_segment_mode",
    "frame_records",
    "mixed_deployment_stream",
    "mixed_fleet",
    "multi_environment_fleet",
    "random_stream",
    "replay_schedule",
    "run_session",
    "segment_environment_id",
    "serving_key",
]
