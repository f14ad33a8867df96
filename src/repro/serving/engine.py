"""The serving engine: compute every session, then schedule it on a virtual clock.

:class:`ServingEngine` resolves a fleet of :class:`~repro.serving.streams.StreamSpec`
sessions in three steps:

1. replay what the persistent :class:`~repro.experiments.runner.RunStore`
   holds (session results are content-addressed by spec + code + config
   fingerprints, so a fleet served once is nearly free to serve again);
2. **compute** every other session straight through, exactly as
   :func:`run_session` does;
3. **schedule** the computed sessions with :func:`replay_schedule`, the
   arrival-time event loop on a virtual clock.  Frames are admitted into
   per-session ingress queues as they *arrive* on the clock, and
   each tick serves whatever is ready — across sessions, in deterministic
   ``(arrival, stream_id)`` order, up to the service capacity.  A frame
   served later than it arrived has *serving latency* (the virtual clock
   delta, in whole microseconds), the signal the autoscaler regulates.

The split is exact because the schedule reads nothing a session computes:
only frame arrival times (:func:`~repro.serving.streams.frame_records`,
derived from the spec), per-segment expected costs and the autoscaler.
Every session is a pure function of its spec and resolved maps, so each
:meth:`~repro.serving.session.SessionResult.signature` equals that of
:func:`run_session` on the same spec, and the schedule — ticks, batch
sizes, latencies, misses, scale decisions, SLO events — is the one the
interleaved loop would have produced.  Process parallelism lives one level
up: :class:`repro.cluster.ShardedServingEngine` computes a wave's sessions
in worker processes and replays each shard's schedule with this same
function.

**Autoscaling.**  With a :class:`~repro.scheduler.LatencyAutoscaler`
attached, the engine closes the resource loop of the deployment story:
served virtual latencies are folded into the scaler's rolling window
against each session's ``deadline_ms``, and its grow/shrink decisions
resize the schedule's virtual worker count.  The decision log lands in the
report.

**Fleet maps.**  With a :class:`~repro.maps.MapStore` attached, the engine
runs the cross-session map lifecycle of
:class:`~repro.serving.wave.WaveLifecycle`: before dispatch it resolves the
canonical, quality-gated map of every shared environment the fleet visits
(once per call, so every session sees the same assignment and the resolved
versions can be folded into the serving cache keys), sessions acquire
those maps mid-stream (unlocking registration where they would have run
SLAM), and after serving it publishes every snapshot the fleet's SLAM
segments produced — the maps the *next* wave will register against.

The engine also closes the loop to the runtime offload scheduler
(Sec. VI-B), two ways: :func:`train_offload_scheduler` batch-fits an
accelerator's scheduler from a served fleet's telemetry, and an engine
constructed with ``accelerator=`` feeds every scheduled frame to
:meth:`~repro.scheduler.RuntimeScheduler.observe` in serve order — the
predictor tracks live traffic instead of waiting for a characterization
pass.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import warnings
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.runner import RunStore
from repro.maps import (
    DEFAULT_MIN_MAP_QUALITY,
    MapMerger,
    MapSnapshot,
    MapStore,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, recorder_from_env
from repro.obs.slo import SLOTracker
from repro.obs.trace import Tracer, quantize_us, tracer_from_env
from repro.obs.triage import SIG_OK, classify_session, signature_census
from repro.scheduler.autoscaler import LatencyAutoscaler, ScaleDecision
from repro.serving.session import Session, SessionResult
from repro.serving.streams import (
    StreamSpec,
    expected_gps_denied_mode,
    expected_segment_mode,
    frame_records,
)
from repro.serving.wave import WaveLifecycle
from repro.sensors.dataset import segment_frame_count

# Expected per-frame service cost by backend mode, relative to SLAM — the
# Fig. 2 economics as a sizing constant: sliding-window bundle adjustment +
# marginalization (SLAM) is the expensive mode; registration against a prior
# map and GPS-aided VIO are several times cheaper.  Used only by the
# map-aware autoscaler sizing (the prior and the streaming loop's capacity
# accounting) — never by the localization math, so it cannot perturb served
# results.
MODE_FRAME_COST = {
    "vio": 0.3,
    "registration": 0.35,
    "slam": 1.0,
}


def run_session(spec: StreamSpec,
                maps: Optional[Dict[str, MapSnapshot]] = None) -> SessionResult:
    """Serve one whole session from scratch.

    A pure function of the spec *and* the resolved fleet-map assignment —
    the two inputs the serving cache key covers.
    """
    return Session(spec, maps=maps).run()


@dataclass
class ServingReport:
    """Fleet results plus throughput / latency / autoscaling telemetry.

    Wall latency percentiles are computed over the frames served *in this
    call* (store hits carry stale wall times from the run that computed
    them, so they are excluded from latency aggregates but counted as
    sessions).  ``virtual_latency_ms`` is the streaming loop's
    arrival-to-service delay on the virtual clock — the deadline the
    autoscaler protects — in ms, each a whole number of µs; ``deadline_misses``
    counts its samples past their session's deadline in µs (a frame served
    exactly at it is on time; see ``ServingEngine._account_service_latency``).
    """

    results: Dict[str, SessionResult] = field(default_factory=dict)
    wall_s: float = 0.0
    computed_sessions: int = 0
    store_hits: int = 0
    # The store-hit sessions by stream id (sorted): which results were
    # replayed from the run store rather than computed this call.  The wave
    # lifecycle keys off this so replayed sessions never re-apply their map
    # side effects.
    replayed_streams: List[str] = field(default_factory=list)
    parallel: bool = False
    workers: int = 1
    batch_sizes: List[int] = field(default_factory=list)
    served_frame_wall_ms: List[float] = field(default_factory=list)
    virtual_latency_ms: List[float] = field(default_factory=list)
    deadline_misses: int = 0
    # Virtual-schedule misses broken out per stream — the evidence triage
    # needs to stamp `deadline_miss` on the right session (and the SLO
    # rollups need per-tenant), populated by the same single accounting
    # point as the total.
    deadline_misses_by_stream: Dict[str, int] = field(default_factory=dict)
    # Triage: every finished session's failure signature (see
    # repro.obs.triage) — a pure post-serve derivation from result data,
    # so it is identical for replayed sessions and never enters signature().
    failure_signatures: Dict[str, str] = field(default_factory=dict)
    ticks: int = 0
    scale_decisions: List[ScaleDecision] = field(default_factory=list)
    # Fleet map service: the canonical maps this serve call resolved
    # (environment id -> version), how many snapshots it published back, and
    # the environments whose canonical map the registration sessions'
    # accumulated deltas refreshed post-serve (environment id -> new
    # version) — visible to the *next* wave, never this one.
    fleet_maps: Dict[str, str] = field(default_factory=dict)
    maps_published: int = 0
    maps_updated: Dict[str, str] = field(default_factory=dict)
    # Map-service telemetry (ROADMAP item 5 slice): deltas of the map
    # store's counters over this serve call — canonical resolves served
    # from the memo vs recomputed, the wall latency of each forced merge,
    # and per-environment canonical version churn (recomputes and update
    # applications that changed the version).
    map_resolve_hits: int = 0
    map_resolve_misses: int = 0
    map_merge_ms: List[float] = field(default_factory=list)
    map_version_churn: Dict[str, int] = field(default_factory=dict)

    def add_replayed(self, result: SessionResult) -> None:
        """Add one session replayed from the run store."""
        self.store_hits += 1
        self.replayed_streams.append(result.stream_id)
        self.results[result.stream_id] = result

    def add_computed(self, result: SessionResult) -> None:
        """Add one session computed in this call."""
        self.computed_sessions += 1
        self.results[result.stream_id] = result
        self.served_frame_wall_ms.extend(result.frame_wall_ms)

    @property
    def session_count(self) -> int:
        return len(self.results)

    @property
    def frame_count(self) -> int:
        return sum(result.frame_count for result in self.results.values())

    @property
    def sessions_per_second(self) -> float:
        return self.session_count / max(self.wall_s, 1e-9)

    @property
    def frames_per_second(self) -> float:
        return self.frame_count / max(self.wall_s, 1e-9)

    @property
    def mode_switch_count(self) -> int:
        return sum(len(result.mode_switches) for result in self.results.values())

    @property
    def map_acquisition_count(self) -> int:
        return sum(len(result.map_acquisitions) for result in self.results.values())

    @property
    def map_update_count(self) -> int:
        """MapUpdate deltas the fleet's registration sessions produced."""
        return sum(len(result.map_updates) for result in self.results.values())

    @property
    def map_resolve_hit_rate(self) -> float:
        """Fraction of canonical resolves served from the memo (0 when none)."""
        total = self.map_resolve_hits + self.map_resolve_misses
        return self.map_resolve_hits / total if total else 0.0

    # The serving benchmark still reads the memo counters under the names
    # of the retired per-engine cache, and a stale-serve count that is now
    # always 0 (ROADMAP item 11: delete with the next benchmark change).
    map_staleness_served = 0

    @property
    def map_cache_hits(self) -> int:
        return self.map_resolve_hits

    @property
    def map_cache_misses(self) -> int:
        return self.map_resolve_misses

    def map_merge_percentile(self, percent: float) -> float:
        if not self.map_merge_ms:
            return 0.0
        return float(np.percentile(self.map_merge_ms, percent))

    def failure_census(self) -> Dict[str, int]:
        """Finished sessions per triage failure signature, sorted."""
        return signature_census(self.failure_signatures)

    @property
    def failed_session_count(self) -> int:
        """Sessions triaged into any non-``ok`` signature."""
        return sum(1 for signature in self.failure_signatures.values()
                   if signature != SIG_OK)

    def mode_census(self) -> Dict[str, int]:
        """Served frames per backend mode across the fleet.

        The at-a-glance view of the Fig. 2 economics a serve call realized
        (how much traffic registration displaced from SLAM), used by the
        map-reuse benchmarks and the demo.
        """
        census: Dict[str, int] = {}
        for result in self.results.values():
            for estimate in result.trajectory.estimates:
                census[estimate.mode] = census.get(estimate.mode, 0) + 1
        return census

    def latency_percentile(self, percent: float) -> float:
        if not self.served_frame_wall_ms:
            return 0.0
        return float(np.percentile(self.served_frame_wall_ms, percent))

    def virtual_latency_percentile(self, percent: float) -> float:
        if not self.virtual_latency_ms:
            return 0.0
        return float(np.percentile(self.virtual_latency_ms, percent))

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return float(np.mean(self.batch_sizes))

    @property
    def resize_count(self) -> int:
        return sum(1 for decision in self.scale_decisions if decision.resized)

    @property
    def final_workers(self) -> int:
        if self.scale_decisions:
            return self.scale_decisions[-1].workers_after
        return self.workers

    def summary(self) -> Dict[str, float]:
        """The headline serving metrics (what the benchmark prints)."""
        return {
            "sessions": self.session_count,
            "frames": self.frame_count,
            "wall_s": self.wall_s,
            "sessions_per_second": self.sessions_per_second,
            "frames_per_second": self.frames_per_second,
            "p50_frame_ms": self.latency_percentile(50.0),
            "p95_frame_ms": self.latency_percentile(95.0),
            "p50_serving_ms": self.virtual_latency_percentile(50.0),
            "p95_serving_ms": self.virtual_latency_percentile(95.0),
            "deadline_misses": self.deadline_misses,
            "mode_switches": self.mode_switch_count,
            "mean_batch_size": self.mean_batch_size,
            "store_hits": self.store_hits,
            "computed_sessions": self.computed_sessions,
            "workers": self.workers,
            "final_workers": self.final_workers,
            "resizes": self.resize_count,
            "map_acquisitions": self.map_acquisition_count,
            "maps_published": self.maps_published,
            "map_updates": self.map_update_count,
            "maps_updated": len(self.maps_updated),
            "map_resolve_hit_rate": self.map_resolve_hit_rate,
            "map_merge_p50_ms": self.map_merge_percentile(50.0),
            "failed_sessions": self.failed_session_count,
        }

    def signature(self) -> str:
        """Content-only digest of the wave's served state.

        Covers what serving *computed* — each session's result signature,
        the canonical map assignment it was served against, and the
        canonical versions its update application produced — and none of
        the wall-clock, scheduling, or cache-outcome telemetry.  Two
        reports with equal signatures served the same fleet to the same
        poses against the same maps and left the map store in the same
        state; the sharded engine pins its single-shard report
        bit-identical to the plain engine's with exactly this digest
        (tests/test_cluster.py).
        """
        payload = {
            "sessions": {stream_id: result.signature()
                         for stream_id, result in sorted(self.results.items())},
            "fleet_maps": dict(sorted(self.fleet_maps.items())),
            "maps_updated": dict(sorted(self.maps_updated.items())),
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        """Complete, JSON-stable serialization of the report.

        Everything :meth:`summary` reports plus the fleet-map lifecycle
        state it elides — resolved canonical versions, refreshed versions,
        acquisition/publish/update provenance, resolve hit rate and version
        churn — and a per-session outcome digest keyed by stream id.  Bulky
        raw telemetry (per-frame latency lists, decision reasons) is
        summarized, not dumped: the dict is a wire/log artifact, not a
        pickle substitute.  The key set is pinned by
        ``tests/test_obs_serving.py``; extend the pin when adding fields.
        """
        return {
            "parallel": self.parallel,
            "workers": self.workers,
            "final_workers": self.final_workers,
            "wall_s": self.wall_s,
            "ticks": self.ticks,
            "session_count": self.session_count,
            "computed_sessions": self.computed_sessions,
            "store_hits": self.store_hits,
            "replayed_streams": list(self.replayed_streams),
            "frame_count": self.frame_count,
            "sessions_per_second": self.sessions_per_second,
            "frames_per_second": self.frames_per_second,
            "mean_batch_size": self.mean_batch_size,
            "p50_frame_ms": self.latency_percentile(50.0),
            "p95_frame_ms": self.latency_percentile(95.0),
            "p50_serving_ms": self.virtual_latency_percentile(50.0),
            "p95_serving_ms": self.virtual_latency_percentile(95.0),
            "deadline_misses": self.deadline_misses,
            "mode_census": self.mode_census(),
            "mode_switches": self.mode_switch_count,
            "resizes": self.resize_count,
            "scale_decisions": [asdict(decision) for decision in self.scale_decisions],
            "fleet_maps": dict(sorted(self.fleet_maps.items())),
            "maps_published": self.maps_published,
            "maps_updated": dict(sorted(self.maps_updated.items())),
            "map_acquisition_count": self.map_acquisition_count,
            "map_update_count": self.map_update_count,
            "map_resolve_hits": self.map_resolve_hits,
            "map_resolve_misses": self.map_resolve_misses,
            "map_resolve_hit_rate": self.map_resolve_hit_rate,
            "map_merge_p50_ms": self.map_merge_percentile(50.0),
            "map_version_churn": dict(sorted(self.map_version_churn.items())),
            "failure_census": self.failure_census(),
            "sessions": {
                stream_id: {
                    "frames": result.frame_count,
                    "mode_switches": len(result.mode_switches),
                    "map_acquisitions": len(result.map_acquisitions),
                    "published_maps": len(result.published_maps),
                    "map_updates": len(result.map_updates),
                    "signature": result.signature(),
                    "failure_signature": self.failure_signatures.get(
                        stream_id, SIG_OK),
                    "deadline_misses": self.deadline_misses_by_stream.get(
                        stream_id, 0),
                }
                for stream_id, result in sorted(self.results.items())
            },
        }


class ServingEngine(WaveLifecycle):
    """Multiplexes many localization sessions on one virtual clock.

    The schedule's width is the ``autoscaler``'s; without one, every ready
    frame is served on arrival.  ``max_workers`` sized a process pool the
    engine no longer has: it is accepted only so existing callers keep
    working, has no effect, and warns.
    """

    # Service capacity of one worker in the schedule: frames served
    # per frame interval.  The virtual analogue of a worker's real
    # throughput; with a fleet wider than workers x this, frames queue and
    # serving latency grows — the congestion signal the autoscaler closes on.
    FRAMES_PER_WORKER_TICK = 4

    def __init__(self, store: Optional[RunStore] = None,
                 max_workers: Optional[int] = None,
                 autoscaler: Optional[LatencyAutoscaler] = None,
                 accelerator=None,
                 frames_per_worker_tick: Optional[int] = None,
                 map_store: Optional[MapStore] = None,
                 map_merger: Optional[MapMerger] = None,
                 min_map_quality: float = DEFAULT_MIN_MAP_QUALITY,
                 map_updates: bool = True,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 slo: Optional[SLOTracker] = None,
                 recorder: Optional[FlightRecorder] = None) -> None:
        super().__init__(map_store, map_merger, min_map_quality, map_updates)
        if max_workers is not None:
            warnings.warn("ServingEngine(max_workers=) has no effect; the "
                          "autoscaler sizes the schedule",
                          DeprecationWarning, stacklevel=2)
        self.store = store
        self.autoscaler = autoscaler
        self.accelerator = accelerator
        self.frames_per_worker_tick = max(
            1, int(frames_per_worker_tick if frames_per_worker_tick is not None
                   else self.FRAMES_PER_WORKER_TICK))
        # Map-aware sizing: feed the expected per-frame cost of each
        # session's mode mix (known pre-dispatch once fleet maps resolve)
        # into the autoscaler as a sizing prior, and account schedule
        # capacity in cost units instead of raw frames.  On exactly when a
        # map store is attached: the mode-mix expectation is the map
        # service's knowledge.
        self.map_aware_sizing = map_store is not None
        self._kernel_of: Dict[str, str] = {}
        # Decision-clock continuity: each serve call's virtual clock starts
        # from its own fleet's first arrival, so raw clocks would restart
        # near zero every call and a shared autoscaler's decision log would
        # be unorderable across calls.  The engine therefore offsets every
        # clock it hands the autoscaler (prime and decide alike) by the
        # clock water-mark of the calls served before — the service's
        # metrics endpoint can then order the accumulated log by clock as
        # well as by tick.  Latency accounting always uses the raw virtual
        # clock; the offset is telemetry-only.
        self._decision_clock = 0.0
        # Observability (repro.obs): both hooks are inert when absent — the
        # tracer only ever collects spans (nothing reads it mid-serve, so it
        # cannot perturb results), and every metric site is guarded by a
        # None check.  EUDOXUS_TRACE=1 auto-creates a tracer.
        self.tracer = tracer if tracer is not None else tracer_from_env()
        # SLO plane: per-QoS deadline objectives tracked on the virtual
        # clock (the engine's deterministic domain).  Only ever *recorded
        # into* during a serve call — burn rates are read post-serve (by
        # the recorder's trigger check and the metrics collectors), so an
        # attached tracker cannot perturb results.
        self.slo = slo
        # Flight recorder: forensic bundle capture after a serve call
        # completes.  EUDOXUS_RECORDER=1 auto-creates one.
        self.recorder = recorder if recorder is not None else recorder_from_env()
        self.metrics: Optional[MetricsRegistry] = None
        if metrics is not None:
            self.bind_metrics(metrics)

    def serve(self, specs: Sequence[StreamSpec],
              fleet_maps: Optional[Dict[str, MapSnapshot]] = None) -> ServingReport:
        """Serve a fleet: replay run-store hits, compute and schedule the rest.

        Whatever the schedule's capacity, every session's
        :meth:`SessionResult.signature` equals that of :func:`run_session`
        on its spec and map assignment.

        ``fleet_maps`` pins a pre-resolved canonical map assignment instead
        of resolving one here.  A sharded coordinator
        (:class:`repro.cluster.ShardedServingEngine`) resolves the wave
        once and serves each session it computes in a worker through a
        store-less engine pinned to that session's maps.

        The engine's ``autoscaler`` sizes the schedule's virtual capacity,
        and its ``accelerator``'s offload scheduler observes every served
        frame.
        """
        return self._serve_wave(specs, fleet_maps)

    def _dispatch(self, specs: List[StreamSpec],
                  fleet_maps: Dict[str, MapSnapshot],
                  maps_by_stream: Dict[str, Dict[str, MapSnapshot]]) -> ServingReport:
        """Replay run-store hits, compute the rest, then replay the schedule."""
        report = ServingReport()
        # The virtual-clock offset this call's deterministic spans are
        # shifted by — captured before the schedule advances it.
        trace_offset = self._decision_clock
        cold: List[StreamSpec] = []
        keys: Dict[str, str] = {}
        for spec in specs:
            stored = self._replay_stored(self.store, spec, maps_by_stream, keys)
            if stored is None:
                cold.append(spec)
            else:
                report.add_replayed(stored)
        report.replayed_streams.sort()
        computed = {spec.stream_id: run_session(spec, maps_by_stream.get(spec.stream_id))
                    for spec in cold}
        for stream_id in self._schedule(cold, report, fleet_maps, computed):
            report.add_computed(computed[stream_id])
            if self.store is not None:
                self.store.save_key(keys[stream_id], computed[stream_id])
        self._triage_sessions(report, maps_by_stream)
        self._emit_trace(report, trace_offset)
        return report

    def _schedule(self, specs: List[StreamSpec], report: ServingReport,
                  fleet_maps: Dict[str, MapSnapshot],
                  results: Dict[str, SessionResult]) -> List[str]:
        """Replay this engine's schedule of computed sessions into ``report``.

        Feeds the per-frame hooks — the tracer's ``frame.wait`` spans, the
        SLO tracker and the accelerator's offload scheduler — in serve
        order, and advances the decision-clock water-mark.  Returns the
        stream ids in the order their sessions finished on the clock.
        """
        clock_base = self._decision_clock
        on_serve = None
        if (self.tracer is not None or self.slo is not None
                or self.accelerator is not None):
            # SLO rollups: each deadlined stream maps to the QoS tenant
            # whose contract its deadline matches (resolved once — tenancy
            # cannot change mid-serve).  Streams with no matching target
            # are exempt.
            slo_tenants = ({spec.stream_id: self.slo.tenant_for_deadline(spec.deadline_ms)
                            for spec in specs} if self.slo is not None else {})

            def on_serve(stream_id: str, index: int, arrival_us: int,
                         clock_us: int, on_time: bool) -> None:
                if self.tracer is not None:
                    # Arrival-to-service on the virtual clock: the queueing
                    # delay the autoscaler regulates, one span per frame.
                    self.tracer.span("frame.wait", "engine",
                                     clock_base + arrival_us / 1e6,
                                     (clock_us - arrival_us) / 1e6,
                                     track="ingress", stream=stream_id)
                tenant = slo_tenants.get(stream_id)
                if tenant is not None:
                    # Continuity-offset clock, same domain as the decision
                    # log — burn-rate windows then span serve calls on one
                    # engine instead of restarting at zero.
                    self.slo.record(tenant, clock_base + clock_us / 1e6, on_time)
                if self.accelerator is not None:
                    self._observe_scheduler(
                        results[stream_id].trajectory.backend_results[index])

        finished, self._decision_clock = replay_schedule(
            specs, report, autoscaler=self.autoscaler,
            frames_per_worker_tick=self.frames_per_worker_tick,
            sizing_maps=fleet_maps if self.map_aware_sizing else None,
            clock_base=clock_base, on_serve=on_serve)
        return finished

    @staticmethod
    def _account_service_latency(report: ServingReport, latency_us: int,
                                 deadline_ms: Optional[float], stream_id: str) -> bool:
        """The single accounting point for serving latency vs QoS deadline.

        ``deadline_misses`` counts *virtual-schedule* violations in whole
        microseconds: a frame misses when ``latency_us`` exceeds the deadline
        quantized to µs, so one served exactly at its deadline is on time.
        The per-stream breakout (triage and SLO evidence) is kept in the same
        place so the total and the breakdown cannot drift apart.  Returns the
        on-time verdict, which the SLO tracker records.
        """
        report.virtual_latency_ms.append(latency_us / 1e3)
        on_time = deadline_ms is None or latency_us <= quantize_us(deadline_ms / 1e3)
        if not on_time:
            report.deadline_misses += 1
            report.deadline_misses_by_stream[stream_id] = (
                report.deadline_misses_by_stream.get(stream_id, 0) + 1)
        return on_time

    def _observe_scheduler(self, backend_result) -> None:
        """Feed one served frame's backend result to the offload scheduler."""
        latency = _kernel_training_latency_ms(self.accelerator, backend_result,
                                              self._kernel_of)
        self.accelerator.scheduler.observe(
            backend_result.mode, backend_result.workload, latency)

    # ------------------------------------------------------- map-aware sizing

    @staticmethod
    def _segment_costs(spec: StreamSpec,
                       fleet_maps: Dict[str, MapSnapshot]) -> Tuple[float, ...]:
        """Expected per-frame cost of each segment of one session.

        The pre-dispatch map resolution already decided which segments will
        serve registration instead of SLAM; the cost table converts that
        mode expectation into worker-occupancy units.  GPS-capable
        segments with a *partial* outage serve a blend, so their cost
        interpolates between VIO and the segment's GPS-denied mode by the
        outage probability — a 90%-outage fleet must not be priced (and
        primed) as if it ran VIO.
        """
        mapped = frozenset(fleet_maps)
        costs = []
        for index, segment in enumerate(spec.segments):
            if segment.kind.has_gps:
                outage = float(np.clip(segment.gps_outage_probability, 0.0, 1.0))
                denied = MODE_FRAME_COST[expected_gps_denied_mode(spec, index, mapped)]
                costs.append((1.0 - outage) * MODE_FRAME_COST["vio"]
                             + outage * denied)
            else:
                costs.append(MODE_FRAME_COST[expected_segment_mode(spec, index, mapped)])
        return tuple(costs)

    # -------------------------------------------------------- observability

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Register the engine's metric families and cascade to the attached
        hooks, autoscaler, run store and map plane.  Idempotent — family
        creation returns the existing family on re-registration."""
        self.metrics = registry
        self._m_serves = registry.counter(
            "eudoxus_engine_serve_calls_total", "Serve calls.")
        self._m_sessions = registry.counter(
            "eudoxus_engine_sessions_total",
            "Sessions resolved, by outcome (computed vs run-store hit).",
            ("outcome",))
        self._m_frames = registry.counter(
            "eudoxus_engine_frames_total",
            "Frames served across the fleet (computed and replayed sessions).")
        self._m_mode_frames = registry.counter(
            "eudoxus_engine_mode_frames_total",
            "Frames served per backend mode (the Fig. 2 census).", ("mode",))
        self._m_latency = registry.histogram(
            "eudoxus_engine_serving_latency_ms",
            "Virtual-clock serving latency: arrival to service, per frame.")
        self._m_misses = registry.counter(
            "eudoxus_engine_deadline_misses_total",
            "Frames served past their QoS deadline on the virtual schedule.")
        self._m_switches = registry.counter(
            "eudoxus_engine_mode_switches_total",
            "Online backend mode switches across the fleet.")
        self._m_hit_rate = registry.gauge(
            "eudoxus_engine_map_resolve_hit_rate",
            "Canonical map resolve hit rate of the most recent serve call.")
        self._m_signatures = registry.counter(
            "eudoxus_engine_failure_signatures_total",
            "Finished sessions per triage failure signature.", ("signature",))
        self._bind_map_plane_metrics(registry)
        if self.autoscaler is not None:
            self.autoscaler.bind_metrics(registry)
        if self.store is not None:
            self.store.bind_metrics(registry)

    def _emit_trace(self, report: ServingReport, clock_offset: float) -> None:
        """Fold this call's deterministic span set into the tracer.

        Session-category spans are *derived from result data* post-serve
        (:meth:`SessionResult.trace_spans`), never recorded on the hot path
        — so by the bit-identity contract they are identical whether a
        session was served here, in a shard, or replayed from the store.
        Scheduler instants come from the report's decision log (already on
        the continuity-offset virtual clock).  Emission order is
        deterministic: sorted stream ids, then decisions in log order.
        """
        if self.tracer is None:
            return
        for stream_id in sorted(report.results):
            self.tracer.extend(report.results[stream_id].trace_spans(clock_offset))
        for decision in report.scale_decisions:
            self.tracer.instant(
                f"autoscaler.{decision.action}", "scheduler", decision.clock,
                track="autoscaler", workers_before=decision.workers_before,
                workers_after=decision.workers_after, reason=decision.reason)

    def _record_serve_metrics(self, report: ServingReport) -> None:
        if self.metrics is None:
            return
        self._m_serves.inc()
        self._m_sessions.inc(report.computed_sessions, outcome="computed")
        self._m_sessions.inc(report.store_hits, outcome="store_hit")
        self._m_frames.inc(report.frame_count)
        for mode, count in sorted(report.mode_census().items()):
            self._m_mode_frames.inc(count, mode=mode)
        for latency_ms in report.virtual_latency_ms:
            self._m_latency.observe(latency_ms)
        self._m_misses.inc(report.deadline_misses)
        self._m_switches.inc(report.mode_switch_count)
        if report.map_resolve_hits or report.map_resolve_misses:
            self._m_hit_rate.set(report.map_resolve_hit_rate)
        for signature, count in report.failure_census().items():
            self._m_signatures.inc(count, signature=signature)

    @staticmethod
    def _triage_sessions(report: ServingReport,
                         maps_by_stream: Dict[str, Dict[str, MapSnapshot]]) -> None:
        """Stamp every finished session's failure signature into the report.

        A pure post-serve derivation from result data plus the per-stream
        miss counts and the resolved fleet-map assignment — deterministic
        and always on (the signature vocabulary is how the recorder decides
        to trigger).
        """
        for stream_id in sorted(report.results):
            report.failure_signatures[stream_id] = classify_session(
                report.results[stream_id],
                deadline_misses=report.deadline_misses_by_stream.get(stream_id, 0),
                mapped_environments=maps_by_stream.get(stream_id) or ())


# ------------------------------------------------------ the virtual clock


class _Lane:
    """One stream's position in the schedule: its frame records, the next
    frame to admit and the next to serve.  The ingress queue is the record
    range ``[served, arrived)`` — frames are admitted and served in order."""

    __slots__ = ("spec", "records", "arrived", "served")

    def __init__(self, spec: StreamSpec, records: List[Tuple[float, int, int]]) -> None:
        self.spec = spec
        self.records = records
        self.arrived = 0
        self.served = 0

    def ingest(self, clock_us: int) -> None:
        """Admit every frame that has arrived by ``clock_us``.  Both clocks
        are whole microseconds, so the test is exact."""
        records = self.records
        while self.arrived < len(records) and records[self.arrived][1] <= clock_us:
            self.arrived += 1


def replay_schedule(specs: Sequence[StreamSpec], report: ServingReport, *,
                    autoscaler: Optional[LatencyAutoscaler],
                    frames_per_worker_tick: int,
                    sizing_maps: Optional[Dict[str, MapSnapshot]],
                    clock_base: float = 0.0,
                    on_serve=None) -> Tuple[List[str], float]:
    """The arrival-time event loop, replayed from the specs alone.

    The loop advances a virtual clock over the fleet's frame arrivals
    (:func:`~repro.serving.streams.frame_records`).  Each tick:

    1. every active stream admits frames that have arrived by ``clock_us``
       into its ingress queue;
    2. pending frames are served in ``(arrival, stream_id)`` order, up to
       ``workers x frames_per_worker_tick`` capacity units — one unit per
       frame, or the frame's expected mode cost when ``sizing_maps`` turns
       map-aware sizing on (a registration frame against a resolved fleet
       map occupies a worker for a fraction of what a SLAM frame does);
    3. served latencies (``clock_us - arrival_us``) feed the autoscaler,
       which may resize ``workers`` (grow/shrink with hysteresis) — seeded
       by the map-aware sizing prior, installed before the first tick;
    4. the clock advances one frame interval while a backlog remains, else
       jumps to the next arrival.

    ``clock_us`` is whole microseconds, quantized once per tick from the
    arrival it last jumped to plus ``ticks x tick_interval`` (adding up
    rounded ticks would walk off a 1/30 s grid).  It jumps only when
    nothing is pending, so no latency is negative.

    Ticks, batch sizes, latencies, misses and scale decisions land in
    ``report``; ``on_serve(stream_id, frame_index, arrival_us, clock_us,
    on_time)`` is called for every served frame, in serve order.  Decision
    clocks are offset by ``clock_base`` so consecutive calls on one
    autoscaler produce one monotone log.  Returns the stream ids in the
    order their last frame was served (streams without frames first) and
    the next call's ``clock_base``: one tick past this call's final clock.
    """
    lanes: List[_Lane] = []
    finished: List[str] = []
    for spec in specs:
        records = frame_records(spec)
        if records:
            lanes.append(_Lane(spec, records))
        else:
            finished.append(spec.stream_id)  # complete on arrival
    if not lanes:
        return finished, clock_base
    tick_interval = min(lane.spec.frame_interval for lane in lanes)
    clock_us = min(lane.records[0][1] for lane in lanes)
    segment_costs: Dict[str, Tuple[float, ...]] = {}
    if autoscaler is not None and sizing_maps is not None:
        segment_costs = {lane.spec.stream_id: ServingEngine._segment_costs(
            lane.spec, sizing_maps) for lane in lanes}
        report.scale_decisions.append(_prime_autoscaler(
            autoscaler, [lane.spec for lane in lanes], segment_costs,
            frames_per_worker_tick, clock=clock_base + clock_us / 1e6))
    workers = autoscaler.workers if autoscaler is not None else 1
    # The width serving actually starts at, so final_workers stays truthful
    # even when no scale decision is ever logged.
    report.workers = workers

    active = lanes
    while True:
        if all(lane.arrived == lane.served for lane in active):
            # Nothing is pending, so every active stream has a next
            # arrival: jump to the earliest, the origin ticks count from.
            origin = min((lane.records[lane.arrived] for lane in active),
                         key=lambda record: record[1])[0]
            ticks = 0
        clock_us = quantize_us(origin + ticks * tick_interval)
        report.ticks += 1
        for lane in active:
            lane.ingest(clock_us)
        # The worker pool's service capacity this tick.  The virtual pool
        # is the autoscaler's actuator; without one, the loop serves
        # everything that is ready (no artificial throttle).
        if autoscaler is not None:
            capacity = max(1, workers * frames_per_worker_tick)
        else:
            capacity = float("inf")
        heads = [(lane.records[lane.served][1], lane.spec.stream_id, lane)
                 for lane in active if lane.arrived > lane.served]
        heapq.heapify(heads)
        served = 0
        served_cost = 0.0
        while heads and served_cost < capacity:
            arrival_us, stream_id, lane = heapq.heappop(heads)
            index = lane.served
            lane.served += 1
            served += 1
            # segment_costs has an entry for every lane when map-aware
            # sizing is on — direct indexing lets any violation of that
            # invariant surface instead of silently mis-billing the frame.
            served_cost += (segment_costs[stream_id][lane.records[index][2]]
                            if segment_costs else 1.0)
            latency_us = clock_us - arrival_us
            deadline_ms = lane.spec.deadline_ms
            on_time = ServingEngine._account_service_latency(
                report, latency_us, deadline_ms, stream_id)
            if autoscaler is not None:
                autoscaler.observe(latency_us / 1e3, deadline_ms)
            if on_serve is not None:
                on_serve(stream_id, index, arrival_us, clock_us, on_time)
            if lane.arrived > lane.served:
                heapq.heappush(heads, (lane.records[lane.served][1], stream_id, lane))
        if served:
            report.batch_sizes.append(served)

        still_active: List[_Lane] = []
        for lane in active:
            if lane.served == len(lane.records):
                finished.append(lane.spec.stream_id)
            else:
                still_active.append(lane)
        active = still_active
        if not active:
            return finished, clock_base + clock_us / 1e6 + tick_interval
        # Evaluate the scaler only while streams remain: a decision on the
        # final tick would be logged but could never act.
        if autoscaler is not None:
            decision = autoscaler.decide(clock_base + clock_us / 1e6)
            report.scale_decisions.append(decision)
            workers = decision.workers_after
        ticks += 1


def _prime_autoscaler(autoscaler: LatencyAutoscaler, specs: Sequence[StreamSpec],
                      segment_costs: Dict[str, Tuple[float, ...]],
                      frames_per_worker_tick: int, clock: float = 0.0) -> ScaleDecision:
    """Install the mode-mix sizing prior before the first tick.

    Each session delivers one frame per *its own* frame interval, and the
    event loop ticks at the fleet's fastest interval — so a session's
    per-tick arrival rate is ``tick / frame_interval`` frames (1 for the
    fastest sessions, fractional for slower ones).  The fleet's expected
    demand per tick is the sum of per-session frames-weighted mean costs
    scaled by that rate; dividing by the per-worker tick capacity gives the
    expected steady-state width.  Warm registration-heavy fleets land low,
    cold SLAM-heavy fleets land high — the controller then only has to
    correct the residual error instead of discovering the whole operating
    point through backlog.
    """
    tick_interval = min(spec.frame_interval for spec in specs)
    demand = 0.0
    for spec in specs:
        arrival_rate = tick_interval / spec.frame_interval
        costs = segment_costs.get(spec.stream_id, ())
        if not costs:
            demand += arrival_rate
            continue
        frames = [segment_frame_count(segment.duration, spec.camera_rate_hz)
                  for segment in spec.segments]
        total = sum(frames)
        demand += (arrival_rate
                   * sum(cost * count for cost, count in zip(costs, frames))
                   / max(1, total))
    workers = int(np.ceil(demand / frames_per_worker_tick))
    return autoscaler.prime(
        workers,
        reason=(f"map-aware sizing prior: expected demand "
                f"{demand:.2f} cost-units/tick over {len(specs)} sessions"),
        clock=clock)


# ------------------------------------------------- scheduler telemetry feed


def _kernel_training_latency_ms(accelerator, backend_result,
                                kernel_of: Dict[str, str]) -> float:
    """One frame's training target: the CPU latency (on the accelerator's
    platform) of the mode's variation-contributing kernel — the quantity
    the Sec. VI-B scheduler predicts.  Shared by the batch fit
    (:func:`scheduler_training_samples`) and the engine's online per-frame
    feed, so both train on the same target by construction.
    """
    mode = backend_result.mode
    kernel = kernel_of.setdefault(
        mode, accelerator.backend_model.accelerated_kernel_name(mode))
    cpu = accelerator.cpu_model
    latency = cpu.backend.kernel_ms(mode, backend_result.workload).get(kernel, 0.0)
    return latency * cpu.platform.speed_factor


def scheduler_training_samples(results: Dict[str, SessionResult],
                               accelerator) -> Dict[str, Tuple[List, List[float]]]:
    """Convert served telemetry into offload-predictor training data.

    For every frame the fleet served, the backend workload record and the
    CPU latency of the mode's variation-contributing kernel are extracted
    per mode, exactly like the offline Sec. VII-F characterization does —
    but from live traffic.
    """
    samples: Dict[str, Tuple[List, List[float]]] = {}
    kernel_of: Dict[str, str] = {}
    for result in results.values():
        for backend_result in result.trajectory.backend_results:
            workloads, latencies = samples.setdefault(backend_result.mode, ([], []))
            workloads.append(backend_result.workload)
            latencies.append(_kernel_training_latency_ms(accelerator, backend_result,
                                                         kernel_of))
    return samples


def train_offload_scheduler(results: Dict[str, SessionResult], accelerator,
                            min_samples: int = 4) -> Dict[str, float]:
    """Fit the accelerator's runtime scheduler from serving telemetry.

    Returns the training R^2 per backend mode that had enough traffic.
    """
    fits: Dict[str, float] = {}
    for mode, (workloads, latencies) in scheduler_training_samples(results, accelerator).items():
        if len(workloads) < min_samples:
            continue
        fits[mode] = accelerator.scheduler.train_from_frames(mode, workloads, latencies)
    return fits
