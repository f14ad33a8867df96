"""Horizontally sharded serving: N shard schedules, one map store, zero RPC.

:class:`ShardedServingEngine` scales :class:`~repro.serving.ServingEngine`
past one process on one box.  A fleet is consistent-hashed on
``stream_id`` across N shards (:class:`~repro.cluster.ring.HashRing` —
fixed hash slots, rebalanced by slot reassignment), each shard a virtual
clock with its own :class:`~repro.scheduler.LatencyAutoscaler` and
decision-clock water-mark, both kept in the coordinator.  The coordinator
runs the same :class:`~repro.serving.wave.WaveLifecycle` as the plain
engine; only its dispatch step differs (partition, compute, schedule,
merge):

* the coordinator resolves the wave's canonical map assignment once,
  pre-dispatch, and replays run-store hits itself;
* **compute**: every other session of the wave is one payload to
  :func:`~repro.experiments.runner.fan_out` — the one dispatch path, run on
  the engine's :class:`~repro.experiments.runner.WorkerPool` when
  ``EUDOXUS_MAX_WORKERS`` allows and a pool forks, in-process otherwise.
  A payload is the spec plus the session's resolved snapshots, served by a
  store-less ``ServingEngine`` pinned to them (``serve([spec],
  fleet_maps=...)``), so workers never resolve, merge, publish or apply;
  the worker saves the result to the shared run store under the key the
  coordinator looked up.  Payloads are submitted in decreasing expected
  cost (``_expected_session_cost``) and the pool hands them out in submit
  order: longest-first list scheduling, so no worker waits on a static
  half of the fleet;
* **schedule**: each shard's virtual clock is replayed in the coordinator
  with :func:`~repro.serving.engine.replay_schedule`, the plain engine's
  own loop — the schedule reads only the specs, the resolved maps and the
  autoscaler, never what the sessions computed, so the shard's ticks,
  latencies, misses and scale decisions do not depend on where or in
  which order its sessions were computed;
* after the wave, the coordinator publishes the whole wave's snapshots and
  folds its ``MapUpdate`` deltas through one store handle — computed
  snapshots before any replayed re-seed, deltas sorted inside
  :meth:`~repro.maps.MapStore.apply_updates` — so the store state is
  independent of shard count and completion order;
* a computed session lands in the shared run store under the same
  ``serving_key`` as on the plain engine, so a stream rebalanced to
  another shard replays from cache instead of recomputing.

**Determinism contract.**  Sessions are pure functions of
``(spec, resolved maps)``, so shard count, slot assignment, and in-process
vs worker-process execution cannot change a single served pose.  The
merged report's signature is pinned bit-identical to the plain engine's
(tests/test_cluster.py), and its schedule to the golden control plane
(tests/test_serving_golden.py).

**Worker lifetime.**  The workers belong to one engine.  Nothing forks at
construction.  The engine's first wave reads ``EUDOXUS_MAX_WORKERS``, which
fixes the pool's width until :meth:`ShardedServingEngine.close`; the first
wave that fans out forks the pool, and every later wave reuses it, so a
worker keeps its memos and its run-store handle from wave to wave.  A worker
that dies mid-wave costs only its lost payloads, which rerun in-process; the
broken pool is discarded and the next wave forks a fresh one.  ``close()``
(or leaving a ``with`` block) joins the workers, and so does dropping the
engine unclosed.

**Rebalancing.**  After each wave the coordinator feeds the per-shard
deadline pressure (from the autoscalers' decision logs) and the expected
per-slot serving cost (the ``MODE_FRAME_COST`` economics over the resolved
maps — the cross-environment sizing prior, applied at partition time) to a
:class:`~repro.cluster.rebalance.ShardRebalancer`, which moves hash slots
from the hottest shard to the coolest between waves.
"""

from __future__ import annotations

import contextlib
import os
import time
import warnings
import weakref
from functools import lru_cache
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    RunStore,
    WorkerPool,
    fan_out,
    resolve_max_workers,
)
from repro.maps import DEFAULT_MIN_MAP_QUALITY, MapMerger, MapSnapshot, MapStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, recorder_from_env
from repro.obs.slo import SLOTracker
from repro.obs.trace import Tracer, tracer_from_env
from repro.scheduler.autoscaler import LatencyAutoscaler
from repro.sensors.dataset import segment_frame_count
from repro.serving.engine import ServingEngine, ServingReport, replay_schedule
from repro.serving.session import SessionResult
from repro.serving.streams import StreamSpec
from repro.serving.wave import WaveLifecycle
from repro.cluster.rebalance import RebalanceDecision, ShardRebalancer
from repro.cluster.ring import HashRing

__all__ = [
    "SHARDS_ENV",
    "ShardedServingEngine",
    "ShardedServingReport",
    "resolve_shard_count",
]

SHARDS_ENV = "EUDOXUS_SHARDS"

#: Rebalance decisions kept for the service metrics endpoint — bounded like
#: every other decision log in the stack.
REBALANCE_LOG_LIMIT = 1024


def resolve_shard_count(shards: Optional[int] = None) -> int:
    """Explicit argument > ``EUDOXUS_SHARDS`` > 1 (unsharded)."""
    if shards is not None:
        return int(shards)
    raw = os.environ.get(SHARDS_ENV, "").strip()
    return int(raw) if raw else 1


def _store_bounds(store: RunStore) -> Tuple[float, float]:
    """A store's bounds in constructor form (None = disabled -> -1)."""
    return (-1.0 if store.max_bytes is None else float(store.max_bytes),
            -1.0 if store.max_age_s is None else float(store.max_age_s))


@lru_cache(maxsize=4)
def _run_store_handle(root: str, bounds: Tuple[float, float]) -> RunStore:
    """One handle per store for the life of the process: constructing a
    ``RunStore`` sweeps its directory, which a worker need not repeat for
    every session it saves."""
    return RunStore(root, *bounds)


def _serve_session_payload(payload: Dict) -> ServingReport:
    """Compute one session of a wave; ``fan_out`` runs it in a worker
    process or in-process, and nothing here depends on which.

    The engine has no store, autoscaler, tracer, recorder or SLO tracker —
    whatever ``EUDOXUS_TRACE`` / ``EUDOXUS_RECORDER`` say: the coordinator
    looks results up, schedules, publishes, traces and captures at most one
    bundle from the merged report.  The session's map assignment arrives
    whole (``fleet_maps``: the canonical snapshots the coordinator resolved
    for it, a few KB each).  With ``run_store`` set — the coordinator's
    store root, bounds and the session's ``serving_key`` — the result is
    saved here, off the coordinator, through this process's handle on the
    shared root (the content-addressed layout makes concurrent handles
    safe).
    """
    spec = StreamSpec.from_payload(payload["spec"])
    engine = ServingEngine()
    engine.tracer = engine.recorder = None
    report = engine.serve([spec], fleet_maps=payload["fleet_maps"])
    if payload["run_store"] is not None:
        root, bounds, key = payload["run_store"]
        _run_store_handle(root, bounds).save_key(key, report.results[spec.stream_id])
    return report


@dataclass
class ShardedServingReport(ServingReport):
    """A :class:`ServingReport` merged across shards, plus the breakdown.

    The merged view is consumer-compatible with the plain report (union of
    results, concatenated telemetry, summed counters, coordinator-measured
    ``wall_s``); the extra fields carry what only a cluster has — which
    shard served which stream, the per-shard reports, the slot assignment
    after this wave, and the rebalance decisions it triggered.
    """

    shard_count: int = 0
    shard_of: Dict[str, int] = field(default_factory=dict)
    shard_reports: List[Optional[ServingReport]] = field(default_factory=list)
    rebalances: List[RebalanceDecision] = field(default_factory=list)
    slot_assignment: Tuple[int, ...] = ()

    @property
    def final_workers(self) -> int:
        """Total cluster width: the sum of per-shard final widths.

        The base report reads its last scale decision, but the merged
        decision log concatenates per-shard logs — its tail is just the
        last *shard's* width, not the cluster's.
        """
        if self.shard_reports:
            return sum(rep.final_workers for rep in self.shard_reports
                       if rep is not None)
        return ServingReport.final_workers.fget(self)

    def shard_summary(self) -> List[Dict[str, object]]:
        """One row per shard (empty shards report zeros, not gaps)."""
        rows = []
        for shard in range(self.shard_count):
            rep = (self.shard_reports[shard]
                   if shard < len(self.shard_reports) else None)
            if rep is None:
                rows.append({"shard": shard, "sessions": 0, "frames": 0,
                             "computed_sessions": 0, "store_hits": 0,
                             "deadline_misses": 0, "failures": 0,
                             "final_workers": 0,
                             "p95_serving_ms": 0.0, "wall_s": 0.0})
                continue
            rows.append({
                "shard": shard,
                "sessions": rep.session_count,
                "frames": rep.frame_count,
                "computed_sessions": rep.computed_sessions,
                "store_hits": rep.store_hits,
                "deadline_misses": rep.deadline_misses,
                "failures": rep.failed_session_count,
                "final_workers": rep.final_workers,
                "p95_serving_ms": rep.virtual_latency_percentile(95.0),
                "wall_s": rep.wall_s,
            })
        return rows

    def summary(self) -> Dict[str, float]:
        payload = super().summary()
        payload["shards"] = self.shard_count
        payload["rebalanced_slots"] = sum(len(d.slots) for d in self.rebalances)
        return payload

    def as_dict(self) -> Dict[str, object]:
        payload = super().as_dict()
        payload["shard_count"] = self.shard_count
        payload["shard_of"] = dict(sorted(self.shard_of.items()))
        payload["shards"] = self.shard_summary()
        payload["rebalances"] = [asdict(d) for d in self.rebalances]
        payload["slot_assignment"] = list(self.slot_assignment)
        return payload


class ShardedServingEngine(WaveLifecycle):
    """N shard schedules behind one serve() call.

    Construction mirrors the plain engine where the concepts coincide; the
    per-shard pieces take factories.  ``run_store`` / ``map_store`` are the
    *coordinator's* handles, and only the coordinator touches them: a
    session payload carries its resolved snapshots (``fleet_maps``), so a
    worker neither reads a store nor merges.  Per shard, the coordinator
    keeps the controller state its schedule runs on: ``autoscalers[i]``
    and ``decision_clocks[i]``.  ``max_workers_per_shard`` and
    ``shard_parallel`` chose a per-shard pool and the shard executor, both
    gone: they are accepted only so existing callers keep working, have no
    effect, and warn.

    The engine owns its worker processes (see the module docstring):
    :meth:`close` joins them, and ``with ShardedServingEngine(...) as
    engine:`` closes on exit.
    """

    def __init__(self, shards: Optional[int] = None, *,
                 run_store: Optional[RunStore] = None,
                 map_store: Optional[MapStore] = None,
                 map_merger: Optional[MapMerger] = None,
                 min_map_quality: float = DEFAULT_MIN_MAP_QUALITY,
                 map_updates: bool = True,
                 autoscaler_factory: Optional[
                     Callable[[int], Optional[LatencyAutoscaler]]] = None,
                 max_workers_per_shard: Optional[int] = None,
                 frames_per_worker_tick: Optional[int] = None,
                 slot_count: Optional[int] = None,
                 rebalancer: Optional[ShardRebalancer] = None,
                 shard_parallel: Optional[bool] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 slo: Optional[SLOTracker] = None,
                 recorder: Optional[FlightRecorder] = None) -> None:
        self.shard_count = resolve_shard_count(shards)
        if self.shard_count < 1:
            raise ValueError("shards must be >= 1")
        super().__init__(map_store, map_merger, min_map_quality, map_updates)
        self.ring = HashRing(self.shard_count, slot_count)
        self.rebalancer = rebalancer if rebalancer is not None else ShardRebalancer()
        self.run_store = run_store
        if max_workers_per_shard is not None:
            warnings.warn("ShardedServingEngine(max_workers_per_shard=) has no "
                          "effect; each shard's autoscaler sizes its loop",
                          DeprecationWarning, stacklevel=2)
        if shard_parallel is not None:
            warnings.warn("ShardedServingEngine(shard_parallel=) has no effect; "
                          "fan_out picks the shard executor from "
                          "EUDOXUS_MAX_WORKERS", DeprecationWarning, stacklevel=2)
        self.autoscalers: List[Optional[LatencyAutoscaler]] = [
            autoscaler_factory(shard) if autoscaler_factory is not None else None
            for shard in range(self.shard_count)
        ]
        # Each shard's decision-clock water-mark (see ServingEngine), so a
        # shard's decision log stays monotone in clock across waves.
        self.decision_clocks: List[float] = [0.0] * self.shard_count
        self.frames_per_worker_tick = max(1, int(
            frames_per_worker_tick if frames_per_worker_tick is not None
            else ServingEngine.FRAMES_PER_WORKER_TICK))
        self.waves_served = 0
        self.rebalance_log: List[RebalanceDecision] = []
        self.tracer = tracer if tracer is not None else tracer_from_env()
        # Coordinator-level SLO plane: per-session outcomes recorded once
        # per wave, rolled up per tenant AND per shard.  The clock is the
        # wave counter — deterministic by construction, so cluster burn
        # rates (and the forensic bundles that embed them) replay
        # bit-identically.
        self.slo = slo
        # One recorder for the whole cluster: triggers are evaluated on the
        # *merged* report, so a failure census split across shards still
        # crosses its thresholds.
        self.recorder = recorder if recorder is not None else recorder_from_env()
        self.metrics: Optional[MetricsRegistry] = None
        if metrics is not None:
            self.bind_metrics(metrics)
        # The wave's worker pool: created by the first wave that fans out,
        # joined by close() or, for an engine dropped unclosed, by the
        # finalizer (which must not hold the engine itself).
        self._pool: Optional[WorkerPool] = None
        self._close_pool: Optional[weakref.finalize] = None

    # ------------------------------------------------------------ lifetime

    def close(self) -> None:
        """Join the engine's worker processes (idempotent).  A later wave
        would fork a fresh pool."""
        if self._close_pool is not None:
            self._close_pool()
        self._pool = self._close_pool = None

    def __enter__(self) -> "ShardedServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _worker_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(resolve_max_workers(None))
            self._close_pool = weakref.finalize(self, self._pool.close)
        return self._pool

    # ------------------------------------------------------------ serving

    def serve(self, specs: Sequence[StreamSpec]) -> ShardedServingReport:
        """Partition the fleet by the ring, compute every session, replay
        each shard's schedule, merge.

        Sessions fan out through ``fan_out`` on the engine's worker pool
        (worker processes when the width allows, else in-process).  Results
        and schedules are bit-identical either way — see the module
        docstring for why.
        """
        return self._serve_wave(specs)

    def _dispatch(self, specs: List[StreamSpec],
                  fleet_maps: Dict[str, MapSnapshot],
                  maps_by_stream: Dict[str, Dict[str, MapSnapshot]]
                  ) -> ShardedServingReport:
        started = time.perf_counter()
        shard_specs: List[List[StreamSpec]] = [[] for _ in range(self.shard_count)]
        shard_of: Dict[str, int] = {}
        for spec in specs:
            shard = self.ring.shard_for(spec.stream_id)
            shard_of[spec.stream_id] = shard
            shard_specs[shard].append(spec)
        loaded = [shard for shard in range(self.shard_count) if shard_specs[shard]]
        shard_reports: List[Optional[ServingReport]] = [None] * self.shard_count
        # Seconds from dispatch to each shard's last finished session.
        finished_at = [0.0] * self.shard_count
        keys: Dict[str, str] = {}
        cold: List[StreamSpec] = []
        for shard in loaded:
            shard_report = shard_reports[shard] = ServingReport(ingestion="streaming")
            for spec in shard_specs[shard]:
                stored = self._replay_stored(self.run_store, spec, maps_by_stream, keys)
                if stored is None:
                    cold.append(spec)
                else:
                    shard_report.add_replayed(stored)
            shard_report.replayed_streams.sort()
            finished_at[shard] = time.perf_counter() - started
        # Longest first: the pool hands payloads out in submit order.
        cold.sort(key=lambda spec: -self._expected_session_cost(spec, fleet_maps))
        payloads = [{"spec": spec.payload(),
                     "fleet_maps": maps_by_stream[spec.stream_id],
                     "run_store": (None if self.run_store is None else
                                   (str(self.run_store.root),
                                    _store_bounds(self.run_store),
                                    keys[spec.stream_id]))}
                    for spec in cold]
        computed: Dict[str, SessionResult] = {}
        spawned = [False]
        pool = self._worker_pool()
        width = min(len(payloads), pool.max_workers)
        with self._maybe_wall_span("cluster.wave", shards=len(loaded),
                                   width=width):
            for index, session_report in fan_out(
                    _serve_session_payload, payloads, width,
                    on_pool=lambda: spawned.__setitem__(0, True), pool=pool):
                stream_id = cold[index].stream_id
                computed[stream_id] = session_report.results[stream_id]
                finished_at[shard_of[stream_id]] = time.perf_counter() - started
        for shard in loaded:
            shard_report = shard_reports[shard]
            finished, self.decision_clocks[shard] = replay_schedule(
                [spec for spec in shard_specs[shard] if spec.stream_id in computed],
                shard_report, autoscaler=self.autoscalers[shard],
                frames_per_worker_tick=self.frames_per_worker_tick,
                # Shards serve maps resolved by the coordinator, so they
                # size like a map-backed engine whenever it has a store.
                sizing_maps=fleet_maps if self.map_store is not None else None,
                clock_base=self.decision_clocks[shard])
            for stream_id in finished:
                shard_report.add_computed(computed[stream_id])
            ServingEngine._triage_sessions(shard_report, maps_by_stream)
            shard_report.wall_s = finished_at[shard]
        report = self._merge(shard_reports, shard_of, parallel=spawned[0])
        self._record_slo(report)
        report.rebalances = self._rebalance(specs, shard_reports, fleet_maps)
        report.slot_assignment = self.ring.assignment()
        self._emit_trace(report)
        return report

    # ------------------------------------------------------------ merging

    def _merge(self, shard_reports: List[Optional[ServingReport]],
               shard_of: Dict[str, int], parallel: bool) -> ShardedServingReport:
        report = ShardedServingReport(shard_count=self.shard_count)
        report.shard_of = shard_of
        report.shard_reports = shard_reports
        report.ingestion = "streaming" if shard_of else ""
        report.parallel = parallel
        workers = 0
        for shard_report in shard_reports:
            if shard_report is None:
                continue
            report.results.update(shard_report.results)
            report.computed_sessions += shard_report.computed_sessions
            report.store_hits += shard_report.store_hits
            report.replayed_streams.extend(shard_report.replayed_streams)
            report.batch_sizes.extend(shard_report.batch_sizes)
            report.served_frame_wall_ms.extend(shard_report.served_frame_wall_ms)
            report.virtual_latency_ms.extend(shard_report.virtual_latency_ms)
            report.deadline_misses += shard_report.deadline_misses
            # Stream ids are disjoint across shards (the ring partitions
            # them), so the per-stream folds are plain unions.
            report.deadline_misses_by_stream.update(
                shard_report.deadline_misses_by_stream)
            report.failure_signatures.update(shard_report.failure_signatures)
            report.ticks += shard_report.ticks
            report.scale_decisions.extend(shard_report.scale_decisions)
            workers += shard_report.workers
        report.replayed_streams.sort()
        report.workers = workers if workers else self.shard_count
        return report

    # ---------------------------------------------------------------- SLO

    def _record_slo(self, report: ShardedServingReport) -> None:
        """Fold the wave's per-session deadline outcomes into the tracker.

        One event per deadlined session, under both the fleet-wide rollup
        and the shard that served it.  The clock is the wave ordinal —
        monotone and deterministic — so burn rates answer "what fraction
        of the last N waves' sessions missed", independent of wall time.
        """
        if self.slo is None:
            return
        clock = float(self.waves_served + 1)
        for stream_id in sorted(report.results):
            result = report.results[stream_id]
            tenant = self.slo.tenant_for_deadline(
                result.spec_payload.get("deadline_ms"))
            if tenant is None:
                continue
            ok = report.deadline_misses_by_stream.get(stream_id, 0) == 0
            self.slo.record(tenant, clock, ok,
                            shard=str(report.shard_of.get(stream_id, "")))

    # --------------------------------------------------------- rebalancing

    def _expected_session_cost(self, spec: StreamSpec,
                               fleet_maps: Dict[str, MapSnapshot]) -> float:
        """Expected cost-units of one whole session, given the maps
        resolvable now — the same per-environment ``MODE_FRAME_COST``
        expectation the shard autoscalers prime on, reused at partition
        time so capacity splits by expected cost rather than stream count
        (a SLAM-bound cold-environment stream weighs ~3x a registration-
        bound one)."""
        costs = ServingEngine._segment_costs(spec, fleet_maps)
        frames = [segment_frame_count(segment.duration, spec.camera_rate_hz)
                  for segment in spec.segments]
        return float(sum(cost * count for cost, count in zip(costs, frames)))

    def _rebalance(self, specs: List[StreamSpec],
                   shard_reports: List[Optional[ServingReport]],
                   fleet_maps: Dict[str, MapSnapshot]) -> List[RebalanceDecision]:
        self.waves_served += 1
        if self.rebalancer is None or self.shard_count < 2 or not specs:
            return []
        pressures = [self._shard_pressure(shard_report)
                     for shard_report in shard_reports]
        slot_costs: Dict[int, float] = {}
        for spec in specs:
            slot = self.ring.slot_of(spec.stream_id)
            slot_costs[slot] = (slot_costs.get(slot, 0.0)
                                + self._expected_session_cost(spec, fleet_maps))
        decisions = self.rebalancer.rebalance(self.ring, pressures, slot_costs,
                                              wave=self.waves_served)
        self.rebalance_log.extend(decisions)
        del self.rebalance_log[:-REBALANCE_LOG_LIMIT]
        return decisions

    @staticmethod
    def _shard_pressure(shard_report: Optional[ServingReport]) -> float:
        """The shard's final observed deadline pressure this wave (0.0 for
        an idle shard, a shard without an autoscaler, or a wave that only
        ever primed)."""
        if shard_report is None:
            return 0.0
        for decision in reversed(shard_report.scale_decisions):
            if decision.action != "prime":
                return float(decision.pressure)
        return 0.0

    # ----------------------------------------------------------- admission

    def saturated_for(self, stream_id: str) -> bool:
        """Admission probe: is the shard this stream would land on saturated?

        The pinned aggregate semantics (tests/test_service.py and
        tests/test_cluster.py): a request sheds on the saturation of its
        *target* shard only — one hot shard must not shed traffic bound for
        idle shards.  The probe follows the live ring, so after a rebalance
        a stream is judged by its new shard immediately; and a saturated
        shard's next wave re-primes its scaler, which clears the flag.
        """
        scaler = self.autoscalers[self.ring.shard_for(stream_id)]
        return bool(scaler.saturated) if scaler is not None else False

    @property
    def saturated(self) -> bool:
        """Cluster-wide saturation: every shard's actuator is exhausted.

        The conservative aggregate for callers without a stream id (health
        endpoint, zero-arg admission fallback): with any shard unsaturated,
        the rebalancer can still move load there, so the cluster as a whole
        is not out of capacity.
        """
        scalers = [scaler for scaler in self.autoscalers if scaler is not None]
        return bool(scalers) and all(scaler.saturated for scaler in scalers)

    @property
    def pinned_capacity(self) -> Optional[int]:
        """The cluster's pinned per-tick service capacity (the admission
        controller's tightened inflight bound), or None without scalers."""
        scalers = [scaler for scaler in self.autoscalers if scaler is not None]
        if not scalers:
            return None
        return sum(scaler.max_workers for scaler in scalers) * self.frames_per_worker_tick

    def shard_health(self) -> List[Dict[str, object]]:
        """Per-shard liveness row for ``GET /healthz``."""
        rows = []
        for shard in range(self.shard_count):
            scaler = self.autoscalers[shard]
            rows.append({
                "shard": shard,
                "slots": len(self.ring.slots_of(shard)),
                "workers": scaler.workers if scaler is not None else 1,
                "saturated": bool(scaler.saturated) if scaler is not None else False,
            })
        return rows

    def describe(self) -> Dict[str, object]:
        """Cluster topology + rebalance history for the metrics endpoint."""
        return {
            "shards": self.shard_count,
            "slot_count": self.ring.slot_count,
            "slots_per_shard": {shard: len(self.ring.slots_of(shard))
                                for shard in range(self.shard_count)},
            "waves_served": self.waves_served,
            "slot_moves": self.ring.moves,
            "rebalances": [asdict(d) for d in self.rebalance_log[-16:]],
        }

    # ------------------------------------------------------- observability

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Register the cluster's families and cascade to the coordinator's
        stores (idempotent).

        Cluster families carry a ``shard`` label and are recorded by the
        coordinator from shard reports — NOT by binding the shard engines:
        the engine's own families are unlabeled (re-registering them with a
        shard label would conflict with any plain engine sharing the
        registry), and worker-process shards could not report into this
        registry anyway.  Recording from reports makes in-process and
        worker-process shards meter identically.
        """
        self.metrics = registry
        self._m_shard_sessions = registry.counter(
            "eudoxus_cluster_shard_sessions_total",
            "Sessions resolved per shard, by outcome.", ("shard", "outcome"))
        self._m_shard_frames = registry.counter(
            "eudoxus_cluster_shard_frames_total",
            "Frames served per shard.", ("shard",))
        self._m_shard_misses = registry.counter(
            "eudoxus_cluster_shard_deadline_misses_total",
            "Virtual-schedule deadline misses per shard.", ("shard",))
        self._m_shard_failures = registry.counter(
            "eudoxus_cluster_shard_failures_total",
            "Sessions triaged into a non-ok failure signature, per shard.",
            ("shard",))
        self._m_shard_workers = registry.gauge(
            "eudoxus_cluster_shard_workers",
            "Final worker width of each shard after its last wave.", ("shard",))
        self._m_shard_saturated = registry.gauge(
            "eudoxus_cluster_shard_saturated",
            "Whether each shard's autoscaler reports saturation (0/1).",
            ("shard",))
        self._m_rebalances = registry.counter(
            "eudoxus_cluster_rebalances_total",
            "Rebalance decisions applied between waves.")
        self._m_moved_slots = registry.counter(
            "eudoxus_cluster_rebalanced_slots_total",
            "Hash slots moved between shards by the rebalancer.")
        self._bind_map_plane_metrics(registry)
        if self.run_store is not None:
            self.run_store.bind_metrics(registry)

    def _maybe_wall_span(self, name: str, **args: object):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.wall_span(name, "cluster", track="cluster", **args)

    def _emit_trace(self, report: ShardedServingReport) -> None:
        if self.tracer is None:
            return
        wall = self.tracer.wall_now()
        for row in report.shard_summary():
            self.tracer.instant("shard.wave", "cluster", wall, clock="wall",
                                track=f"shard-{row['shard']}", **row)
        for decision in report.rebalances:
            self.tracer.instant(
                "cluster.rebalance", "cluster", wall, clock="wall",
                track="cluster", source=decision.source, target=decision.target,
                slots=len(decision.slots), reason=decision.reason)

    def _record_serve_metrics(self, report: ShardedServingReport) -> None:
        if self.metrics is None:
            return
        for row in report.shard_summary():
            shard = str(row["shard"])
            self._m_shard_sessions.inc(row["computed_sessions"],
                                       shard=shard, outcome="computed")
            self._m_shard_sessions.inc(row["store_hits"],
                                       shard=shard, outcome="store_hit")
            self._m_shard_frames.inc(row["frames"], shard=shard)
            self._m_shard_misses.inc(row["deadline_misses"], shard=shard)
            self._m_shard_failures.inc(row["failures"], shard=shard)
            self._m_shard_workers.set(float(row["final_workers"]), shard=shard)
            scaler = self.autoscalers[row["shard"]]
            self._m_shard_saturated.set(
                1.0 if (scaler is not None and scaler.saturated) else 0.0,
                shard=shard)
        if report.rebalances:
            self._m_rebalances.inc(len(report.rebalances))
            self._m_moved_slots.inc(
                sum(len(decision.slots) for decision in report.rebalances))
