"""Horizontally sharded serving: N engines, one map store, zero RPC.

:class:`ShardedServingEngine` scales :class:`~repro.serving.ServingEngine`
past one process on one box.  A fleet is consistent-hashed on
``stream_id`` across N shards (:class:`~repro.cluster.ring.HashRing` —
fixed hash slots, rebalanced by slot reassignment), each shard a
``ServingEngine`` with its own run-store handle and
:class:`~repro.scheduler.LatencyAutoscaler`.  The coordinator runs the same
:class:`~repro.serving.wave.WaveLifecycle` as the plain engine; only its
dispatch step differs (partition, fan out, merge):

* the coordinator resolves the wave's canonical map assignment once,
  pre-dispatch, ships the resolved snapshots in every shard payload and
  pins the shard to them (``ServingEngine.serve(..., fleet_maps=...)``).
  Shards have no map store, so they never resolve, merge, publish or
  apply;
* every loaded shard is served from a payload through
  :func:`~repro.experiments.runner.fan_out` — the one dispatch path, run
  in worker processes when ``EUDOXUS_MAX_WORKERS`` allows and a pool
  spawns, in-process otherwise.  The shard's autoscaler (whole) and
  decision-clock water-mark go out in the payload and come back on its
  report, so its state after a wave does not depend on where it ran;
* after the shards finish, the coordinator publishes the whole wave's
  snapshots and folds its ``MapUpdate`` deltas through one store handle —
  computed snapshots before any replayed re-seed, deltas sorted inside
  :meth:`~repro.maps.MapStore.apply_updates` — so the store state is
  independent of shard count and shard completion order;
* a session computed by any shard lands in the shared run store under the
  same ``serving_key``, so a stream rebalanced to another shard replays
  from cache instead of recomputing.

**Determinism contract.**  Sessions are pure functions of
``(spec, resolved maps)``, so shard count, slot assignment, and in-process
vs worker-process shard execution cannot change a single served pose.
The merged report's signature is pinned bit-identical to the plain
engine's (tests/test_cluster.py).

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
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import RunStore, fan_out, resolve_max_workers
from repro.maps import DEFAULT_MIN_MAP_QUALITY, MapMerger, MapSnapshot, MapStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder, recorder_from_env
from repro.obs.slo import SLOTracker
from repro.obs.trace import Tracer, tracer_from_env
from repro.scheduler.autoscaler import LatencyAutoscaler
from repro.sensors.dataset import segment_frame_count
from repro.serving.engine import ServingEngine, ServingReport
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


def _serve_shard_payload(payload: Dict) -> ServingReport:
    """Serve one shard's slice of a wave; ``fan_out`` runs it in a worker
    process or in-process, and nothing here depends on which.

    The shard gets its own run-store handle on the shared root (the
    content-addressed layout makes concurrent handles safe) and no map
    store, tracer, recorder or SLO tracker — whatever ``EUDOXUS_TRACE`` /
    ``EUDOXUS_RECORDER`` say: the coordinator publishes, traces, and
    captures at most one bundle from the merged report.

    The wave's map assignment arrives whole: ``fleet_maps`` holds the
    canonical snapshots the coordinator resolved, and the shard serves
    exactly those (a map pickles to a few KB), so it never merges.

    The shard's autoscaler and decision-clock water-mark come back on the
    report (``shard_state``) for the coordinator to adopt.
    """
    specs = [StreamSpec.from_payload(raw) for raw in payload["specs"]]
    run_store = (RunStore(payload["run_root"], *payload["run_bounds"])
                 if payload["run_root"] else None)
    engine = ServingEngine(
        store=run_store,
        autoscaler=payload["autoscaler"],
        frames_per_worker_tick=payload["frames_per_worker_tick"],
        map_aware_sizing=payload["map_aware_sizing"],
    )
    engine.tracer = engine.recorder = None
    engine._decision_clock = payload["decision_clock"]
    report = engine.serve(specs, fleet_maps=payload["fleet_maps"])
    report.shard_state = (engine.autoscaler, engine._decision_clock)
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
    """N ``ServingEngine`` shards behind one serve() call.

    Construction mirrors the plain engine where the concepts coincide; the
    per-shard pieces take factories.  ``run_store`` / ``map_store`` are the
    *coordinator's* handles.  Shard engines live for one wave, each built
    from its payload with its own run-store handle onto the same root —
    both the scale-out story and the cross-instance coordination the store
    machinery is tested for.  The map store is touched by the coordinator
    alone: each payload carries the wave's resolved snapshots
    (``fleet_maps``), so a shard neither reads the store nor merges.  Only
    controller state persists per shard: ``autoscalers[i]``
    (adopted in place, so the admission probe's object never changes) and
    ``decision_clocks[i]``.  ``max_workers_per_shard`` and
    ``shard_parallel`` chose a per-shard pool and the shard executor, both
    gone: they are accepted only so existing callers keep working, have no
    effect, and warn.
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

    # ------------------------------------------------------------ serving

    def serve(self, specs: Sequence[StreamSpec]) -> ShardedServingReport:
        """Partition the fleet by the ring, serve every shard, merge.

        Shards fan out through ``fan_out`` (worker processes when the width
        allows, else in-process; within a shard the deterministic streaming
        loop always runs).  Results are bit-identical either way — see the
        module docstring for why.
        """
        return self._serve_wave(specs)

    def _dispatch(self, specs: List[StreamSpec],
                  fleet_maps: Dict[str, MapSnapshot],
                  maps_by_stream: Dict[str, Dict[str, MapSnapshot]]
                  ) -> ShardedServingReport:
        shard_specs: List[List[StreamSpec]] = [[] for _ in range(self.shard_count)]
        shard_of: Dict[str, int] = {}
        for spec in specs:
            shard = self.ring.shard_for(spec.stream_id)
            shard_of[spec.stream_id] = shard
            shard_specs[shard].append(spec)
        loaded = [shard for shard in range(self.shard_count) if shard_specs[shard]]
        shard_reports: List[Optional[ServingReport]] = [None] * self.shard_count
        payloads = [self._shard_payload(shard, shard_specs[shard], fleet_maps)
                    for shard in loaded]
        spawned = [False]
        width = min(len(loaded), resolve_max_workers(None))
        with self._maybe_wall_span("cluster.wave", shards=len(loaded),
                                   width=width):
            for index, shard_report in fan_out(
                    _serve_shard_payload, payloads, width,
                    on_pool=lambda: spawned.__setitem__(0, True)):
                shard = loaded[index]
                shard_reports[shard] = shard_report
                self._adopt_shard_state(shard, shard_report)
        report = self._merge(shard_reports, shard_of, parallel=spawned[0])
        self._record_slo(report)
        report.rebalances = self._rebalance(specs, shard_reports, fleet_maps)
        report.slot_assignment = self.ring.assignment()
        self._emit_trace(report)
        return report

    def _shard_payload(self, shard: int, specs: List[StreamSpec],
                       fleet_maps: Dict[str, MapSnapshot]) -> Dict:
        return {
            "specs": [spec.payload() for spec in specs],
            "run_root": (str(self.run_store.root)
                         if self.run_store is not None else None),
            "run_bounds": (_store_bounds(self.run_store)
                           if self.run_store is not None else None),
            # Shards serve maps pinned by the coordinator without a store of
            # their own, so they are told to size like a map-backed engine.
            "map_aware_sizing": self.map_store is not None,
            "frames_per_worker_tick": self.frames_per_worker_tick,
            "autoscaler": self.autoscalers[shard],
            "decision_clock": self.decision_clocks[shard],
            "fleet_maps": fleet_maps,
        }

    def _adopt_shard_state(self, shard: int, shard_report: ServingReport) -> None:
        """Take the shard's controller state off its report and adopt it.

        An in-process shard served with ``autoscalers[shard]`` itself; a
        worker-process shard's copy is adopted into it in place.
        """
        scaler, self.decision_clocks[shard] = shard_report.shard_state
        shard_report.shard_state = None
        if scaler is not None and scaler is not self.autoscalers[shard]:
            self.autoscalers[shard].adopt(scaler)

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
