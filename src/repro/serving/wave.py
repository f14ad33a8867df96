"""One wave lifecycle, shared by the plain and the sharded engine.

A serve call is a *wave*: a fleet resolved against the fleet map plane,
served, and folded back into it.  :class:`WaveLifecycle` owns the map-plane
state (map store, merger, quality gate, update switch, drift evidence) and
runs the steps every wave takes, in order:

1. reject a fleet with duplicate stream ids, before any work starts;
2. snapshot the map store's telemetry counters;
3. resolve the canonical, quality-gated map of every shared environment
   the fleet visits through :meth:`~repro.maps.MapStore.resolve`, whose
   canonical-map memo is the only map cache, behind the update-aware drift
   gate — once, before dispatch, so every session of the wave sees the
   same assignment;
4. **dispatch**, the one engine-specific step.  The plain engine replays
   what its run store holds and serves the rest through its streaming
   loop; the sharded coordinator partitions the fleet over its ring, fans
   the shards out and merges their reports.  A shard is a plain engine
   with the wave's maps pinned and no map store, so it never resolves,
   publishes or applies — the plain engine is the 1-shard case;
5. publish the wave's snapshots (computed sessions first; a replayed
   session only re-seeds an environment with no history);
6. apply the wave's ``MapUpdate`` deltas in one fold;
7. record the drift evidence that gates the next wave's resolve;
8. fold the map store's counter deltas (memo hits and misses, merges,
   version churn) into the report, then record the engine's metrics;
9. emit the map trace instants;
10. capture forensics, outside the timed window.

Publishes and updates land after dispatch, so they are visible to the
*next* wave, never to this one.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.experiments.runner import (
    CACHE_SCHEMA_VERSION,
    RunStore,
    code_fingerprint,
    config_fingerprint,
)
from repro.maps import MapMerger, MapSnapshot, MapStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DECISION_TAIL, TRACE_TAIL, FlightRecorder
from repro.obs.slo import SLOTracker
from repro.obs.trace import Tracer
from repro.obs.triage import SIG_OK
from repro.serving.session import MAP_STALE_RESIDUAL_M, SessionResult
from repro.serving.streams import StreamSpec

if TYPE_CHECKING:
    from repro.serving.engine import ServingReport


def serving_key(spec: StreamSpec, maps: Optional[Dict[str, str]] = None) -> str:
    """Content-hash key of one session: spec + code + config fingerprints.

    ``deadline_ms`` is excluded: it is a QoS contract that never enters the
    localization math (results are bit-identical with or without it), so a
    deadline change must keep the cache warm rather than recompute the
    whole fleet.

    ``maps`` is the session's resolved fleet-map assignment (environment id
    -> canonical map version).  The acquired map changes the served poses
    and modes, so the versions are part of the key: the same spec served
    before and after the fleet map matured resolves to different entries,
    and a cached cold result can never masquerade as a warm one.  An empty
    assignment hashes identically to the pre-map-service key shape.
    """
    spec_payload = spec.payload()
    spec_payload.pop("deadline_ms", None)
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "serving-session",
        "code": code_fingerprint(),
        "config": config_fingerprint(spec.platform_kind, spec.camera_rate_hz, spec.seed),
        "spec": spec_payload,
    }
    if maps:
        payload["maps"] = dict(sorted(maps.items()))
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class WaveLifecycle:
    """The map-plane state and the shared steps of one serve call.

    Both engines derive from it: each implements :meth:`_dispatch` and
    :meth:`_record_serve_metrics`, and sets the optional ``tracer``,
    ``slo`` and ``recorder`` hooks.  Everything a wave does to the shared
    map store happens here, once.
    """

    tracer: Optional[Tracer] = None
    slo: Optional[SLOTracker] = None
    recorder: Optional[FlightRecorder] = None

    def __init__(self, map_store: Optional[MapStore],
                 map_merger: Optional[MapMerger],
                 min_map_quality: float,
                 map_updates: bool) -> None:
        self.map_store = map_store
        self.map_merger = map_merger or MapMerger()
        self.min_map_quality = float(min_map_quality)
        # Closed map lifecycle: apply the fleet's MapUpdate deltas to the
        # store post-serve (False keeps the publish-only behavior — the
        # control arm of the drifting-world benchmark).
        self.map_updates = bool(map_updates)
        # Update-aware quality gating: environments whose *observed*
        # registration residuals flagged the served canonical as stale
        # (high-residual MapUpdate evidence or a map_stale demotion), keyed
        # on the exact canonical version observed.  While the canonical has
        # not moved past that version, the resolve gate withholds the map —
        # the next wave runs SLAM from segment entry (and republishes)
        # instead of acquiring a known-bad map and demoting mid-segment.
        self._map_drift_evidence: Dict[str, str] = {}

    # ------------------------------------------------------------ the wave

    def _serve_wave(self, specs: Sequence[StreamSpec],
                    fleet_maps: Optional[Dict[str, MapSnapshot]] = None
                    ) -> "ServingReport":
        """Run one wave; ``fleet_maps`` pins the assignment instead of
        resolving it."""
        specs = list(specs)
        # Duplicate stream ids make the fleet invalid as a whole, so the
        # check runs before any store lookup, map resolution, or dispatch:
        # a duplicate must fail the wave at the door, atomically.
        seen = set()
        for spec in specs:
            if spec.stream_id in seen:
                raise ValueError(f"duplicate stream_id in fleet: {spec.stream_id}")
            seen.add(spec.stream_id)
        started = time.perf_counter()
        map_counters = self._map_counters()
        if fleet_maps is None:
            fleet_maps = self._resolve_fleet_maps(specs)
        maps_by_stream = {spec.stream_id: self._maps_for(spec, fleet_maps)
                          for spec in specs}
        report = self._dispatch(specs, fleet_maps, maps_by_stream)
        report.fleet_maps = self._map_versions(fleet_maps)
        replayed = set(report.replayed_streams)
        self._publish_fleet_maps(report, replayed)
        self._apply_map_updates(report, replayed)
        self._record_map_drift_evidence(report, replayed)
        self._finish_map_telemetry(report, map_counters)
        self._record_serve_metrics(report)
        self._emit_map_trace(report)
        report.wall_s = time.perf_counter() - started
        # Forensics last, outside the timed window: bundle capture is disk
        # I/O that must not pollute the throughput telemetry it snapshots.
        self._record_forensics(report, maps_by_stream)
        return report

    def _dispatch(self, specs: List[StreamSpec],
                  fleet_maps: Dict[str, MapSnapshot],
                  maps_by_stream: Dict[str, Dict[str, MapSnapshot]]
                  ) -> "ServingReport":
        """Serve the wave's sessions and return the report (engine-specific)."""
        raise NotImplementedError

    def _record_serve_metrics(self, report: "ServingReport") -> None:
        """Record the finished wave into the engine's metric families."""
        raise NotImplementedError

    # ------------------------------------------------------------- resolve

    def _resolve_fleet_maps(self, specs: Sequence[StreamSpec]) -> Dict[str, MapSnapshot]:
        """Canonical, quality-gated map per shared environment the fleet visits.

        Every lookup goes through :meth:`MapStore.resolve`: a memo hit
        (unchanged snapshot file stems) costs one directory scan — no
        unpickling, no merge — and is counted where the report, the metrics
        and the service endpoints read it.  On top of the quality gate sits
        the update-aware drift gate: an environment whose served canonical
        drew high-residual evidence last wave is withheld until its
        canonical version moves.
        """
        if self.map_store is None:
            return {}
        resolved: Dict[str, MapSnapshot] = {}
        for spec in specs:
            for environment_id in spec.environment_ids.values():
                if environment_id in resolved:
                    continue
                snapshot = self.map_store.resolve(
                    environment_id, merger=self.map_merger,
                    min_quality=self.min_map_quality)
                if snapshot is None:
                    continue
                flagged = self._map_drift_evidence.get(environment_id)
                if flagged is not None:
                    if flagged == snapshot.version:
                        # Observed residuals condemned exactly this version:
                        # serving it again would only replay the mid-segment
                        # demotion.  Keep the gate closed until the
                        # canonical moves.
                        if self.tracer is not None:
                            self.tracer.instant(
                                "map.drift_gate", "maps",
                                self.tracer.wall_now(), clock="wall",
                                track="maps", environment=environment_id,
                                version=snapshot.version[:12])
                        continue
                    # The canonical moved past the condemned version — the
                    # repair (update application or republish) lifts the gate.
                    del self._map_drift_evidence[environment_id]
                resolved[environment_id] = snapshot
        return resolved

    def _replay_stored(self, store: Optional[RunStore], spec: StreamSpec,
                       maps_by_stream: Dict[str, Dict[str, MapSnapshot]],
                       keys: Dict[str, str]) -> Optional[SessionResult]:
        """The run store's result for ``spec`` — None on a miss or without a
        store.  The session's ``serving_key`` lands in ``keys``, so the save
        after computing reuses it."""
        if store is None:
            return None
        key = keys[spec.stream_id] = serving_key(
            spec, self._map_versions(maps_by_stream[spec.stream_id]))
        stored = store.load_key(key, expect=SessionResult)
        if self.tracer is not None:
            self.tracer.instant(
                "run_store.hit" if stored is not None else "run_store.miss",
                "store", self.tracer.wall_now(), clock="wall",
                track="store", stream=spec.stream_id)
        if stored is not None:
            # The key ignores deadline_ms, so the hit may have been computed
            # under a different QoS contract; refresh the provenance payload
            # to the spec actually requested (everything else is identical
            # by key construction).
            stored.spec_payload = spec.payload()
        return stored

    @staticmethod
    def _maps_for(spec: StreamSpec,
                  fleet_maps: Dict[str, MapSnapshot]) -> Dict[str, MapSnapshot]:
        """The subset of resolved maps this session's stream can acquire."""
        wanted = set(spec.environment_ids.values())
        return {environment_id: snapshot
                for environment_id, snapshot in fleet_maps.items()
                if environment_id in wanted}

    @staticmethod
    def _map_versions(maps: Dict[str, MapSnapshot]) -> Dict[str, str]:
        return {environment_id: snapshot.version
                for environment_id, snapshot in maps.items()}

    # ---------------------------------------------------------- fold back

    def _publish_fleet_maps(self, report: "ServingReport", replayed: set) -> None:
        """Write the wave's session-published snapshots to the map store.

        Computed sessions always publish.  Store-hit (replayed) sessions
        published when their result was first computed, so re-writing their
        snapshots into an environment with *live* history could resurrect
        content :meth:`MapStore.apply_updates` deliberately compacted away
        — a cached pre-drift wave must never bring pruned landmarks back.
        A replayed session therefore only *re-seeds* an environment whose
        history is empty (the map store was evicted or wiped while the run
        store stayed warm — without the re-seed, those maps would be lost
        for as long as the cached results keep hitting).  Every computed
        snapshot of the wave lands before any re-seed is considered, so the
        store state does not depend on how the fleet was partitioned.
        ``maps_published`` reports snapshots the store had not seen before.
        """
        if self.map_store is None:
            return
        published_before = self.map_store.published
        for stream_id, result in report.results.items():
            if stream_id in replayed:
                continue
            for snapshot in result.published_maps:
                self.map_store.publish(snapshot)
        reseed_allowed: Dict[str, bool] = {}
        for stream_id in sorted(replayed):
            for snapshot in report.results[stream_id].published_maps:
                environment_id = snapshot.environment_id
                if environment_id not in reseed_allowed:
                    reseed_allowed[environment_id] = (
                        not self.map_store.has_history(environment_id))
                if reseed_allowed[environment_id]:
                    self.map_store.publish(snapshot)
        report.maps_published = self.map_store.published - published_before

    def _apply_map_updates(self, report: "ServingReport", replayed: set) -> None:
        """Fold the wave's registration deltas back into the map store.

        Runs after :meth:`_publish_fleet_maps` so a wave's fresh SLAM
        snapshots participate in the canonical merge the updates are
        applied to.  :meth:`MapStore.apply_updates` sorts the deltas, so the
        produced versions do not depend on the order sessions finished in
        (or on the shard that served them).  Store-hit sessions' deltas were
        applied when first computed, so replaying them would double-count
        their observations — skipped, like their publishes.  Disabled with
        ``map_updates=False`` (the publish-only control).
        """
        if self.map_store is None or not self.map_updates:
            return
        updates = [update for stream_id, result in report.results.items()
                   if stream_id not in replayed
                   for update in result.map_updates]
        if not updates:
            return
        applied = self.map_store.apply_updates(updates, merger=self.map_merger)
        report.maps_updated = self._map_versions(applied)

    def _record_map_drift_evidence(self, report: "ServingReport",
                                   replayed: set) -> None:
        """Remember which served canonical versions read as stale.

        Two evidence sources in this wave's computed sessions: a
        :class:`MapUpdate` whose weighted mean residual exceeds the
        ``map_stale`` demotion threshold, and a ``map_stale`` mode switch
        (matched to the acquisition of the same segment — the update gates
        may have kept such a session from producing a delta at all).
        Environments this wave's update application already refreshed are
        skipped: their canonical moved, the gate has nothing to hold.

        Evidence is only collected on engines that can *act* on it
        (``map_updates`` enabled): a publish-only engine withholding maps
        would silently change the control arms of the update experiments.
        """
        if self.map_store is None or not self.map_updates:
            return
        evidence = self._map_drift_evidence
        for stream_id, result in report.results.items():
            if stream_id in replayed:
                continue
            for update in result.map_updates:
                if (update.environment_id not in report.maps_updated
                        and update.mean_residual_m > MAP_STALE_RESIDUAL_M):
                    evidence[update.environment_id] = update.base_version
            stale_segments = {switch.segment_index
                              for switch in result.mode_switches
                              if switch.reason == "map_stale"}
            for acquisition in result.map_acquisitions:
                if (acquisition.segment_index in stale_segments
                        and acquisition.environment_id not in report.maps_updated):
                    evidence[acquisition.environment_id] = acquisition.version

    # ---------------------------------------------------------- telemetry

    def _map_counters(self) -> Optional[Dict[str, object]]:
        """Snapshot of the map store's telemetry counters (None storeless)."""
        if self.map_store is None:
            return None
        return {"hits": self.map_store.resolve_hits,
                "misses": self.map_store.resolve_misses,
                "merges": len(self.map_store.merge_ms),
                "churn": dict(self.map_store.version_churn)}

    def _finish_map_telemetry(self, report: "ServingReport",
                              before: Optional[Dict[str, object]]) -> None:
        """Fold this wave's map-store counter deltas into the report."""
        if before is None or self.map_store is None:
            return
        store = self.map_store
        report.map_resolve_hits = store.resolve_hits - before["hits"]
        report.map_resolve_misses = store.resolve_misses - before["misses"]
        report.map_merge_ms = list(store.merge_ms)[before["merges"]:]
        churn: Dict[str, int] = {}
        for environment_id, count in store.version_churn.items():
            delta = count - before["churn"].get(environment_id, 0)
            if delta:
                churn[environment_id] = delta
        report.map_version_churn = churn

    def _emit_map_trace(self, report: "ServingReport") -> None:
        """The wave's map-lifecycle instants (wall domain), one set for both
        engines: resolved canonicals, publishes, and refreshed canonicals."""
        if self.tracer is None or self.map_store is None:
            return
        wall = self.tracer.wall_now()

        def instant(name: str, **args: object) -> None:
            self.tracer.instant(name, "maps", wall, clock="wall", track="maps",
                                **args)

        for environment_id, version in sorted(report.fleet_maps.items()):
            instant("map.resolve", environment=environment_id,
                    version=version[:12])
        if report.maps_published:
            instant("map.publish_wave", published=report.maps_published)
        for environment_id, version in sorted(report.maps_updated.items()):
            instant("map.apply_updates", environment=environment_id,
                    version=version[:12])

    def _bind_map_plane_metrics(self, registry: MetricsRegistry) -> None:
        """Cascade a registry to the hooks and the map plane this class owns."""
        if self.tracer is not None:
            self.tracer.bind_metrics(registry)
        if self.slo is not None:
            self.slo.bind_metrics(registry)
        if self.map_store is not None:
            self.map_store.bind_metrics(registry)
            self.map_merger.bind_metrics(registry)

    def _record_forensics(self, report: "ServingReport",
                          maps_by_stream: Dict[str, Dict[str, MapSnapshot]]) -> None:
        """Capture one forensic bundle for the finished wave, if warranted.

        (The recorder module cannot import the serving layer, so the evidence
        assembly lives here.)

        The ``payload`` section — what the bundle hash covers — holds only
        virtual-domain evidence: trigger kinds, the failure census, the
        offending sessions' identities (spec fingerprint + ``serving_key``,
        replayable against the run store), map lifecycle state, SLO burn
        rates, and the autoscaler decision tail (virtual clock).  Wall-clock
        extras land in ``telemetry``, outside the hash, so two runs of the
        identical fleet produce bit-identical bundle hashes.
        """
        if self.recorder is None:
            return
        slo, tracer = self.slo, self.tracer
        triggers = self.recorder.triggers_for(report, slo=slo)
        if not triggers:
            return
        offending = sorted(stream_id for stream_id, signature
                           in report.failure_signatures.items()
                           if signature != SIG_OK)
        if not offending:
            # A miss burst below the per-session triage bar: the missed
            # streams themselves are the evidence.
            offending = sorted(report.deadline_misses_by_stream)
        sessions = []
        for stream_id in offending:
            result = report.results.get(stream_id)
            if result is None:
                continue
            spec = StreamSpec.from_payload(result.spec_payload)
            versions = self._map_versions(maps_by_stream.get(stream_id) or {})
            spec_fingerprint = hashlib.sha256(
                json.dumps(spec.payload(), sort_keys=True).encode()).hexdigest()
            sessions.append({
                "stream_id": stream_id,
                "signature": report.failure_signatures.get(stream_id, SIG_OK),
                "serving_key": serving_key(spec, versions),
                "spec_fingerprint": spec_fingerprint,
                "session_signature": result.signature(),
                "deadline_misses": report.deadline_misses_by_stream.get(stream_id, 0),
            })
        payload: Dict[str, object] = {
            "triggers": triggers,
            "deadline_misses": report.deadline_misses,
            "failure_census": report.failure_census(),
            "fleet_maps": dict(sorted(report.fleet_maps.items())),
            "maps_published": report.maps_published,
            "maps_updated": dict(sorted(report.maps_updated.items())),
            "sessions": sessions,
            "autoscaler_decisions": [
                asdict(decision)
                for decision in report.scale_decisions[-DECISION_TAIL:]],
        }
        telemetry: Dict[str, object] = {
            "wall_s": report.wall_s,
            "workers": report.workers,
        }
        if slo is not None:
            # Virtual-domain burn rates are deterministic and belong in the
            # hashed evidence; a wall-domain tracker (the front door's) would
            # split the content address, so its view rides telemetry.
            view = {"burn_rates": slo.burn_rates(),
                    "fast_burn": sorted(slo.fast_burns())}
            if slo.domain == "virtual":
                payload["slo"] = view
            else:
                telemetry["slo"] = view
        if tracer is not None:
            telemetry["trace_tail"] = [
                {"name": event.name, "category": event.category,
                 "phase": event.phase, "clock": event.clock,
                 "timestamp_us": event.timestamp_us,
                 "duration_us": event.duration_us, "track": event.track,
                 "args": event.args_dict()}
                for event in list(tracer.events)[-TRACE_TAIL:]]
        self.recorder.record(triggers[0], payload, telemetry)
