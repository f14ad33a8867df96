#!/usr/bin/env python3
"""Serving demo: multiplex a fleet of localization sessions.

Eight clients connect, each following its own time-varying deployment (the
paper's 50/25/25 indoor/outdoor mix with GPS dropouts, map entry/exit and
IMU degradation).  The serving engine resolves every session through the
persistent run store, multiplexes the cold ones on its streaming event
loop, and switches each client's backend mode online as its environment
changes.
Afterwards, the served telemetry trains the runtime offload scheduler.

The second half is the streaming/deadline variant: the same fleet arrives
frame by frame on a virtual clock with a 400 ms per-session serving
deadline.  A deliberately under-provisioned pool falls behind, the
latency-aware autoscaler grows it until the fleet keeps up and shrinks it
again once the backlog drains — and the served trajectories stay
bit-identical to each session run on its own.

The finale is the fleet map service: a cold-start fleet explores a shared,
unmapped environment with SLAM and publishes map snapshots at every
segment exit; the service merges them into a canonical map, and a second
wave of sessions acquires it — serving the same segments through cheap
registration instead of SLAM, with the throughput delta printed.  The
lifecycle then *closes*: the registering wave hands back MapUpdate deltas,
a landmark-displacement burst demonstrates staleness detection
(``map_stale`` demotion) and update-driven repair, and the map-aware
autoscaler shows a warm registration-heavy fleet priming — and staying —
at a fraction of the cold fleet's worker count.  The tiered distribution
plane gets its own exhibit: a sharded cluster resolves warm waves through
the coordinator's Tier-1 snapshot cache (stamp-validated hits — no
unpickle, no re-merge) and ships Tier-2 ``{version, inputs}`` references
to its shards, with the hit/miss table and the full-vs-delta byte savings
printed.

The epilogue is service mode: the same engine behind the asyncio front
door (`repro.service`), with per-tenant QoS classes mapped onto serving
deadlines and admission control shedding on the autoscaler's saturation
signal.  A brief open-loop flash crowd overloads the pinned two-worker
pool; the shed rate, goodput and turnaround tail are printed.  The whole
flash crowd runs fully instrumented: a shared `repro.obs.Tracer` collects
admission verdicts, dispatch waves, autoscaler decisions and per-session
mode schedules into one Chrome/Perfetto trace (exported to a temp file and
summarized), and the service's Prometheus exposition is parsed back for
the shed counters.  The SLO plane watches the same crowd: the front door
burns each tenant's wall-clock error budget on sheds and late sessions,
the engine burns the virtual-clock budget on late frames, and the flight
recorder captures a content-addressed forensic bundle when a trigger
(shed spike, deadline-miss burst, SLO fast burn) fires — burn rates and
the bundle path are printed at the end.

Run with:  python examples/serving_demo.py
"""

import asyncio
import tempfile
from collections import Counter
from pathlib import Path

from repro.cluster import ShardedServingEngine
from repro.experiments.common import accelerator_for
from repro.experiments.runner import RunStore
from repro.maps import MapStore
from repro.obs import FlightRecorder, SLOTracker, Tracer, parse_prometheus
from repro.scheduler import LatencyAutoscaler
from repro.service import (
    AdmissionController,
    ArrivalProfile,
    LoadGenerator,
    LocalizationService,
)
from repro.serving import (
    ServingEngine,
    cold_start_fleet,
    drifting_environment_fleet,
    mixed_fleet,
)
from repro.serving.engine import train_offload_scheduler

DEADLINE_MS = 400.0
MAP_ENVIRONMENT = "atrium-12"
# Demo fleets explore briefly, so their maps are small; a permissive gate
# shows the lifecycle (production keeps the default DEFAULT_MIN_MAP_QUALITY).
MAP_GATE = 0.05


def main() -> None:
    # 1. Describe the fleet: 8 mixed-deployment clients with distinct seeds
    #    and phases, so at any instant the fleet spans all four environments.
    fleet = mixed_fleet(8, segment_duration=2.0, camera_rate_hz=5.0)
    print(f"Fleet: {len(fleet)} sessions, "
          f"{sum(spec.frame_count for spec in fleet)} frames total")

    # 2. Serve it.  Cold sessions run through the streaming event loop; a
    #    rerun of this demo loads everything from the persistent run store.
    engine = ServingEngine(store=RunStore())
    report = engine.serve(fleet)

    # 3. Fleet telemetry.
    summary = report.summary()
    print(f"\nServed {summary['sessions']} sessions / {summary['frames']} frames "
          f"in {summary['wall_s']:.2f} s "
          f"({summary['sessions_per_second']:.2f} sessions/s, "
          f"{summary['frames_per_second']:.1f} frames/s)")
    print(f"Frame latency: p50 {summary['p50_frame_ms']:.2f} ms, "
          f"p95 {summary['p95_frame_ms']:.2f} ms "
          f"(store hits: {summary['store_hits']}, "
          f"computed: {summary['computed_sessions']})")

    # 4. Per-session accuracy and mode switching.
    print("\nsession      frames  switches  rmse_m  modes served")
    for stream_id in sorted(report.results):
        result = report.results[stream_id]
        modes = " -> ".join(dict.fromkeys(
            estimate.mode for estimate in result.trajectory.estimates))
        print(f"{stream_id}  {result.frame_count:6d}  {len(result.mode_switches):8d}  "
              f"{result.trajectory.rmse_error():6.3f}  {modes}")

    # 5. Close the loop to the offload scheduler: fit its per-mode CPU
    #    latency models from the traffic this fleet just generated.
    fits = train_offload_scheduler(report.results, accelerator_for("drone"))
    print("\nOffload predictor trained from serving telemetry (R^2 per mode):")
    for mode, r2 in sorted(fits.items()):
        print(f"  {mode:13s} {r2:.3f}")

    # 6. Streaming/deadline variant: the same clients now upload frames as
    #    their cameras produce them, each with a serving deadline.  Start
    #    the pool at one worker and let the autoscaler find the right size.
    print("\n--- streaming ingestion with a latency-aware autoscaler ---")
    streaming_fleet = mixed_fleet(8, segment_duration=2.0, camera_rate_hz=5.0,
                                  deadline_ms=DEADLINE_MS)
    accelerator = accelerator_for("drone")
    autoscaler = LatencyAutoscaler(min_workers=1, max_workers=8, window=48,
                                   grow_patience=2, shrink_patience=4, cooldown=2)
    streaming_engine = ServingEngine(store=None,
                                     autoscaler=autoscaler,
                                     accelerator=accelerator)
    streaming = streaming_engine.serve(streaming_fleet)

    print(f"Served {streaming.frame_count} frames over {streaming.ticks} "
          f"virtual ticks (deadline {DEADLINE_MS:.0f} ms/frame)")
    print(f"Serving latency: p50 {streaming.virtual_latency_percentile(50.0):.1f} ms, "
          f"p95 {streaming.virtual_latency_percentile(95.0):.1f} ms; "
          f"{streaming.deadline_misses} deadline misses while converging")
    print("Autoscaler decisions:")
    for decision in streaming.scale_decisions:
        if decision.resized:
            print(f"  tick {decision.tick:3d}: {decision.action:6s} "
                  f"{decision.workers_before} -> {decision.workers_after} workers "
                  f"(p95 {decision.p95_ms:.0f} ms, pressure {decision.pressure:.2f})")
    print(f"Final pool: {streaming.final_workers} workers")
    observed = {mode: accelerator.scheduler.observation_count(mode)
                for mode in ("vio", "slam", "registration")}
    print(f"Offload scheduler trained online from {sum(observed.values())} "
          f"served frames: {observed}")

    # 7. Fleet map service: a cold-start fleet explores one shared, unmapped
    #    environment with SLAM and publishes map snapshots; a second wave
    #    acquires the merged canonical map and serves the same segments
    #    through registration instead.  A temp-dir map store keeps the
    #    cold -> warm contrast honest on re-runs.
    print("\n--- fleet map service: cold-start fleet, then map reuse ---")
    with tempfile.TemporaryDirectory() as map_root:
        map_store = MapStore(map_root, max_bytes=-1, max_age_s=-1)
        map_engine = ServingEngine(store=None,
                                   map_store=map_store, min_map_quality=MAP_GATE)

        cold_fleet = cold_start_fleet(6, environment=MAP_ENVIRONMENT,
                                      base_seed=0, segment_duration=2.0,
                                      camera_rate_hz=5.0, prefix="cold")
        cold = map_engine.serve(cold_fleet)
        print(f"Cold wave: {cold.session_count} sessions explored "
              f"'{MAP_ENVIRONMENT}' with SLAM and published "
              f"{cold.maps_published} map snapshots "
              f"({cold.sessions_per_second:.2f} sessions/s)")

        warm_fleet = cold_start_fleet(6, environment=MAP_ENVIRONMENT,
                                      base_seed=9000, segment_duration=2.0,
                                      camera_rate_hz=5.0, prefix="warm")
        warm = map_engine.serve(warm_fleet)
        print(f"Warm wave: {warm.map_acquisition_count} map acquisitions "
              f"(canonical versions: {sorted(set(warm.fleet_maps.values()))})")
        for stream_id in sorted(warm.results):
            result = warm.results[stream_id]
            acquisitions = ", ".join(
                f"segment {a.segment_index} -> map {a.version} (q={a.quality:.2f})"
                for a in result.map_acquisitions) or "none"
            modes = " -> ".join(dict.fromkeys(
                estimate.mode for estimate in result.trajectory.estimates))
            print(f"  {stream_id}: {modes}  [{acquisitions}]")
        speedup = warm.sessions_per_second / max(cold.sessions_per_second, 1e-9)
        print(f"Throughput: cold {cold.sessions_per_second:.2f} -> "
              f"warm {warm.sessions_per_second:.2f} sessions/s "
              f"({speedup:.2f}x from registration displacing SLAM)")
        print(f"Closed lifecycle: the warm wave handed back "
              f"{warm.map_update_count} MapUpdate deltas; canonical refreshed "
              f"to {sorted(set(warm.maps_updated.values())) or 'n/a'}")

    # 8. The world drifts: a displacement burst moves 40% of the shared
    #    environment's landmarks between waves.  The published map is now
    #    silently stale — sessions detect it from their own registration
    #    residuals (map_stale demotion to SLAM), hand back update deltas
    #    that prune/relocate the moved landmarks, and the next wave
    #    registers against the repaired canonical.
    print("\n--- drifting world: staleness -> update -> recovery ---")
    with tempfile.TemporaryDirectory() as map_root:
        map_store = MapStore(map_root, max_bytes=-1, max_age_s=-1)
        drift_engine = ServingEngine(store=None,
                                     map_store=map_store,
                                     min_map_quality=MAP_GATE)
        pre_drift = drifting_environment_fleet(
            4, environment="shifting-yard", base_seed=0,
            segment_duration=2.0, camera_rate_hz=5.0, prefix="map")
        mapped = drift_engine.serve(pre_drift)
        print(f"Pre-drift wave published {mapped.maps_published} snapshots")

        drift_kwargs = dict(environment="shifting-yard", segment_duration=2.0,
                            camera_rate_hz=5.0, drift_m=2.0,
                            drift_fraction=0.4, drift_seed=7)
        stale_wave = drifting_environment_fleet(4, base_seed=20000,
                                                prefix="stale", **drift_kwargs)
        stale = drift_engine.serve(stale_wave)
        demotions = sum(1 for result in stale.results.values()
                        for switch in result.mode_switches
                        if switch.reason == "map_stale")
        print(f"Drift burst (40% of landmarks moved ~2 m): the next wave "
              f"demoted the stale map {demotions}x (map_stale -> SLAM), "
              f"handed back {stale.map_update_count} update deltas; canonical "
              f"repaired to {sorted(set(stale.maps_updated.values()))}")

        recovery_wave = drifting_environment_fleet(4, base_seed=30000,
                                                   prefix="recov", **drift_kwargs)
        recovered = drift_engine.serve(recovery_wave)
        recovered_modes = recovered.mode_census()
        print(f"Recovery wave on the drifted world: "
              f"{recovered.map_acquisition_count} acquisitions, mode census "
              f"{recovered_modes} — registration again, no re-demotion")

    # 9. Tiered map distribution: a 2-shard cluster on the same kind of
    #    shared world.  The coordinator resolves each wave through its
    #    bounded Tier-1 snapshot cache — after the first wave the store's
    #    version stamp is unchanged, so every later resolve is a hit that
    #    never unpickles a snapshot or re-runs a merge — and process-mode
    #    waves ship Tier-2 {version, inputs} references to the shards
    #    instead of pickled snapshots.  (The store is frozen here; an
    #    update fold would move the canonical and honestly turn the next
    #    resolve into a revalidating miss.)
    print("\n--- tiered map distribution: snapshot cache + delta sync ---")
    with tempfile.TemporaryDirectory() as map_root:
        seed_store = MapStore(map_root, max_bytes=-1, max_age_s=-1)
        ServingEngine(store=None, map_store=seed_store,
                      min_map_quality=MAP_GATE).serve(
            drifting_environment_fleet(
                2, environment="tiered-yard", segment_duration=2.0,
                camera_rate_hz=5.0, prefix="seed"))
        cluster = ShardedServingEngine(
            2, map_store=MapStore(map_root, max_bytes=-1, max_age_s=-1),
            min_map_quality=MAP_GATE, map_updates=False)
        for wave_index in range(3):
            cluster.serve(drifting_environment_fleet(
                4, environment="tiered-yard", base_seed=40000 + 1000 * wave_index,
                prefix=f"wave{wave_index}", segment_duration=2.0,
                camera_rate_hz=5.0))
        cache = cluster.map_cache.as_dict()
        sync = cluster.sync_accounting
        print("Tier-1 snapshot cache (coordinator), after 3 warm waves:")
        print("  outcome       count")
        for outcome in ("hits", "misses", "stale_serves", "evictions"):
            print(f"  {outcome:12s} {cache[outcome]:5d}")
        print(f"  hit rate {cache['hit_rate']:.2f}, {cache['entries']} "
              f"entry(ies), {cache['cached_bytes']} B cached")
        print(f"Tier-2 delta sync over {sync.waves} process wave(s): "
              f"{sync.delta_bytes} B shipped as references vs "
              f"{sync.full_bytes} B as full snapshots "
              f"({100.0 * sync.savings_fraction:.1f}% saved, "
              f"{sync.fallbacks} fallbacks)")

    # 10. Map-aware autoscaling: the engine's pre-dispatch map resolution
    #    knows each session's expected mode mix, so the autoscaler starts
    #    from a mode-mix sizing prior — a cold SLAM-heavy fleet primes wide,
    #    a warm registration-heavy fleet primes narrow and stays there.
    print("\n--- map-aware autoscaling: mode-mix sizing prior ---")
    with tempfile.TemporaryDirectory() as map_root:
        map_store = MapStore(map_root, max_bytes=-1, max_age_s=-1)

        def autoscaled_serve(prefix, base_seed):
            engine = ServingEngine(
                store=None, map_store=map_store,
                min_map_quality=MAP_GATE, frames_per_worker_tick=2,
                autoscaler=LatencyAutoscaler(min_workers=1, max_workers=8,
                                             window=48, grow_patience=2,
                                             shrink_patience=4, cooldown=2))
            wave = drifting_environment_fleet(
                6, environment="sized-depot", base_seed=base_seed,
                segment_duration=2.0, camera_rate_hz=5.0, prefix=prefix,
                deadline_ms=DEADLINE_MS)
            return engine.serve(wave)

        sized_cold = autoscaled_serve("cold", 0)
        sized_warm = autoscaled_serve("warm", 9000)
        for label, report in (("cold (no map, SLAM-heavy)", sized_cold),
                              ("warm (mapped, registration)", sized_warm)):
            prime = report.scale_decisions[0]
            print(f"  {label}: primed {prime.workers_before} -> "
                  f"{prime.workers_after} workers "
                  f"({prime.reason.split(':')[1].strip()}), "
                  f"final {report.final_workers} workers, "
                  f"{report.deadline_misses} deadline misses")

    # 11. Service mode: the engine behind the network front door.  A tiny
    #     pinned pool meets an open-loop flash crowd; the door admits the
    #     protected gold tenant, sheds sheddable classes once the
    #     autoscaler reports saturation, and the admitted sessions complete.
    print("\n--- service mode: front door under a flash crowd ---")
    asyncio.run(service_mode_demo())


async def service_mode_demo() -> None:
    autoscaler = LatencyAutoscaler(min_workers=1, max_workers=2,
                                   grow_patience=1, shrink_patience=50,
                                   cooldown=0, window=512)
    recorder = FlightRecorder(
        root=Path(tempfile.gettempdir()) / "eudoxus-demo-forensics")
    engine = ServingEngine(store=None, autoscaler=autoscaler,
                           frames_per_worker_tick=1,
                           slo=SLOTracker(domain="virtual"),
                           recorder=recorder)
    admission = AdmissionController(
        policy="saturation", max_inflight=64,
        saturated_inflight=autoscaler.max_workers * engine.frames_per_worker_tick,
        saturated_fn=lambda: autoscaler.saturated)
    # Full observability for the finale: the tracer is shared by the engine
    # and the front door, so admission verdicts, dispatch waves, autoscaler
    # decisions and every session's mode schedule land in one trace.
    tracer = Tracer()
    service = LocalizationService(engine, admission=admission, port=0,
                                  tracer=tracer)
    await service.start()
    try:
        print(f"Service listening on {service.host}:{service.port} "
              f"(policy={service.admission.policy})")
        generator = LoadGenerator(
            service.host, service.port,
            session_body={
                "segments": [{"kind": "outdoor_unknown", "duration": 2.0}],
                "camera_rate_hz": 5.0,
            },
            qos_cycle=("gold", "silver", "silver"))
        profile = ArrivalProfile(kind="flash", rate=2.0, peak_rate=20.0,
                                 duration_s=3.0, flash_fraction=0.5, seed=11)
        load = await generator.run(profile)
    finally:
        await service.stop()
    summary = load.summary()
    print(f"Offered {summary['offered']:.0f} sessions: "
          f"{summary['admitted']:.0f} admitted, {summary['shed']:.0f} shed "
          f"(shed rate {summary['shed_rate']:.0%}, reasons {load.shed_reasons})")
    print(f"Goodput {summary['goodput_per_s']:.1f} sessions/s; turnaround "
          f"p50 {summary['p50_turnaround_ms']:.0f} ms, "
          f"p95 {summary['p95_turnaround_ms']:.0f} ms")
    print(f"All admitted sessions completed: "
          f"{load.completed == load.admitted and load.errors == 0}")

    # Export the flash crowd as a Perfetto/chrome trace (open in
    # https://ui.perfetto.dev) and summarize what was captured, alongside
    # the Prometheus view of the same run.
    trace_path = tracer.export_chrome(
        Path(tempfile.gettempdir()) / "eudoxus-flash-crowd-trace.json")
    by_category = Counter(event.category for event in tracer.events)
    print(f"Trace: {len(tracer)} spans -> {trace_path}")
    print("  per category: " + ", ".join(
        f"{category}={count}" for category, count
        in sorted(by_category.items())))
    families = parse_prometheus(service.registry.render_prometheus())
    shed_samples = families["eudoxus_service_shed_total"]["samples"]
    shed_by_reason = {key.split('reason="')[-1].rstrip('"}'): int(value)
                      for key, value in shed_samples.items()}
    print(f"Metrics: {len(families)} Prometheus families; "
          f"shed counters {shed_by_reason}")

    # The SLO plane's verdict on the crowd: wall-clock burn at the front
    # door (sheds and late sessions spend the tenant's error budget),
    # virtual-clock burn inside the engine, and whatever forensic bundles
    # the flight recorder's triggers captured.
    print("SLO burn rates (multiples of the error-budget spend rate):")
    for label, tracker in (("front door (wall)", service.slo),
                           ("engine (virtual)", engine.slo)):
        snapshot = tracker.snapshot()
        for tenant, row in sorted(snapshot["tenants"].items()):
            if row["hits"] or row["misses"]:
                flag = "  << FAST BURN" if row["fast_burn"] else ""
                print(f"  {label} {tenant}: {row['hits']} hits / "
                      f"{row['misses']} misses, burn fast "
                      f"{row['burn']['fast']:.1f} / slow "
                      f"{row['burn']['slow']:.1f}{flag}")
    bundles = recorder.bundle_paths()
    if bundles:
        print(f"Flight recorder: {len(bundles)} bundle(s) under "
              f"{recorder.root} — latest {bundles[-1].name}")
    else:
        print(f"Flight recorder: no trigger fired (bundles would land "
              f"under {recorder.root})")


if __name__ == "__main__":
    main()
