"""Fleet map reuse: cold-start fleet vs warm-map fleet on the same world.

The paper's Fig. 2 economics in one benchmark: full SLAM (sliding-window
bundle adjustment + marginalization per keyframe) is the expensive mode a
session runs only because it has no map; registration against a prior map
is far cheaper.  The fleet map service converts that gap into serving
throughput: a *cold* wave explores a shared environment with SLAM and
publishes map snapshots; the merged canonical map then lets a *warm* wave
of the same shape serve the identical segments through registration.

Both waves run storeless through the serial streaming loop, so the
sessions/sec comparison is pure compute: the warm fleet must be strictly
faster, its mode log must show registration displacing SLAM in the shared
segments, and its accuracy must stay in the same band as the cold wave's.
"""

import numpy as np
from conftest import append_bench_row, print_banner

from repro.characterization.report import format_table
from repro.maps import MapStore
from repro.scheduler import LatencyAutoscaler
from repro.serving import ServingEngine, cold_start_fleet, drifting_environment_fleet

FLEET_SIZE = 6
RATE_HZ = 5.0
# Short segments build small maps; the permissive gate keeps the benchmark
# about throughput (gate behavior itself is pinned in tests/test_maps*.py).
MAP_GATE = 0.05
# Drifting-world wave: the displacement burst between waves, and the QoS
# deadline the map-aware autoscaler sizes against.
DRIFT_KWARGS = dict(drift_m=2.0, drift_fraction=0.4, drift_seed=7)
DEADLINE_MS = 400.0
# Rounds of the drifting-world recovery comparison; the arm served first
# alternates between rounds.
RECOVERY_ROUNDS = 5


def _wave(prefix, base_seed, serving_settings):
    return cold_start_fleet(
        FLEET_SIZE,
        environment="benchmark-atrium",
        base_seed=base_seed,
        segment_duration=serving_settings["segment_duration"],
        camera_rate_hz=RATE_HZ,
        explore_segments=2,
        prefix=prefix,
    )


def _mode_census(report):
    return report.mode_census()


def test_map_reuse_throughput(benchmark, serving_settings, tmp_path):
    store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
    engine = ServingEngine(store=None, map_store=store,
                           min_map_quality=MAP_GATE)

    cold_fleet = _wave("cold", 0, serving_settings)
    cold = engine.serve(cold_fleet)
    assert cold.maps_published > 0, "the cold wave published no maps"

    warm_fleet = _wave("warm", 9000, serving_settings)
    warm = benchmark.pedantic(
        lambda: engine.serve(warm_fleet),
        rounds=1, iterations=1,
    )

    cold_modes = _mode_census(cold)
    warm_modes = _mode_census(warm)
    cold_rmse = float(np.mean([r.trajectory.rmse_error()
                               for r in cold.results.values()]))
    warm_rmse = float(np.mean([r.trajectory.rmse_error()
                               for r in warm.results.values()]))

    print_banner("Fleet map reuse — cold SLAM wave vs warm registration wave")
    rows = []
    for label, report, rmse in (("cold", cold, cold_rmse), ("warm", warm, warm_rmse)):
        summary = report.summary()
        rows.append([
            label, summary["sessions"], summary["frames"],
            round(summary["wall_s"], 2), round(summary["sessions_per_second"], 2),
            round(summary["frames_per_second"], 1),
            summary["maps_published"], summary["map_acquisitions"],
            round(rmse, 3),
        ])
    print(format_table(
        ["wave", "sessions", "frames", "wall_s", "sessions/s", "frames/s",
         "published", "acquired", "rmse_m"], rows))
    print(f"\nmode census cold: {cold_modes}")
    print(f"mode census warm: {warm_modes}")
    speedup = warm.sessions_per_second / max(cold.sessions_per_second, 1e-9)
    print(f"warm-map speedup: {speedup:.2f}x sessions/sec "
          f"(fleet map: {list(warm.fleet_maps.values())})")

    append_bench_row(
        "map_reuse",
        cold_sessions_per_second=cold.sessions_per_second,
        warm_sessions_per_second=warm.sessions_per_second,
        warm_speedup=speedup,
    )

    # The headline claim: a warm fleet serves strictly faster than the cold
    # fleet that had to build the map.
    assert warm.sessions_per_second > cold.sessions_per_second

    # And the mechanism is visible in the mode logs: the cold wave's SLAM
    # traffic is displaced by registration in the warm wave.
    assert cold_modes.get("slam", 0) > 0
    assert warm_modes.get("registration", 0) > 0
    assert warm_modes.get("slam", 0) < cold_modes["slam"]
    assert warm.map_acquisition_count == FLEET_SIZE * 2  # both shared segments
    for result in warm.results.values():
        reasons = {switch.to_mode for switch in result.mode_switches}
        assert "registration" in reasons

    # Reuse must not cost meaningful accuracy: the fleet-built map serves
    # within the same error band as exploring from scratch.
    assert warm_rmse < max(2.0, 3.0 * cold_rmse)


def _drift_wave(prefix, base_seed, serving_settings, fleet_size=4, drift=False,
                deadline_ms=None, explore_segments=3):
    # Three shared segments: the control arm re-demotes in each of them, so
    # the SLAM-vs-registration wall gap between the arms stays well clear
    # of wall-clock noise (the approach segment is identical in both).
    return drifting_environment_fleet(
        fleet_size,
        environment="benchmark-shifting-yard",
        base_seed=base_seed,
        segment_duration=serving_settings["segment_duration"],
        camera_rate_hz=RATE_HZ,
        explore_segments=explore_segments,
        prefix=prefix,
        deadline_ms=deadline_ms,
        **(DRIFT_KWARGS if drift else {}),
    )


def test_drifting_world_updates(benchmark, serving_settings, tmp_path):
    """Staleness -> update -> recovery, vs a publish-only control.

    Both arms serve the identical three waves: a cold wave that maps the
    shared world, a post-drift wave that discovers the published map went
    stale (residuals spike on the displaced landmarks, sessions demote to
    SLAM and hand back MapUpdate deltas), and a recovery wave on the same
    drifted world.  The *updates* arm applies the deltas — pruning and
    relocating the moved landmarks into a refreshed canonical — so its
    recovery wave registers throughout; the *control* arm (PR-4
    publish-only) keeps dragging the stale history into every merge, so its
    recovery wave demotes again and pays for SLAM.  The throughput gap is
    the updates' worth.
    """
    def arm(label, map_updates):
        store = MapStore(tmp_path / label, max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=MAP_GATE, map_updates=map_updates)
        cold = engine.serve(_drift_wave("cold", 0, serving_settings))
        assert cold.maps_published > 0
        stale = engine.serve(_drift_wave("stale", 20000, serving_settings,
                                         drift=True))
        return engine, stale

    recovery_fleet = _drift_wave("recov", 30000, serving_settings, drift=True)
    # Wall-noise hardening.  A publish-only control that serves the recovery
    # wave again has published that wave's SLAM maps and registers against
    # them, so a repeat is a cheaper workload than the first serve.  Each
    # round therefore builds both arms afresh and serves the recovery wave
    # once per arm, the arm served first alternating between rounds; the
    # verdict is the median of the per-round throughput ratios, so neither
    # a one-off stall nor a load change between the arms flips it.
    rounds = []
    for round_index in range(RECOVERY_ROUNDS):
        updates_engine, updates_stale = arm(f"updates-{round_index}", map_updates=True)
        control_engine, control_stale = arm(f"control-{round_index}", map_updates=False)
        # Both arms hit the same wall after the drift: stale demotions, SLAM.
        for stale in (updates_stale, control_stale):
            reasons = [s.reason for r in stale.results.values()
                       for s in r.mode_switches]
            assert "map_stale" in reasons
            assert _mode_census(stale).get("slam", 0) > 0
        assert updates_stale.maps_updated and not control_stale.maps_updated

        order = [("updates", updates_engine), ("control", control_engine)]
        if round_index % 2:
            order.reverse()
        recovery = {}
        for label, engine in order:
            if round_index == 0 and label == "updates":
                recovery[label] = benchmark.pedantic(
                    lambda: engine.serve(recovery_fleet), rounds=1, iterations=1)
            else:
                recovery[label] = engine.serve(recovery_fleet)
        rounds.append(recovery)
    ratios = [recovery["updates"].sessions_per_second
              / recovery["control"].sessions_per_second for recovery in rounds]
    # Every round served the same work: the mode mix is deterministic.
    for recovery in rounds:
        for label, report in recovery.items():
            assert _mode_census(report) == _mode_census(rounds[0][label])
    recovered, control = rounds[0]["updates"], rounds[0]["control"]

    recovered_modes = _mode_census(recovered)
    control_modes = _mode_census(control)
    print_banner("Drifting world — incremental updates vs publish-only control")
    rows = []
    for label, report, modes in (("updates", recovered, recovered_modes),
                                 ("control", control, control_modes)):
        summary = report.summary()
        rows.append([
            label, summary["sessions"], round(summary["wall_s"], 2),
            round(summary["sessions_per_second"], 2),
            modes.get("registration", 0), modes.get("slam", 0),
            summary["map_updates"], summary["maps_updated"],
        ])
    print(format_table(
        ["arm", "sessions", "wall_s", "sessions/s", "reg_frames",
         "slam_frames", "updates", "applied"], rows))
    speedup = float(np.median(ratios))
    print(f"update-repair speedup on the drifted world: {speedup:.2f}x sessions/sec "
          f"(median of {len(ratios)} rounds: {', '.join(f'{r:.2f}' for r in ratios)})")

    # The headline: with updates, registration keeps displacing SLAM after
    # the drift, and the recovery wave serves strictly faster than the
    # publish-only control.
    assert recovered_modes.get("registration", 0) > 0
    assert recovered_modes.get("slam", 0) < control_modes.get("slam", 1)
    assert speedup > 1.0


def test_map_aware_autoscaler_sizing(benchmark, serving_settings, tmp_path):
    """Warm registration-heavy fleets converge to strictly fewer workers.

    The same deadline, the same autoscaler shape, the same fleet size —
    served once against an empty map store (SLAM-heavy: the sizing prior
    and the cost-aware capacity land high) and once against the warm store
    that wave built (registration-dominant: the prior lands low and the
    pool stays small), with the warm wave's steady-state serving latency
    still inside the deadline.
    """
    store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)

    def serve(prefix, base_seed):
        autoscaler = LatencyAutoscaler(min_workers=1, max_workers=8, window=48,
                                       grow_patience=2, shrink_patience=4,
                                       cooldown=2)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=MAP_GATE, autoscaler=autoscaler,
                               frames_per_worker_tick=2)
        return engine.serve(
            _drift_wave(prefix, base_seed, serving_settings,
                        fleet_size=FLEET_SIZE, deadline_ms=DEADLINE_MS))

    cold = serve("cold", 0)
    warm = benchmark.pedantic(lambda: serve("warm", 9000), rounds=1, iterations=1)
    assert warm.map_acquisition_count > 0, "warm wave acquired no fleet map"

    steady = warm.virtual_latency_ms[len(warm.virtual_latency_ms) // 2:]
    steady_p95 = float(np.percentile(steady, 95.0)) if steady else 0.0
    print_banner("Map-aware autoscaling — cold SLAM fleet vs warm registration fleet")
    for label, report in (("cold", cold), ("warm", warm)):
        log = [(d.tick, d.action, d.workers_before, d.workers_after)
               for d in report.scale_decisions if d.action != "hold"]
        print(f"{label}: prime->final workers "
              f"{report.scale_decisions[0].workers_after}->{report.final_workers}, "
              f"decisions {log}")
    print(f"warm steady-state serving p95: {steady_p95:.1f} ms "
          f"(deadline {DEADLINE_MS:.0f} ms)")

    cold_prime, warm_prime = cold.scale_decisions[0], warm.scale_decisions[0]
    assert cold_prime.action == warm_prime.action == "prime"
    # The mode-mix prior sizes the warm fleet strictly smaller up front...
    assert warm_prime.workers_after < cold_prime.workers_after
    # ...and the decision log converges to strictly fewer workers than the
    # cold wave needed, while steady-state p95 still meets the deadline.
    assert warm.final_workers < cold.final_workers
    assert steady_p95 <= DEADLINE_MS
