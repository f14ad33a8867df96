"""Serving throughput: a 16-session mixed-deployment fleet.

The serving engine multiplexes concurrent localization sessions — each a
time-varying deployment with indoor/outdoor transitions, GPS dropouts and
map entry/exit — on one virtual clock.  This benchmark serves the fleet
twice, once through the plain engine's streaming event loop and once
through a 2-shard cluster whose shards run in worker processes, verifies
the two are bit-identical (deterministic per-session seeds, the same
guarantee the experiment runner makes for cells), and reports the headline
serving metrics: sessions/sec, frames/sec, and p50/p95 per-frame latency.

The streaming case serves the same fleet through the arrival-time
ingestion event loop under a latency-aware autoscaler: frames are admitted
as they arrive on the virtual clock, an under-provisioned pool builds a
backlog whose serving latency breaches the per-session deadline, the
autoscaler grows the pool until the fleet keeps up, and shrinks it again
once the backlog drains — while every served session stays bit-identical
to the same spec run straight through (``run_session``).
"""

import numpy as np
from conftest import append_bench_row, print_banner

from repro.characterization.report import format_table
from repro.cluster import ShardedServingEngine
from repro.experiments.common import accelerator_for
from repro.scheduler import LatencyAutoscaler
from repro.serving import ServingEngine, mixed_fleet, run_session

FLEET_SIZE = 16
# Streaming-case QoS: two frame intervals at 5 Hz between a frame's arrival
# and its served estimate.
DEADLINE_MS = 400.0


def test_serving_throughput(benchmark, serving_settings):
    fleet = mixed_fleet(
        FLEET_SIZE,
        segment_duration=serving_settings["segment_duration"],
        camera_rate_hz=5.0,
    )

    serial = ServingEngine(store=None).serve(fleet)
    cluster = ShardedServingEngine(2)
    report = benchmark.pedantic(
        lambda: cluster.serve(fleet), rounds=1, iterations=1
    )

    identical = all(
        report.results[stream_id].signature() == result.signature()
        for stream_id, result in serial.results.items()
    )

    print_banner("Serving — 16 concurrent mixed-deployment sessions")
    rows = []
    for label, r in (("serial", serial), ("parallel", report)):
        summary = r.summary()
        rows.append([
            label, summary["sessions"], summary["frames"], round(summary["wall_s"], 2),
            round(summary["sessions_per_second"], 2), round(summary["frames_per_second"], 1),
            round(summary["p50_frame_ms"], 2), round(summary["p95_frame_ms"], 2),
            summary["mode_switches"], summary["workers"],
        ])
    print(format_table(
        ["path", "sessions", "frames", "wall_s", "sessions/s", "frames/s",
         "p50_ms", "p95_ms", "switches", "workers"], rows,
    ))
    print(f"\nsessions/sec (parallel): {report.sessions_per_second:.2f}")
    print(f"p95 frame latency (parallel): {report.latency_percentile(95.0):.2f} ms")
    print(f"mean event-loop batch width (serial): {serial.mean_batch_size:.1f}")
    print(f"parallel bit-identical to serial: {identical}")

    append_bench_row(
        "serving_throughput",
        sessions_per_second=report.sessions_per_second,
        frames_per_second=report.summary()["frames_per_second"],
        p95_frame_ms=report.latency_percentile(95.0),
    )

    assert report.session_count >= 16
    assert report.parallel, "no shard process spawned — the comparison would be vacuous"
    assert identical, "parallel serving diverged from serial"
    assert report.mode_switch_count > 0
    assert report.latency_percentile(95.0) > 0.0
    assert serial.mean_batch_size > 1.0


def test_serving_streaming_autoscale(benchmark, serving_settings):
    """Streaming ingestion under load: autoscaled capacity, identical bits."""
    fleet = mixed_fleet(
        FLEET_SIZE,
        segment_duration=serving_settings["segment_duration"],
        camera_rate_hz=5.0,
        deadline_ms=DEADLINE_MS,
    )

    isolated = {spec.stream_id: run_session(spec) for spec in fleet}

    accelerator = accelerator_for("drone")

    def serve_streaming():
        # A fresh autoscaler per round: it starts under-provisioned (one
        # worker against sixteen sessions) and must discover the right size.
        autoscaler = LatencyAutoscaler(min_workers=1, max_workers=8, window=48,
                                       grow_patience=2, shrink_patience=4,
                                       cooldown=2)
        engine = ServingEngine(store=None, autoscaler=autoscaler,
                               accelerator=accelerator)
        return engine.serve(fleet)

    report = benchmark.pedantic(serve_streaming, rounds=1, iterations=1)

    identical = all(
        report.results[stream_id].signature() == result.signature()
        for stream_id, result in isolated.items()
    )
    grows = [d for d in report.scale_decisions if d.action == "grow"]
    shrinks = [d for d in report.scale_decisions if d.action == "shrink"]
    # Steady state: the second half of the run, after the scaler converged.
    steady = report.virtual_latency_ms[len(report.virtual_latency_ms) // 2:]
    steady_p95 = float(np.percentile(steady, 95.0)) if steady else 0.0

    print_banner("Serving — streaming ingestion + latency-aware autoscaling")
    rows = [[d.tick, d.action, d.workers_before, d.workers_after,
             round(d.p95_ms, 1), round(d.pressure, 2)]
            for d in report.scale_decisions if d.resized]
    print(format_table(
        ["tick", "action", "workers", "->", "p95_ms", "pressure"], rows))
    print(f"\nframes served: {report.frame_count} over {report.ticks} virtual ticks")
    print(f"serving latency: p50 {report.virtual_latency_percentile(50.0):.1f} ms, "
          f"p95 {report.virtual_latency_percentile(95.0):.1f} ms "
          f"(steady-state p95 {steady_p95:.1f} ms vs {DEADLINE_MS:.0f} ms deadline)")
    print(f"deadline misses while converging: {report.deadline_misses}")
    print(f"pool: {report.scale_decisions[0].workers_before if report.scale_decisions else 1} "
          f"-> {report.final_workers} workers "
          f"({len(grows)} grow / {len(shrinks)} shrink decisions)")
    print(f"streaming bit-identical to run_session: {identical}")
    trained = {m: accelerator.scheduler.observation_count(m)
               for m in ("vio", "slam", "registration")}
    print(f"online offload-scheduler observations: {trained}")

    append_bench_row(
        "serving_streaming_autoscale",
        sessions_per_second=report.sessions_per_second,
        p95_serving_ms=report.virtual_latency_percentile(95.0),
        steady_p95_ms=steady_p95,
        deadline_misses=report.deadline_misses,
        final_workers=report.final_workers,
    )

    assert identical, "streaming ingestion diverged from run_session"
    assert grows, "an under-provisioned pool must grow under backlog pressure"
    assert shrinks, "the pool must shrink once the backlog drains"
    assert steady_p95 <= DEADLINE_MS, (
        "converged serving latency must meet the per-session deadline")
    assert sum(trained.values()) == report.frame_count
