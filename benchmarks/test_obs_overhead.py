"""Observability overhead: tracing must be ~free when off, cheap when on.

The inertness contract has a performance half: the ``tracer is None`` /
``metrics is None`` guards threaded through the serving stack must cost
nothing measurable when observability is off, and a fully instrumented
serve (tracer + bound metrics registry + kernel profiling hooks + SLO
tracker + flight recorder) must stay within a few percent of the plain
one on the 16-session streaming benchmark fleet.

Both configurations serve the identical fleet through the identical
streaming event loop; the run also re-verifies the bit-identity contract
under full instrumentation — overhead is only worth measuring if the
answers did not move.

Wall-clock ratios on shared CI runners are noisy, so the hard assertion is
deliberately generous (instrumented <= 1.35x best-of-N disabled) while the
measured percentage is printed for the humans reading the benchmark log.
The paired unit suite (tests/test_obs_serving.py) pins the functional
half of the contract.
"""

import time

from conftest import append_bench_row, print_banner

from repro.obs import FlightRecorder, MetricsRegistry, SLOTracker, Tracer
from repro.obs.profile import disable_kernel_tracing, enable_kernel_tracing
from repro.serving import ServingEngine, mixed_fleet

FLEET_SIZE = 16
ROUNDS = 2  # best-of-N: the minimum is the least-noisy wall-clock estimator
MAX_OVERHEAD_RATIO = 1.35


def _best_of(rounds, serve):
    best_s, report = float("inf"), None
    for _ in range(rounds):
        started = time.perf_counter()
        candidate = serve()
        elapsed = time.perf_counter() - started
        if elapsed < best_s:
            best_s, report = elapsed, candidate
    return best_s, report


def test_obs_overhead(benchmark, serving_settings, tmp_path):
    fleet = mixed_fleet(
        FLEET_SIZE,
        segment_duration=serving_settings["segment_duration"],
        camera_rate_hz=5.0,
    )

    def serve_disabled():
        return ServingEngine(store=None).serve(
            fleet)

    def serve_instrumented():
        tracer = Tracer()
        enable_kernel_tracing(tracer)
        try:
            engine = ServingEngine(store=None, tracer=tracer,
                                   metrics=MetricsRegistry(),
                                   slo=SLOTracker(domain="virtual"),
                                   recorder=FlightRecorder(root=tmp_path))
            report = engine.serve(fleet)
        finally:
            disable_kernel_tracing()
        return report, tracer

    disabled_s, baseline = _best_of(ROUNDS, serve_disabled)
    # One instrumented round runs under pytest-benchmark (so the suite's
    # timing report includes it); the rest are plain timed rounds.
    report, tracer = benchmark.pedantic(serve_instrumented,
                                        rounds=1, iterations=1)
    instrumented_s = float(benchmark.stats.stats.min)
    if ROUNDS > 1:
        extra_s, extra = _best_of(ROUNDS - 1, serve_instrumented)
        if extra_s < instrumented_s:
            instrumented_s, (report, tracer) = extra_s, extra

    ratio = instrumented_s / disabled_s
    identical = all(
        report.results[stream_id].signature() == result.signature()
        for stream_id, result in baseline.results.items()
    )
    categories = sorted({event.name.split(".")[0]
                         for event in tracer.by_category("kernel")})

    print_banner("Observability — tracing/metrics overhead, 16-session fleet")
    print(f"disabled (best of {ROUNDS}):     {disabled_s:8.3f} s")
    print(f"instrumented (best of {ROUNDS}): {instrumented_s:8.3f} s")
    print(f"overhead: {100.0 * (ratio - 1.0):+.1f}% "
          f"(assert ceiling {100.0 * (MAX_OVERHEAD_RATIO - 1.0):.0f}%)")
    print(f"spans recorded: {len(tracer)} (+{tracer.dropped} dropped), "
          f"kernel hook families: {categories}")
    print(f"instrumented bit-identical to plain: {identical}")

    append_bench_row(
        "obs_overhead",
        overhead_pct=100.0 * (ratio - 1.0),
        disabled_s=disabled_s,
        instrumented_s=instrumented_s,
        spans=len(tracer),
    )

    assert identical, "instrumentation moved the served signatures"
    assert len(tracer) > 0, "full instrumentation recorded no spans"
    assert tracer.by_category("kernel"), "kernel hooks recorded nothing"
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"full observability cost {100.0 * (ratio - 1.0):.1f}% on the "
        f"streaming benchmark — over the {MAX_OVERHEAD_RATIO:.2f}x ceiling")
