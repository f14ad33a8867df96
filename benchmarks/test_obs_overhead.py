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

Wall-clock ratios on shared CI runners are noisy, and a load change between
two unpaired sets of rounds moves them further.  So the serves run in
pairs, one disabled and one instrumented back to back, with the side that
goes first swapped from pair to pair; each pair gives one ratio, and the
hard assertion is on the median ratio (instrumented <= 1.35x disabled).
The measured percentage is printed for the humans reading the benchmark
log.  The unit suite (tests/test_obs_serving.py) pins the functional half
of the contract.
"""

import statistics
import time

from conftest import append_bench_row, print_banner

from repro.obs import FlightRecorder, MetricsRegistry, SLOTracker, Tracer
from repro.obs.profile import disable_kernel_tracing, enable_kernel_tracing
from repro.serving import ServingEngine, mixed_fleet

FLEET_SIZE = 16
PAIRS = 3  # disabled/instrumented pairs; the first side alternates per pair
MAX_OVERHEAD_RATIO = 1.35


def _timed(serve):
    started = time.perf_counter()
    result = serve()
    return time.perf_counter() - started, result


def _paired_rounds(serve_disabled, serve_instrumented):
    """Per-pair walls and the last result of each side, first side alternating."""
    walls = {"disabled": [], "instrumented": []}
    last = {}
    for pair in range(PAIRS):
        sides = [("disabled", serve_disabled), ("instrumented", serve_instrumented)]
        for name, serve in (sides if pair % 2 == 0 else sides[::-1]):
            elapsed, last[name] = _timed(serve)
            walls[name].append(elapsed)
    return walls, last


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

    # The paired rounds run under pytest-benchmark, so the suite's timing
    # report includes them.
    walls, last = benchmark.pedantic(_paired_rounds,
                                     args=(serve_disabled, serve_instrumented),
                                     rounds=1, iterations=1)
    baseline, (report, tracer) = last["disabled"], last["instrumented"]
    ratio = statistics.median(instrumented / disabled for disabled, instrumented
                              in zip(walls["disabled"], walls["instrumented"]))
    disabled_s = statistics.median(walls["disabled"])
    instrumented_s = statistics.median(walls["instrumented"])
    identical = all(
        report.results[stream_id].signature() == result.signature()
        for stream_id, result in baseline.results.items()
    )
    categories = sorted({event.name.split(".")[0]
                         for event in tracer.by_category("kernel")})

    print_banner("Observability — tracing/metrics overhead, 16-session fleet")
    print(f"disabled (median of {PAIRS}):     {disabled_s:8.3f} s")
    print(f"instrumented (median of {PAIRS}): {instrumented_s:8.3f} s")
    print(f"overhead: {100.0 * (ratio - 1.0):+.1f}% median per pair "
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
