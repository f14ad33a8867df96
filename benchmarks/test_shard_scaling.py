"""Shard scaling: the same fleet served through 1..N coordinated engines.

The sharded engine partitions a multi-environment fleet across N full
serving engines by consistent-hashing ``stream_id``, runs the shards as
separate processes when the host has the cores, and merges the per-shard
reports.  This benchmark serves one fleet through a plain single engine
and through clusters of increasing width, then verifies the two halves of
the scale-out story:

* **determinism** — every topology produces bit-identical sessions, and
  the merged report's signature equals the plain engine's (the 1-shard
  case is the pinned acceptance bound, but the signature is in fact
  topology-invariant);
* **throughput** — sessions/sec per shard count, and the speedup over one
  shard, printed and appended to the benchmark trend log.  The speedup is
  not asserted: it follows the host's load, and a tier-1 test must not.
  What is asserted is that the cluster actually fanned out to worker
  processes whenever the host has the cores for it.

Walls are best-of-N to absorb process-pool warm-up jitter; the identity
assertions run on every round regardless.
"""

from conftest import append_bench_row, print_banner

from repro.characterization.report import format_table
from repro.cluster import ShardedServingEngine
from repro.experiments.runner import resolve_max_workers
from repro.scheduler import LatencyAutoscaler
from repro.serving import ServingEngine, multi_environment_fleet

FLEET_SIZE = 16
DEADLINE_MS = 400.0
#: Best-of-N walls per topology — one warm-up, one measured, keep the min.
ROUNDS = 2


def _cluster(shards: int) -> ShardedServingEngine:
    return ShardedServingEngine(
        shards,
        autoscaler_factory=lambda shard: LatencyAutoscaler(
            min_workers=1, max_workers=4),
    )


def _signatures(report):
    return {stream_id: result.signature()
            for stream_id, result in report.results.items()}


def test_shard_scaling(benchmark, shard_settings, serving_settings):
    fleet = multi_environment_fleet(
        FLEET_SIZE,
        segment_duration=serving_settings["segment_duration"],
        camera_rate_hz=5.0,
        deadline_ms=DEADLINE_MS,
    )
    baseline = ServingEngine(store=None).serve(fleet)
    expected = _signatures(baseline)

    cores = resolve_max_workers()
    shard_counts = shard_settings["shard_counts"]
    best = {}
    for shards in shard_counts:
        for round_index in range(ROUNDS):
            if shards == shard_counts[-1] and round_index == 0:
                report = benchmark.pedantic(
                    lambda: _cluster(shards).serve(fleet),
                    rounds=1, iterations=1)
            else:
                report = _cluster(shards).serve(fleet)
            assert _signatures(report) == expected, (
                f"{shards}-shard serving diverged from the plain engine")
            assert report.signature() == baseline.signature()
            if shards not in best or report.wall_s < best[shards].wall_s:
                best[shards] = report

    speedup = {
        shards: (best[shards].sessions_per_second /
                 best[1].sessions_per_second)
        for shards in shard_counts
    }

    print_banner(
        f"Serving — horizontal shard scaling ({cores} usable cores)")
    rows = []
    for shards in shard_counts:
        summary = best[shards].summary()
        rows.append([
            shards, "processes" if best[shards].parallel else "inline",
            summary["sessions"], summary["frames"],
            round(summary["wall_s"], 2),
            round(summary["sessions_per_second"], 2),
            round(summary["frames_per_second"], 1),
            round(speedup[shards], 2),
        ])
    print(format_table(
        ["shards", "execution", "sessions", "frames", "wall_s",
         "sessions/s", "frames/s", "speedup"], rows))
    print(f"\nall topologies bit-identical to the plain engine: True")
    print(f"report signature (topology-invariant): "
          f"{baseline.signature()[:16]}…")

    for shards in shard_counts:
        append_bench_row(
            f"shard_scaling_x{shards}",
            sessions_per_second=best[shards].sessions_per_second,
            speedup=speedup[shards],
            parallel=best[shards].parallel,
        )

    # The acceptance pin: a 1-shard cluster is the plain engine, bit for
    # bit, merged report included.
    assert best[1].signature() == baseline.signature()
    assert best[1].session_count == FLEET_SIZE

    if cores >= 4 and 4 in best:
        assert best[4].parallel, "4 cores available but no pool spawned"
    elif cores >= 2 and 2 in best:
        assert best[2].parallel, "2 cores available but no pool spawned"
    else:
        # Single usable core: every shard ran inline on one CPU.  The
        # identity assertions above carry the benchmark's weight.
        print("single-core host: fan-out check skipped, identity enforced")
