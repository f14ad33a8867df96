"""Map tiering: canonical-memo economics, bit-identical at every width.

The coordinator store's canonical-map memo must pay for itself without
buying any of it with correctness.  This benchmark serves one warm fleet
through clusters of increasing width, each shipping the resolved snapshots
to its shards, and pins both halves:

* **determinism** — every topology's report signature equals a plain
  engine's on an identically warmed store (content addressing makes
  separately warmed roots byte-identical), with the memo in the path;
* **economics** — a warm re-serve is answered by the store's resolve memo
  (resolve hit rate >= 0.5 — in practice 1.0: no unpickle, no re-merge).
"""

from conftest import append_bench_row, print_banner

from repro.characterization.report import format_table
from repro.cluster import ShardedServingEngine
from repro.maps import MapStore
from repro.serving import ServingEngine, drifting_environment_fleet

RATE = 5.0
#: Small test fleets build small maps; the permissive gate keeps the focus
#: on the memo (the unit tests pin the gate behavior itself).
GATE = 0.05
FLEET_SIZE = 6
ENVIRONMENT = "depot"


def _store(root) -> MapStore:
    return MapStore(root, max_bytes=-1, max_age_s=-1)


def _warm_root(root, duration) -> None:
    """Seed one store root with a deterministic cold wave's publishes."""
    cold = drifting_environment_fleet(
        2, environment=ENVIRONMENT, prefix="cold",
        segment_duration=duration, camera_rate_hz=RATE)
    ServingEngine(store=None, map_store=_store(root),
                  min_map_quality=GATE).serve(
        cold)


def _fleet(duration, base_seed, prefix):
    return drifting_environment_fleet(
        FLEET_SIZE, environment=ENVIRONMENT, base_seed=base_seed,
        prefix=prefix, segment_duration=duration, camera_rate_hz=RATE)


def test_map_tiering(benchmark, tmp_path, shard_settings, serving_settings):
    duration = serving_settings["segment_duration"]
    warm_wave = _fleet(duration, 5000, "warm")
    rewarm_wave = _fleet(duration, 6000, "rewarm")
    shard_counts = shard_settings["shard_counts"]

    # The oracle: a plain engine on its own identically warmed root, store
    # frozen so the canonical cannot move between the arms' waves.
    plain_root = tmp_path / "maps-plain"
    _warm_root(plain_root, duration)
    plain = ServingEngine(store=None,
                          map_store=_store(plain_root),
                          min_map_quality=GATE, map_updates=False).serve(
        warm_wave)

    rows = []
    for shards in shard_counts:
        root = tmp_path / f"maps-x{shards}"
        _warm_root(root, duration)
        cluster = ShardedServingEngine(
            shards, map_store=_store(root), min_map_quality=GATE,
            map_updates=False)
        first = cluster.serve(warm_wave)
        # Memo active, resolved maps shipped: bit-identical to the plain
        # engine at every width.
        assert first.signature() == plain.signature(), (
            f"{shards}-shard tiered serving diverged from the plain engine")
        assert first.map_resolve_misses >= 1  # the cold lookup is honest
        if shards == shard_counts[-1]:
            second = benchmark.pedantic(
                lambda: cluster.serve(rewarm_wave),
                rounds=1, iterations=1)
        else:
            second = cluster.serve(rewarm_wave)
        # The acceptance pin: a warm re-serve is answered by the memo.
        assert second.map_resolve_hit_rate >= 0.5, (
            f"re-warm wave resolve hit rate "
            f"{second.map_resolve_hit_rate:.2f} below 0.5 at {shards} shard(s)")
        rows.append([shards,
                     "processes" if second.parallel else "inline",
                     second.session_count,
                     round(second.map_resolve_hit_rate, 2),
                     round(second.sessions_per_second, 2)])
        append_bench_row(
            f"map_tiering_x{shards}",
            warm_hit_rate=second.map_resolve_hit_rate,
            sessions_per_second=second.sessions_per_second,
        )

    print_banner("Serving — tiered map distribution")
    print(format_table(
        ["shards", "execution", "sessions", "warm_hit_rate", "sessions/s"],
        rows))
    print(f"\nall widths bit-identical to the plain engine: True")
