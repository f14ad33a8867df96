"""Map tiering: canonical-memo economics + Tier-2 delta sync, bit-identical.

The tiered map plane must pay for itself without buying any of it with
correctness.  This benchmark serves one warm fleet through clusters of
increasing width with the full tier plane active (the coordinator store's
canonical-map memo, ``{version, inputs}`` shard sync) and pins both halves:

* **determinism** — every topology's report signature equals a plain
  engine's on an identically warmed store (content addressing makes
  separately warmed roots byte-identical), with the memo and the
  reference protocol in the path;
* **economics** — a warm re-serve is answered by the store's resolve memo
  (resolve hit rate >= 0.5 — in practice 1.0: no unpickle, no re-merge),
  and a drifting-world update wave ships strictly fewer sync bytes as
  references than the full-snapshot protocol would have.
"""

from conftest import append_bench_row, print_banner

from repro.characterization.report import format_table
from repro.cluster import ShardedServingEngine
from repro.maps import MapStore
from repro.serving import ServingEngine, drifting_environment_fleet

RATE = 5.0
#: Small test fleets build small maps; the permissive gate keeps the focus
#: on the tier plane (the unit tests pin the gate behavior itself).
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


def _fleet(duration, base_seed, prefix, **drift):
    return drifting_environment_fleet(
        FLEET_SIZE, environment=ENVIRONMENT, base_seed=base_seed,
        prefix=prefix, segment_duration=duration, camera_rate_hz=RATE,
        **drift)


def test_map_tiering(benchmark, tmp_path, monkeypatch, shard_settings,
                     serving_settings):
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
        # Memo + delta sync active: bit-identical to the plain engine at
        # every width.
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

    # Tier-2 on a drifting-world update wave: >= 2 loaded shards, payload
    # dispatch, updates applied — and the references must undercut the
    # full-snapshot protocol.  Sync bytes count only what crossed a process
    # boundary, so the width is pinned wide enough to spawn on any host.
    monkeypatch.setenv("EUDOXUS_MAX_WORKERS", str(max(shard_counts)))
    sync_root = tmp_path / "maps-sync"
    _warm_root(sync_root, duration)
    sync_cluster = ShardedServingEngine(
        max(shard_counts), map_store=_store(sync_root), min_map_quality=GATE)
    update_wave = sync_cluster.serve(
        _fleet(duration, 20000, "drift",
               drift_m=2.0, drift_fraction=0.4, drift_seed=7))
    sync = sync_cluster.sync_accounting
    if max(shard_counts) >= 2:
        assert len(set(update_wave.shard_of.values())) >= 2, (
            "update wave loaded a single shard — sync path unexercised")
        assert update_wave.maps_updated, "drifted wave repaired nothing"
        assert sync.waves >= 1 and sync.fallbacks == 0
        assert 0 < sync.delta_bytes < sync.full_bytes, (
            f"references ({sync.delta_bytes} B) did not undercut full "
            f"snapshots ({sync.full_bytes} B)")
    append_bench_row(
        "map_tiering_sync",
        savings_fraction=sync.savings_fraction,
        delta_bytes=sync.delta_bytes,
        full_bytes=sync.full_bytes,
    )

    print_banner("Serving — tiered map distribution")
    print(format_table(
        ["shards", "execution", "sessions", "warm_hit_rate", "sessions/s"],
        rows))
    print(f"\nall widths bit-identical to the plain engine: True")
    print(f"update-wave sync: {sync.delta_bytes} B shipped as references "
          f"vs {sync.full_bytes} B full snapshots "
          f"({100.0 * sync.savings_fraction:.1f}% saved, "
          f"{sync.fallbacks} fallbacks)")
