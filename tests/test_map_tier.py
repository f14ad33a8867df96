"""The tiered map-distribution plane (ROADMAP item 5, tier layer).

Contracts pinned here:

* **Tier-1 cache**: a :class:`SnapshotCache` lookup whose version stamp
  matches the store head is a hit — no unpickle, no merge, no store
  resolve traffic; the quality gate is applied per lookup over one cached
  canonical; bounds evict LRU; ``invalidate`` is exact.
* **Cross-instance invalidation**: a *foreign* store handle publishing or
  compacting the environment flips the version stamp, so every sibling
  cache misses and recomputes — the cache can never serve content the
  store would no longer produce (the sharded engine's coordination plane,
  extended from ``TestMapStoreCrossInstance``).
* **Bounded staleness**: ``staleness_bound=K`` serves an entry at most K
  distinct canonical-version movements behind head, counted as stale
  serves, never silently; ``0`` (the default) is strict.
* **Tier-2 delta sync**: ``materialize`` rebuilds the exact canonical
  from ``{version, inputs}`` references; the sharded engine ships
  references instead of snapshots and the byte accounting shows it.
* **Update-aware drift gating**: observed ``map_stale`` evidence closes a
  drifting environment's own quality gate *before* the next wave's
  sessions demote mid-segment, and the gate lifts when the canonical
  version moves.
"""

import numpy as np
import pytest

from repro.cluster import ShardedServingEngine
from repro.maps import (
    MapSnapshot,
    MapStore,
    SnapshotCache,
    SyncAccounting,
    resolve_staleness_bound,
)
from repro.maps.tier import MAP_STALENESS_ENV, payload_bytes
from repro.sensors.scenarios import ScenarioKind
from repro.serving import (
    ServingEngine,
    StreamSegment,
    StreamSpec,
    drifting_environment_fleet,
)

SEGMENT = 2.0
RATE = 5.0
EASY_GATE = 0.05


def _snapshot(environment_id="env-a", count=40, spread=4.0, residual=0.05,
              seed=0, id_offset=0, **overrides):
    rng = np.random.default_rng(seed)
    defaults = dict(
        environment_id=environment_id,
        landmark_ids=np.arange(id_offset, id_offset + count),
        positions=rng.uniform(-spread, spread, size=(count, 3)),
        mean_residual_m=residual,
        max_residual_m=3.0 * residual,
        source="test",
    )
    defaults.update(overrides)
    return MapSnapshot(**defaults)


def _store(tmp_path, name="maps"):
    return MapStore(tmp_path / name, max_bytes=-1, max_age_s=-1)


def _env_spec(stream_id, environment, seed=0):
    return StreamSpec(
        stream_id=stream_id,
        segments=(StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT,
                                environment=environment),),
        camera_rate_hz=RATE, landmark_count=120, seed=seed)


class TestResolveStalenessBound:
    def test_default_is_strict(self):
        assert resolve_staleness_bound() == 0

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(MAP_STALENESS_ENV, "5")
        assert resolve_staleness_bound(2) == 2
        assert resolve_staleness_bound() == 5

    def test_negative_and_garbage_clamp_to_strict(self, monkeypatch):
        assert resolve_staleness_bound(-3) == 0
        monkeypatch.setenv(MAP_STALENESS_ENV, "-1")
        assert resolve_staleness_bound() == 0
        monkeypatch.setenv(MAP_STALENESS_ENV, "lots")
        assert resolve_staleness_bound() == 0


class TestSnapshotCache:
    def test_hit_skips_store_entirely(self, tmp_path):
        store = _store(tmp_path)
        store.publish(_snapshot())
        cache = SnapshotCache(store)
        first = cache.resolve("env-a", min_quality=0.0)
        assert first is not None
        assert (cache.misses, cache.hits) == (1, 0)
        store_counts = (store.resolve_hits, store.resolve_misses)
        second = cache.resolve("env-a", min_quality=0.0)
        assert second is first  # the cached object, no reload, no re-merge
        assert (cache.misses, cache.hits) == (1, 1)
        # A hit validates via the directory stamp only — the store's
        # resolve machinery is never consulted.
        assert (store.resolve_hits, store.resolve_misses) == store_counts
        assert cache.hit_rate == 0.5

    def test_quality_gate_is_per_lookup(self, tmp_path):
        store = _store(tmp_path)
        store.publish(_snapshot(count=12, spread=0.5))
        cache = SnapshotCache(store)
        strict = cache.resolve("env-a", min_quality=0.99)
        assert strict is None  # gated out...
        assert cache.resolve("env-a", min_quality=0.0) is not None
        # ...but both lookups shared one cached merge (miss then hit).
        assert (cache.misses, cache.hits) == (1, 1)

    def test_foreign_publish_flips_the_stamp(self, tmp_path):
        """Satellite: cross-instance invalidation through the cache."""
        mine, sibling = _store(tmp_path), _store(tmp_path)
        mine.publish(_snapshot(count=40, seed=1))
        cache = SnapshotCache(mine)
        first = cache.resolve("env-a", min_quality=0.0)
        assert cache.resolve("env-a", min_quality=0.0).version == first.version
        assert (cache.misses, cache.hits) == (1, 1)
        # A foreign handle publishes new content: the stamp moves, the
        # cache must miss and recompute — never serve the old canonical.
        sibling.publish(_snapshot(count=40, seed=2, id_offset=100))
        second = cache.resolve("env-a", min_quality=0.0)
        assert second.version != first.version
        assert second.landmark_count > first.landmark_count
        assert (cache.misses, cache.hits) == (2, 1)

    def test_foreign_compaction_flips_the_stamp(self, tmp_path):
        mine, sibling = _store(tmp_path), _store(tmp_path)
        mine.publish(_snapshot(count=30, seed=3))
        mine.publish(_snapshot(count=30, seed=4, id_offset=200))
        cache = SnapshotCache(mine)
        merged = cache.resolve("env-a", min_quality=0.0)
        # The sibling compacts history down to the merged canonical (the
        # post-update shape): same content, different stem set — stamp
        # moves, so the entry revalidates as a miss.
        sibling.publish(merged)
        for key in sibling.version_stamp("env-a"):
            if key != f"env-a__{merged.version}":
                sibling.path_for(key).unlink()
        cache.resolve("env-a", min_quality=0.0)
        assert (cache.misses, cache.hits) == (2, 0)

    def test_entry_bound_evicts_lru(self, tmp_path):
        store = _store(tmp_path)
        for env in ("env-a", "env-b", "env-c"):
            store.publish(_snapshot(environment_id=env))
        cache = SnapshotCache(store, max_entries=2)
        cache.resolve("env-a", min_quality=0.0)
        cache.resolve("env-b", min_quality=0.0)
        cache.resolve("env-c", min_quality=0.0)  # evicts env-a (oldest)
        assert cache.entry_count == 2
        assert cache.evictions == 1
        cache.resolve("env-b", min_quality=0.0)
        assert cache.hits == 1  # env-b survived
        cache.resolve("env-a", min_quality=0.0)
        assert cache.misses == 4  # env-a was evicted: recompute

    def test_single_entry_over_byte_bound_still_serves(self, tmp_path):
        store = _store(tmp_path)
        store.publish(_snapshot(count=400))
        cache = SnapshotCache(store, max_mb=1e-6)  # impossibly tight
        assert cache.resolve("env-a", min_quality=0.0) is not None
        # The sole entry exceeds the byte bound but must not thrash away.
        assert cache.entry_count == 1
        assert cache.resolve("env-a", min_quality=0.0) is not None
        assert cache.hits == 1

    def test_invalidate_counts_and_scopes(self, tmp_path):
        store = _store(tmp_path)
        store.publish(_snapshot(environment_id="env-a"))
        store.publish(_snapshot(environment_id="env-b"))
        cache = SnapshotCache(store)
        cache.resolve("env-a", min_quality=0.0)
        cache.resolve("env-b", min_quality=0.0)
        assert cache.invalidate("env-a") == 1
        assert cache.entry_count == 1
        assert cache.invalidate() == 1
        assert cache.entry_count == 0 and cache.cached_bytes == 0
        assert cache.invalidations == 2


class TestBoundedStaleness:
    def test_strict_mode_misses_on_stamp_move(self, tmp_path):
        mine, sibling = _store(tmp_path), _store(tmp_path)
        mine.publish(_snapshot(seed=1))
        cache = SnapshotCache(mine)
        cache.resolve("env-a", min_quality=0.0)
        sibling.publish(_snapshot(seed=2, id_offset=100))
        fresh = cache.resolve("env-a", min_quality=0.0, staleness_bound=0)
        assert fresh.landmark_count == 80  # the recomputed merge
        assert cache.stale_serves == 0

    def test_bound_serves_k_versions_behind(self, tmp_path):
        mine, sibling = _store(tmp_path), _store(tmp_path)
        mine.publish(_snapshot(seed=1))
        cache = SnapshotCache(mine)
        old = cache.resolve("env-a", min_quality=0.0)
        sibling.publish(_snapshot(seed=2, id_offset=100))
        # One version behind, bound 1: served stale, counted.
        stale = cache.resolve("env-a", min_quality=0.0, staleness_bound=1)
        assert stale.version == old.version
        # Repeated looks at the SAME moved head stay "1 behind".
        again = cache.resolve("env-a", min_quality=0.0, staleness_bound=1)
        assert again.version == old.version
        assert cache.stale_serves == 2
        # A second distinct movement exceeds the bound: recompute.
        sibling.publish(_snapshot(seed=3, id_offset=200))
        fresh = cache.resolve("env-a", min_quality=0.0, staleness_bound=1)
        assert fresh.version != old.version
        assert fresh.landmark_count == 120
        assert (cache.misses, cache.stale_serves) == (2, 2)

    def test_engine_staleness_bound_defers_foreign_publishes(self, tmp_path):
        store = _store(tmp_path)
        cold = [_env_spec("cold-0", "depot", seed=0),
                _env_spec("cold-1", "depot", seed=1000)]
        seed_engine = ServingEngine(store=None, map_store=store,
                                    min_map_quality=EASY_GATE)
        seed_engine.serve(cold)
        bounded = ServingEngine(store=None,
                                map_store=_store(tmp_path),
                                min_map_quality=EASY_GATE, map_updates=False,
                                map_staleness_bound=1)
        warm = bounded.serve([_env_spec("w0", "depot", seed=7000)])
        pinned = next(iter(warm.fleet_maps.values()))
        assert warm.map_cache_misses == 1 and warm.map_staleness_served == 0
        # A foreign wave (another engine) republishes: head moves.
        seed_engine.serve([_env_spec("f0", "depot", seed=8000)])
        stale = bounded.serve([_env_spec("w1", "depot", seed=9000)])
        # Within the bound the engine serves the version it already has —
        # reported as a stale serve, not hidden in the hit count.
        assert next(iter(stale.fleet_maps.values())) == pinned
        assert stale.map_staleness_served == 1
        assert stale.map_cache_hit_rate == 1.0
        # Strict engines on the same root see the new head immediately.
        strict = ServingEngine(store=None,
                               map_store=_store(tmp_path),
                               min_map_quality=EASY_GATE, map_updates=False)
        head = strict.serve([_env_spec("w2", "depot", seed=9500)])
        assert next(iter(head.fleet_maps.values())) != pinned


class TestMaterialize:
    def test_rebuild_is_the_exact_canonical(self, tmp_path):
        store = _store(tmp_path)
        store.publish(_snapshot(seed=1))
        store.publish(_snapshot(seed=2, id_offset=100))
        stamp, canonical = store.canonical_provenance("env-a")
        # A fresh handle + cache (the shard side) rebuilds from references.
        shard_cache = SnapshotCache(_store(tmp_path))
        rebuilt = shard_cache.materialize("env-a", canonical.version, stamp)
        assert rebuilt is not None and rebuilt.version == canonical.version
        assert shard_cache.materializations == 1
        # Idempotent: the cached entry satisfies the same reference.
        again = shard_cache.materialize("env-a", canonical.version, stamp)
        assert again is rebuilt
        assert shard_cache.materializations == 1

    def test_unloadable_or_mismatched_inputs_return_none(self, tmp_path):
        store = _store(tmp_path)
        snapshot = _snapshot(seed=1)
        store.publish(snapshot)
        cache = SnapshotCache(store)
        assert cache.materialize("env-a", snapshot.version,
                                 ["env-a__missing"]) is None
        assert cache.materialize("env-a", "not-the-version",
                                 [f"env-a__{snapshot.version}"]) is None
        assert cache.materialize("env-a", snapshot.version, []) is None
        assert cache.materializations == 0


class TestSyncAccounting:
    def test_record_and_savings(self):
        sync = SyncAccounting()
        assert sync.savings_fraction == 0.0
        sync.record(full_bytes=1000, delta_bytes=100, environments=2)
        sync.record(full_bytes=1000, delta_bytes=900, environments=2,
                    fallbacks=1)
        assert sync.waves == 2 and sync.environments == 4
        assert sync.fallbacks == 1
        assert sync.savings_fraction == pytest.approx(0.5)
        assert sync.as_dict()["savings_fraction"] == pytest.approx(0.5)

    def test_payload_bytes_is_pickle_cost(self):
        assert payload_bytes({"a": 1}) > 0
        assert payload_bytes(_snapshot(count=200)) > \
            payload_bytes({"version": "x" * 64, "inputs": ["y" * 70]})


class TestClusterDeltaSync:
    def _warm_store(self, tmp_path):
        store = _store(tmp_path)
        cold = [_env_spec(f"cold-{i}", "depot", seed=seed)
                for i, seed in enumerate((0, 1000))]
        ServingEngine(store=None, map_store=store,
                      min_map_quality=EASY_GATE).serve(
            cold)
        return store

    def test_process_wave_ships_references_not_snapshots(self, tmp_path):
        self._warm_store(tmp_path)
        # map_updates off: an applied update fold moves the canonical and
        # would (correctly) turn the second wave into a revalidating miss;
        # the frozen store isolates the cache/sync protocol itself.
        cluster = ShardedServingEngine(
            2, map_store=_store(tmp_path), min_map_quality=EASY_GATE,
            shard_parallel=True, map_updates=False)
        warm = [_env_spec(f"warm-{i}", "depot", seed=5000 + i)
                for i in range(4)]
        report = cluster.serve(warm, parallel=True)
        # The payload path ran (on a 1-core host fan_out computes the same
        # payloads in-process — the protocol is identical either way).
        assert len(report.fleet_maps) == 1
        sync = cluster.sync_accounting
        assert sync.waves == 1 and sync.fallbacks == 0
        # The acceptance pin: references cost strictly less than the
        # full-snapshot protocol would have for the same wave.
        assert 0 < sync.delta_bytes < sync.full_bytes
        # Coordinator resolve went through its Tier-1 cache.
        assert report.map_cache_misses == 1
        second = cluster.serve(
            [_env_spec(f"again-{i}", "depot", seed=6000 + i)
             for i in range(4)], parallel=True)
        assert second.map_cache_hits >= 1

    def test_sequential_waves_ship_nothing(self, tmp_path):
        self._warm_store(tmp_path)
        cluster = ShardedServingEngine(
            2, map_store=_store(tmp_path), min_map_quality=EASY_GATE,
            shard_parallel=False)
        cluster.serve([_env_spec(f"warm-{i}", "depot", seed=5000 + i)
                       for i in range(4)], parallel=False)
        # In-process shards share the coordinator's objects: no sync bytes.
        assert cluster.sync_accounting.waves == 0


class TestUpdateAwareDriftGate:
    """Satellite: observed drift evidence closes the gate pre-demotion."""

    def _drift_kwargs(self):
        return dict(environment="yard", segment_duration=SEGMENT,
                    camera_rate_hz=RATE, drift_m=2.0, drift_fraction=0.4,
                    drift_seed=7)

    def test_condemned_version_is_withheld_until_repaired(self, tmp_path,
                                                          monkeypatch):
        import repro.serving.session as session_module
        original_publish_gate = session_module.MIN_PUBLISH_LANDMARKS
        store = _store(tmp_path)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE)
        engine.serve(drifting_environment_fleet(
            2, segment_duration=SEGMENT, camera_rate_hz=RATE,
            environment="yard"))
        # Now suppress BOTH repair channels: the drifted wave demotes
        # (map_stale) but produces no update and republishes nothing —
        # exactly the regime where re-serving the same canonical would
        # demote every wave forever.
        monkeypatch.setattr("repro.serving.session.MIN_UPDATE_LANDMARKS",
                            10 ** 9)
        monkeypatch.setattr("repro.serving.session.MIN_PUBLISH_LANDMARKS",
                            10 ** 9)
        stale = engine.serve(
            drifting_environment_fleet(2, base_seed=20000, prefix="stale",
                                       **self._drift_kwargs()))
        reasons = {switch.reason for result in stale.results.values()
                   for switch in result.mode_switches}
        assert "map_stale" in reasons
        assert not stale.maps_updated and stale.maps_published == 0
        condemned = dict(engine._map_drift_evidence)
        assert condemned  # the demotion was recorded as evidence
        # The next wave must NOT be handed the condemned map at all: no
        # acquisition, no mid-segment demotion — the gate closed first.
        gated = engine.serve(
            drifting_environment_fleet(2, base_seed=30000, prefix="gated",
                                       **self._drift_kwargs()))
        assert gated.fleet_maps == {}
        assert gated.map_acquisition_count == 0
        gated_reasons = {switch.reason for result in gated.results.values()
                         for switch in result.mode_switches}
        assert "map_stale" not in gated_reasons
        # Re-enable publication: the still-gated fleet runs SLAM on the
        # drifted world and republishes, moving the canonical...
        monkeypatch.setattr("repro.serving.session.MIN_PUBLISH_LANDMARKS",
                            original_publish_gate)
        repair = engine.serve(
            drifting_environment_fleet(2, base_seed=40000, prefix="repair",
                                       **self._drift_kwargs()))
        assert repair.fleet_maps == {} and repair.maps_published > 0
        # ...which lifts the gate: the next wave resolves and serves the
        # repaired version, not the condemned one.
        recovered = engine.serve(
            drifting_environment_fleet(2, base_seed=50000, prefix="recov",
                                       **self._drift_kwargs()))
        assert recovered.fleet_maps
        for environment_id, version in recovered.fleet_maps.items():
            assert condemned.get(environment_id) != version
        assert engine._map_drift_evidence == {}

    def test_publish_only_engines_never_gate(self, tmp_path, monkeypatch):
        """A map_updates=False engine observes the same demotions but must
        not withhold — it is the control arm of the update experiments."""
        monkeypatch.setattr("repro.serving.session.MIN_UPDATE_LANDMARKS",
                            10 ** 9)
        store = _store(tmp_path)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE, map_updates=False)
        engine.serve(drifting_environment_fleet(
            2, segment_duration=SEGMENT, camera_rate_hz=RATE,
            environment="yard"))
        stale = engine.serve(
            drifting_environment_fleet(2, base_seed=20000, prefix="stale",
                                       **self._drift_kwargs()))
        reasons = {switch.reason for result in stale.results.values()
                   for switch in result.mode_switches}
        assert "map_stale" in reasons
        assert engine._map_drift_evidence == {}
