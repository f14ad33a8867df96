"""The tiered map-distribution plane (ROADMAP item 5, tier layer).

Contracts pinned here:

* **One canonical-map memo**: :meth:`MapStore.resolve` is the only
  canonical-map cache.  A resolve whose snapshot file stems are unchanged
  is a memo hit — no unpickle, no merge — the quality gate is applied per
  lookup over one memoized canonical, and a foreign publish is a miss
  (all pinned on the store in ``tests/test_maps.py``).  Here: a foreign
  publish reaches an engine's very next wave.
* **Tier-2 delta sync**: :meth:`MapStore.canonical_provenance` reads a
  resolve's ``{version, inputs}`` reference off the memo without counting a
  second lookup; :meth:`MapStore.materialize` rebuilds the exact canonical
  from it; the sharded engine ships references instead of snapshots, the
  byte accounting shows it, and a reference no shard can rebuild fails the
  wave loudly.
* **Update-aware drift gating**: observed ``map_stale`` evidence closes a
  drifting environment's own quality gate *before* the next wave's
  sessions demote mid-segment, and the gate lifts when the canonical
  version moves.
"""

import numpy as np
import pytest

from repro.cluster import ShardedServingEngine
from repro.maps import MapMerger, MapSnapshot, MapStore, SyncAccounting
from repro.maps.tier import payload_bytes
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


class TestCanonicalMemo:
    def test_provenance_reads_the_memo_only(self, tmp_path):
        store = _store(tmp_path)
        store.publish(_snapshot(seed=1))
        store.publish(_snapshot(seed=2, id_offset=100))
        assert store.canonical_provenance("env-a") == ((), None)
        resolved = store.resolve("env-a", min_quality=0.0)
        counts = (store.resolve_hits, store.resolve_misses)
        inputs, canonical = store.canonical_provenance("env-a")
        assert canonical is resolved
        assert inputs == tuple(sorted(f"env-a__{snapshot.version}"
                                      for snapshot in store.snapshots("env-a")))
        # A reference is read, not looked up: no second count.
        assert (store.resolve_hits, store.resolve_misses) == counts
        # The memo only vouches for the merger parameters it merged under.
        other = MapMerger(drift_residual_m=0.123)
        assert store.canonical_provenance("env-a", other) == ((), None)

    def test_engine_sees_foreign_publish_next_wave(self, tmp_path):
        store = _store(tmp_path)
        seed_engine = ServingEngine(store=None, map_store=store,
                                    min_map_quality=EASY_GATE)
        seed_engine.serve([_env_spec("cold-0", "depot", seed=0),
                           _env_spec("cold-1", "depot", seed=1000)])
        engine = ServingEngine(store=None, map_store=_store(tmp_path),
                               min_map_quality=EASY_GATE, map_updates=False)
        warm = engine.serve([_env_spec("w0", "depot", seed=7000)])
        pinned = next(iter(warm.fleet_maps.values()))
        assert (warm.map_resolve_misses, warm.map_resolve_hits) == (1, 0)
        # A foreign wave (another engine) republishes: the stems move.
        seed_engine.serve([_env_spec("f0", "depot", seed=8000)])
        head = engine.serve([_env_spec("w1", "depot", seed=9000)])
        # The next wave serves the new head and reports the re-merge.
        assert next(iter(head.fleet_maps.values())) != pinned
        assert (head.map_resolve_misses, head.map_resolve_hits) == (1, 0)
        assert head.map_staleness_served == 0


class TestMaterialize:
    def test_rebuild_is_the_exact_canonical(self, tmp_path):
        store = _store(tmp_path)
        store.publish(_snapshot(seed=1))
        store.publish(_snapshot(seed=2, id_offset=100))
        store.resolve("env-a", min_quality=0.0)
        inputs, canonical = store.canonical_provenance("env-a")
        # A fresh handle (the shard side) rebuilds from the reference.
        shard_store = _store(tmp_path)
        rebuilt = shard_store.materialize("env-a", canonical.version, inputs)
        assert rebuilt is not None and rebuilt.version == canonical.version
        # Rebuilding is not a resolve: the shard's memo counters stay put.
        assert (shard_store.resolve_hits, shard_store.resolve_misses) == (0, 0)

    def test_unloadable_or_mismatched_inputs_return_none(self, tmp_path):
        store = _store(tmp_path)
        snapshot = _snapshot(seed=1)
        store.publish(snapshot)
        store.publish(_snapshot(environment_id="env-b", seed=2))
        stem = f"env-a__{snapshot.version}"
        assert store.materialize("env-a", snapshot.version,
                                 ["env-a__missing"]) is None
        assert store.materialize("env-a", "not-the-version", [stem]) is None
        assert store.materialize("env-a", snapshot.version, []) is None
        # A stem of another environment never vouches for this one.
        assert store.materialize("env-b", snapshot.version, [stem]) is None
        assert store.materialize("env-a", snapshot.version, [stem]) is not None


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

    def test_process_wave_ships_references_not_snapshots(self, tmp_path,
                                                         monkeypatch):
        self._warm_store(tmp_path)
        # Width 2 lets the shards spawn even on a 1-core host: sync bytes
        # count only what crossed a process boundary.
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", "2")
        # map_updates off: an applied update fold moves the canonical and
        # would (correctly) turn the second wave into a revalidating miss;
        # the frozen store isolates the memo/sync protocol itself.
        cluster = ShardedServingEngine(
            2, map_store=_store(tmp_path), min_map_quality=EASY_GATE,
            map_updates=False)
        warm = [_env_spec(f"warm-{i}", "depot", seed=5000 + i)
                for i in range(4)]
        report = cluster.serve(warm)
        assert report.parallel
        assert len(report.fleet_maps) == 1
        sync = cluster.sync_accounting
        assert sync.waves == 1 and sync.fallbacks == 0
        # The acceptance pin: references cost strictly less than the
        # full-snapshot protocol would have for the same wave.
        assert 0 < sync.delta_bytes < sync.full_bytes
        # The coordinator's resolve is counted by the store memo, and
        # building the references counted nothing more.
        assert (report.map_resolve_misses, report.map_resolve_hits) == (1, 0)
        second = cluster.serve(
            [_env_spec(f"again-{i}", "depot", seed=6000 + i)
             for i in range(4)])
        assert (second.map_resolve_misses, second.map_resolve_hits) == (0, 1)

    def test_sequential_waves_ship_nothing(self, tmp_path, monkeypatch):
        self._warm_store(tmp_path)
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", "1")
        cluster = ShardedServingEngine(
            2, map_store=_store(tmp_path), min_map_quality=EASY_GATE)
        report = cluster.serve([_env_spec(f"warm-{i}", "depot", seed=5000 + i)
                                for i in range(4)])
        # In-process shards cross no process boundary: no sync bytes, even
        # though the same payloads were built.
        assert not report.parallel and len(report.fleet_maps) == 1
        assert cluster.sync_accounting.waves == 0

    def test_unmaterializable_reference_fails_loudly(self, tmp_path,
                                                     monkeypatch):
        """A reference no shard can rebuild — its stem is gone and its
        version is not the store's canonical — must fail the wave, never
        serve a map the coordinator did not resolve."""
        self._warm_store(tmp_path)
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", "1")
        cluster = ShardedServingEngine(
            2, map_store=_store(tmp_path), min_map_quality=EASY_GATE,
            map_updates=False)
        build_sync_plan = cluster._build_sync_plan

        def broken_sync_plan(fleet_maps):
            plan, fallbacks = build_sync_plan(fleet_maps)
            assert plan and fallbacks == 0
            for environment_id, ref in plan.items():
                ref["inputs"] = [f"{environment_id}__missing"]
                ref["version"] = "0" * 64
            return plan, fallbacks

        monkeypatch.setattr(cluster, "_build_sync_plan", broken_sync_plan)
        before = [snapshot.version
                  for snapshot in cluster.map_store.snapshots("depot")]
        with pytest.raises(RuntimeError, match="could not materialize"):
            cluster.serve([_env_spec(f"warm-{i}", "depot", seed=5000 + i)
                           for i in range(4)])
        # The failed wave published nothing.
        assert [snapshot.version for snapshot in
                cluster.map_store.snapshots("depot")] == before


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
