"""The canonical-map plane between the store and the engines (ROADMAP
item 5).

Contracts pinned here:

* **One canonical-map memo**: :meth:`MapStore.resolve` is the only
  canonical-map cache.  A resolve whose snapshot file stems are unchanged
  is a memo hit — no unpickle, no merge — the quality gate is applied per
  lookup over one memoized canonical, and a foreign publish is a miss
  (all pinned on the store in ``tests/test_maps.py``).  Here: a foreign
  publish reaches an engine's very next wave.
* **Shards get the resolved maps**: the sharded coordinator resolves each
  wave once through its store's memo and ships the resolved snapshots
  themselves to its shards.  A shard builds no map store and never
  merges, and every session serves exactly the version the coordinator
  resolved.
* **Update-aware drift gating**: observed ``map_stale`` evidence closes a
  drifting environment's own quality gate *before* the next wave's
  sessions demote mid-segment, and the gate lifts when the canonical
  version moves.
"""

from repro.cluster import ShardedServingEngine
from repro.maps import MapStore
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


def _store(tmp_path, name="maps"):
    return MapStore(tmp_path / name, max_bytes=-1, max_age_s=-1)


def _env_spec(stream_id, environment, seed=0):
    return StreamSpec(
        stream_id=stream_id,
        segments=(StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT,
                                environment=environment),),
        camera_rate_hz=RATE, landmark_count=120, seed=seed)


class TestCanonicalMemo:
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


class TestClusterFleetMaps:
    def _warm_store(self, tmp_path):
        store = _store(tmp_path)
        cold = [_env_spec(f"cold-{i}", "depot", seed=seed)
                for i, seed in enumerate((0, 1000))]
        ServingEngine(store=None, map_store=store,
                      min_map_quality=EASY_GATE).serve(
            cold)
        return store

    def test_process_wave_resolves_once_through_the_memo(self, tmp_path,
                                                         monkeypatch):
        self._warm_store(tmp_path)
        # Width 2 lets the shards spawn even on a 1-core host.
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", "2")
        # map_updates off: an applied update fold moves the canonical and
        # would (correctly) turn the second wave into a revalidating miss;
        # the frozen store isolates the memo itself.
        cluster = ShardedServingEngine(
            2, map_store=_store(tmp_path), min_map_quality=EASY_GATE,
            map_updates=False)
        report = cluster.serve([_env_spec(f"warm-{i}", "depot", seed=5000 + i)
                                for i in range(4)])
        assert report.parallel
        assert len(report.fleet_maps) == 1
        # The coordinator's resolve is the only lookup the wave counts.
        assert (report.map_resolve_misses, report.map_resolve_hits) == (1, 0)
        second = cluster.serve(
            [_env_spec(f"again-{i}", "depot", seed=6000 + i)
             for i in range(4)])
        assert (second.map_resolve_misses, second.map_resolve_hits) == (0, 1)

    def test_shards_build_no_map_store(self, tmp_path, monkeypatch):
        self._warm_store(tmp_path)
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", "1")
        cluster = ShardedServingEngine(
            2, map_store=_store(tmp_path), min_map_quality=EASY_GATE)
        constructed = []
        init = MapStore.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MapStore, "__init__", counting_init)
        report = cluster.serve([_env_spec(f"warm-{i}", "depot", seed=5000 + i)
                                for i in range(4)])
        assert len(set(report.shard_of.values())) == 2
        assert constructed == []
        # Every session served exactly the map the coordinator resolved.
        assert report.fleet_maps
        acquisitions = [acquisition for result in report.results.values()
                        for acquisition in result.map_acquisitions]
        assert acquisitions
        for acquisition in acquisitions:
            assert report.fleet_maps[acquisition.environment_id] == \
                acquisition.version


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
