"""Serving integration of the fleet map service.

The contracts pinned here:

* sessions naming the same environment traverse the *same* landmark world
  (the substrate that makes cross-session map reuse physically meaningful);
* a cold fleet's SLAM segments publish snapshots at segment/stream exits,
  and the engine writes them to the map store after serving;
* a later wave acquires the merged fleet map: acquisitions are logged,
  registration displaces SLAM in the mode log, and the ``map_acquired``
  switch reason marks the online map-entry event;
* served sessions stay bit-identical to :func:`run_session` with map
  acquisition enabled (resolution happens once, up front);
* the resolved map version is folded into the serving cache key, so warm
  and cold serves of one spec occupy different run-store entries;
* the quality gate keeps unusable (degraded/stale) maps out of serving.
"""

import numpy as np
import pytest

from repro.experiments.runner import RunStore, sensor_config_for
from repro.maps import MapStore, degrade_snapshot
from repro.scheduler import LatencyAutoscaler
from repro.sensors.scenarios import ScenarioKind
from repro.serving import (
    MODE_FRAME_COST,
    ScenarioStream,
    ServingEngine,
    Session,
    StreamSegment,
    StreamSpec,
    cold_start_fleet,
    drift_world,
    drifting_environment_fleet,
    expected_segment_mode,
    mixed_fleet,
    multi_environment_fleet,
    run_session,
    segment_environment_id,
    serving_key,
)
from repro.serving.engine import _prime_autoscaler

SEGMENT = 2.0
RATE = 5.0
# Short test fleets build small maps; a permissive gate keeps the focus on
# the lifecycle (dedicated tests pin the gate behavior itself).
EASY_GATE = 0.05


def _env_spec(stream_id, environment, seed=0, lead_kind=None,
              segment_duration=SEGMENT):
    """One session: optional lead segment, then a shared indoor segment."""
    segments = []
    if lead_kind is not None:
        segments.append(StreamSegment(lead_kind, segment_duration))
    segments.append(StreamSegment(ScenarioKind.INDOOR_UNKNOWN, segment_duration,
                                  environment=environment))
    return StreamSpec(stream_id=stream_id, segments=tuple(segments),
                      camera_rate_hz=RATE, landmark_count=120, seed=seed)


def _warm_store(tmp_path, environment="shared-env", seeds=(0, 1000)):
    """A map store seeded by a small cold wave over ``environment``."""
    store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
    cold = [_env_spec(f"cold-{i}", environment, seed=seed)
            for i, seed in enumerate(seeds)]
    ServingEngine(store=None, map_store=store,
                  min_map_quality=EASY_GATE).serve(
        cold)
    return store


class TestSharedWorlds:
    def test_same_environment_same_world(self):
        a = _env_spec("a", "atrium", seed=0)
        b = _env_spec("b", "atrium", seed=123456)
        world_a = ScenarioStream(a, sensor_config_for("drone", RATE, a.seed)).build_segment(0).world
        world_b = ScenarioStream(b, sensor_config_for("drone", RATE, b.seed)).build_segment(0).world
        np.testing.assert_array_equal(world_a.positions, world_b.positions)

    def test_different_environment_different_world(self):
        a = _env_spec("a", "atrium", seed=0)
        b = _env_spec("b", "warehouse", seed=0)
        world_a = ScenarioStream(a, sensor_config_for("drone", RATE, a.seed)).build_segment(0).world
        world_b = ScenarioStream(b, sensor_config_for("drone", RATE, b.seed)).build_segment(0).world
        assert not np.array_equal(world_a.positions, world_b.positions)

    def test_unshared_segment_keeps_session_world(self):
        """Without an environment, sessions stay in per-seed worlds."""
        a = StreamSpec("a", (StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT),),
                       camera_rate_hz=RATE, landmark_count=120, seed=0)
        b = StreamSpec("b", (StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT),),
                       camera_rate_hz=RATE, landmark_count=120, seed=1000)
        world_a = ScenarioStream(a, sensor_config_for("drone", RATE, 0)).build_segment(0).world
        world_b = ScenarioStream(b, sensor_config_for("drone", RATE, 1000)).build_segment(0).world
        assert not np.array_equal(world_a.positions, world_b.positions)

    def test_environment_id_covers_world_determinants(self):
        base = _env_spec("a", "atrium")
        assert segment_environment_id(base, 0) == segment_environment_id(
            _env_spec("b", "atrium", seed=999), 0)
        other_rate = StreamSpec("c", base.segments, camera_rate_hz=10.0,
                                landmark_count=120, seed=0)
        assert segment_environment_id(base, 0) != segment_environment_id(other_rate, 0)
        other_count = StreamSpec("d", base.segments, camera_rate_hz=RATE,
                                 landmark_count=80, seed=0)
        assert segment_environment_id(base, 0) != segment_environment_id(other_count, 0)

    def test_environment_roundtrips_through_payload(self):
        spec = _env_spec("a", "atrium", lead_kind=ScenarioKind.OUTDOOR_UNKNOWN)
        rebuilt = StreamSpec.from_payload(spec.payload())
        assert rebuilt == spec
        assert rebuilt.environment_ids == spec.environment_ids
        assert list(spec.environment_ids) == [1]

    def test_fleet_factories_name_environments(self):
        cold = cold_start_fleet(3, environment="depot", explore_segments=2)
        for spec in cold:
            assert [seg.environment for seg in spec.segments] == [None, "depot", "depot"]
        tour = multi_environment_fleet(2, environments=("a", "b"))
        assert [seg.environment for seg in tour[0].segments] == [None, "a", "b"]
        assert [seg.environment for seg in tour[1].segments] == [None, "b", "a"]
        mixed = mixed_fleet(2, indoor_environment="depot")
        for spec in mixed:
            kinds = {seg.kind: seg.environment for seg in spec.segments}
            assert kinds[ScenarioKind.INDOOR_UNKNOWN] == "depot"


class TestMapLifecycle:
    def test_cold_session_publishes_at_exits(self, tmp_path):
        """One snapshot per SLAM stretch: segment exits and the stream end."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        spec = StreamSpec("cold", (
            StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT, environment="atrium"),
            StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, SEGMENT),
            StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT, environment="atrium"),
        ), camera_rate_hz=RATE, landmark_count=120, seed=0)
        report = ServingEngine(store=None, map_store=store).serve(
            [spec])
        result = report.results["cold"]
        # Segment 0 publishes at its exit, segment 2 at stream end; the
        # unshared outdoor segment publishes nothing.
        assert [s.segment_index for s in result.published_maps] == [0, 2]
        assert report.maps_published == 2
        environment_id = spec.environment_ids[0]
        assert {s.environment_id for s in result.published_maps} == {environment_id}
        assert len(store.snapshots(environment_id)) == 2
        for snapshot in result.published_maps:
            assert snapshot.source == "cold"
            assert snapshot.landmark_count > 0
            assert snapshot.frame_count > 0
        # Serving the same session again republishes identical content:
        # store recency refreshes, but nothing new is counted as published.
        again = ServingEngine(store=None, map_store=store).serve(
            [spec])
        assert again.maps_published == 0
        assert len(store.snapshots(environment_id)) == 2

    def test_mid_segment_slam_reset_restarts_publish_gate(self):
        """A mapper reset discards the map, so the frame gate restarts too.

        Otherwise a just-reset one-keyframe fragment — whose window
        residuals are deceptively near zero — could pass the publish gate
        on a stale count and outrank honest snapshots in the fleet merge.
        """
        from repro.core.modes import BackendMode

        spec = _env_spec("reset", "shared-env", seed=3)
        session = Session(spec)
        index, sequence = next(session.stream.segments())
        session._enter_segment(index, sequence)
        for frame in sequence.frames[:6]:  # serve SLAM frames in the shared segment
            session._serve(frame, sequence)
        assert session._segment_slam_frames >= 3
        session._handover(BackendMode.SLAM, sequence.frames[5])
        assert session._segment_slam_frames == 0

    def test_registration_sessions_do_not_republish(self, tmp_path):
        store = _warm_store(tmp_path)
        warm = [_env_spec("warm", "shared-env", seed=7777)]
        report = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE).serve(
            warm)
        result = report.results["warm"]
        assert result.map_acquisitions
        assert not result.published_maps
        assert report.maps_published == 0

    def test_surveyed_map_beats_fleet_map(self, tmp_path):
        """A prebuilt (survey) map wins over any fleet map for that segment."""
        store = _warm_store(tmp_path)
        spec = StreamSpec("kn", (
            StreamSegment(ScenarioKind.INDOOR_KNOWN, SEGMENT, environment="shared-env"),
        ), camera_rate_hz=RATE, landmark_count=120, seed=5)
        # Surveyed segments sit outside the map service entirely: no
        # environment id, so their cache keys are independent of map-store
        # evolution they could never observe.
        assert spec.environment_ids == {}
        report = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE).serve(
            [spec])
        assert not report.results["kn"].map_acquisitions
        assert report.fleet_maps == {}

    def test_warm_wave_registers_with_map_acquired_reason(self, tmp_path):
        store = _warm_store(tmp_path)
        # Lead with an *unshared* indoor segment: SLAM, then the fleet map
        # unlocks registration at the shared segment — the online map-entry.
        warm = [_env_spec("warm", "shared-env", seed=4242,
                          lead_kind=ScenarioKind.INDOOR_UNKNOWN)]
        report = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE).serve(
            warm)
        result = report.results["warm"]
        acquisition = result.map_acquisitions[0]
        assert acquisition.segment_index == 1
        assert acquisition.version == report.fleet_maps[acquisition.environment_id]
        modes = [e.mode for e in result.trajectory.estimates]
        boundary = result.segment_starts[1]
        assert set(modes[:boundary]) == {"slam"}
        assert set(modes[boundary:]) == {"registration"}
        switches = [(s.frame_index, s.to_mode, s.reason) for s in result.mode_switches]
        assert (boundary, "registration", "map_acquired") in switches
        # Accuracy stays sane against the fleet-built (not surveyed) map.
        assert result.trajectory.rmse_error() < 2.0

    def test_quality_gate_blocks_acquisition(self, tmp_path):
        store = _warm_store(tmp_path)
        warm = [_env_spec("warm", "shared-env", seed=4242)]
        report = ServingEngine(store=None, map_store=store,
                               min_map_quality=0.999).serve(
            warm)
        result = report.results["warm"]
        assert not result.map_acquisitions
        assert report.fleet_maps == {}
        assert {e.mode for e in result.trajectory.estimates} == {"slam"}
        # Staying cold, the wave keeps publishing snapshots of its own.
        assert result.published_maps

    def test_stale_map_injection_rejected_by_gate(self, tmp_path):
        """A degraded (stale) fleet map fails the gate; sessions stay SLAM."""
        seeded = _warm_store(tmp_path)
        environment_id = _env_spec("x", "shared-env").environment_ids[0]
        good = seeded.resolve(environment_id, min_quality=0.0)
        stale_store = MapStore(tmp_path / "stale", max_bytes=-1, max_age_s=-1)
        stale_store.publish(degrade_snapshot(good, position_noise_m=2.0,
                                             drop_fraction=0.5, seed=9))
        gate = good.quality * 0.8
        assert stale_store.resolve(environment_id, min_quality=gate) is None
        warm = [_env_spec("warm", "shared-env", seed=4242)]
        report = ServingEngine(store=None, map_store=stale_store,
                               min_map_quality=gate).serve(
            warm)
        assert not report.results["warm"].map_acquisitions
        assert {e.mode for e in report.results["warm"].trajectory.estimates} == {"slam"}

    def test_multi_environment_tour_acquires_everywhere(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE)
        cold = multi_environment_fleet(2, environments=("atrium", "depot"),
                                       segment_duration=SEGMENT,
                                       camera_rate_hz=RATE, landmark_count=120)
        engine.serve(cold)
        assert len(store.environments()) == 2
        warm = multi_environment_fleet(1, environments=("atrium", "depot"),
                                       base_seed=5000, prefix="wave2",
                                       segment_duration=SEGMENT,
                                       camera_rate_hz=RATE, landmark_count=120)
        report = engine.serve(warm)
        result = report.results["wave2-000"]
        assert len(result.map_acquisitions) == 2
        assert len({a.environment_id for a in result.map_acquisitions}) == 2
        assert len(report.fleet_maps) == 2
        assert report.summary()["map_acquisitions"] == 2


def _modes(report):
    return report.mode_census()


def _switch_reasons(report):
    return [switch.reason for result in report.results.values()
            for switch in result.mode_switches]


class TestMapUpdateLifecycle:
    """The closed lifecycle: registration sessions hand deltas back."""

    def test_warm_sessions_produce_and_apply_updates(self, tmp_path):
        store = _warm_store(tmp_path)
        environment_id = _env_spec("x", "shared-env").environment_ids[0]
        before = store.resolve(environment_id, min_quality=0.0).version
        warm = [_env_spec("warm", "shared-env", seed=7777)]
        report = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE).serve(
            warm)
        result = report.results["warm"]
        # The session registered against the map and handed back a delta...
        assert result.map_acquisitions and result.map_updates
        update = result.map_updates[0]
        assert update.environment_id == environment_id
        assert update.base_version == before
        assert update.landmark_count >= 8
        assert int(update.observation_counts.sum()) >= update.landmark_count
        # ...which the engine folded into a new canonical version, visible
        # in the report and on re-resolve, with the history compacted.
        assert report.map_update_count == 1
        assert set(report.maps_updated) == {environment_id}
        after = store.resolve(environment_id, min_quality=0.0).version
        assert after == report.maps_updated[environment_id] != before
        assert len(store.snapshots(environment_id)) == 1

    def test_updates_visible_next_wave_never_mid_call(self, tmp_path):
        """The serve call that produced the updates still served the
        pre-update canonical (resolution is pre-dispatch); the next call
        acquires the refreshed version."""
        store = _warm_store(tmp_path)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE)
        first = engine.serve([_env_spec("w1", "shared-env", seed=7777)])
        environment_id = next(iter(first.fleet_maps))
        assert first.fleet_maps[environment_id] != first.maps_updated[environment_id]
        second = engine.serve([_env_spec("w2", "shared-env", seed=8888)])
        assert (second.fleet_maps[environment_id]
                == first.maps_updated[environment_id])
        assert (second.results["w2"].map_acquisitions[0].version
                == first.maps_updated[environment_id])

    def test_updates_disabled_keeps_store_frozen(self, tmp_path):
        store = _warm_store(tmp_path)
        environment_id = _env_spec("x", "shared-env").environment_ids[0]
        history = [s.version for s in store.snapshots(environment_id)]
        report = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE, map_updates=False).serve(
            [_env_spec("warm", "shared-env", seed=7777)])
        # Sessions still *produce* deltas (pure data in the result)...
        assert report.map_update_count == 1
        # ...but nothing is applied: the PR-4 publish-only behavior.
        assert report.maps_updated == {}
        assert [s.version for s in store.snapshots(environment_id)] == history

    def test_replayed_sessions_do_not_republish_into_live_history(self, tmp_path):
        """A run-store hit must not write its published_maps back into an
        environment with live history: re-publishing a cached wave's
        snapshots would resurrect content apply_updates deliberately
        compacted (pruned landmarks must stay pruned)."""
        run_store = RunStore(tmp_path / "runs", max_bytes=-1, max_age_s=-1)
        map_store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
        # The replaying engine never resolves a map (impossible gate), so
        # the cold wave's serving key stays stable across the compaction.
        replaying = ServingEngine(store=run_store,
                                  map_store=map_store, min_map_quality=0.999)
        cold = [_env_spec("cold", "shared-env", seed=0)]
        first = replaying.serve(cold)
        assert first.maps_published > 0
        environment_id = _env_spec("x", "shared-env").environment_ids[0]
        # A warm wave through a serving engine updates + compacts the env.
        ServingEngine(store=None, map_store=map_store,
                      min_map_quality=EASY_GATE).serve(
            [_env_spec("warm", "shared-env", seed=7777)])
        compacted = [s.version for s in map_store.snapshots(environment_id)]
        assert len(compacted) == 1  # history folded into the updated version
        # Replaying the cold wave must leave the compacted history alone.
        again = replaying.serve(cold)
        assert again.store_hits == 1
        assert again.maps_published == 0
        assert ([s.version for s in map_store.snapshots(environment_id)]
                == compacted)

    def test_replayed_sessions_reseed_emptied_store(self, tmp_path):
        """The flip side: if the map store was evicted/wiped while the run
        store stayed warm, replayed sessions re-seed the empty environment
        — otherwise those maps would be lost for as long as the cache
        keeps hitting."""
        run_store = RunStore(tmp_path / "runs", max_bytes=-1, max_age_s=-1)
        map_store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=run_store,
                               map_store=map_store, min_map_quality=0.999)
        cold = [_env_spec("cold", "shared-env", seed=0)]
        first = engine.serve(cold)
        assert first.maps_published > 0
        environment_id = _env_spec("x", "shared-env").environment_ids[0]
        versions = {s.version for s in map_store.snapshots(environment_id)}
        for key in list(map_store._snapshot_keys(environment_id)):
            map_store.path_for(key).unlink()  # the eviction
        again = engine.serve(cold)
        assert again.store_hits == 1
        assert again.maps_published == first.maps_published
        assert {s.version
                for s in map_store.snapshots(environment_id)} == versions

    def test_three_wave_lifecycle_bit_identical_to_run_session(self, tmp_path):
        """publish -> resolve -> update -> re-resolve over three serve
        calls: every wave's sessions are bit-identical to the same specs run
        straight through against the canonical map the store held before
        that wave."""
        store = MapStore(tmp_path / "maps", max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE)
        waves = []
        for wave_index, base_seed in enumerate((0, 5000, 11000)):
            fleet = [_env_spec(f"v{wave_index}-{i}", "shared-env",
                               seed=base_seed + 1000 * i) for i in range(2)]
            environment_id = fleet[0].environment_ids[0]
            canonical = store.resolve(environment_id, min_quality=EASY_GATE)
            maps = {environment_id: canonical} if canonical is not None else None
            report = engine.serve(fleet)
            for spec in fleet:
                assert (report.results[spec.stream_id].signature()
                        == run_session(spec, maps=maps).signature())
            waves.append(report)
        # Wave 1 published, wave 2 acquired + updated, wave 3 acquired the
        # refreshed canonical: the lifecycle actually closed.
        assert waves[0].maps_published > 0 and not waves[0].fleet_maps
        assert waves[1].map_update_count > 0 and waves[1].maps_updated
        assert (list(waves[2].fleet_maps.values())
                == list(waves[1].maps_updated.values()))


class TestDriftingWorlds:
    """Landmark displacement bursts: staleness -> update -> recovery."""

    def test_drift_world_moves_only_the_chosen_fraction(self):
        spec = _env_spec("a", "atrium")
        world = ScenarioStream(
            spec, sensor_config_for("drone", RATE, 0)).build_segment(0).world
        drifted = drift_world(world, drift_m=2.0, fraction=0.4, seed=7)
        assert len(drifted) == len(world)
        np.testing.assert_array_equal(drifted.landmark_ids, world.landmark_ids)
        np.testing.assert_array_equal(drifted.appearance_seeds, world.appearance_seeds)
        moved = np.linalg.norm(drifted.positions - world.positions, axis=1) > 0
        assert 0 < moved.sum() < len(world)
        # Deterministic: same seed, same burst.
        again = drift_world(world, drift_m=2.0, fraction=0.4, seed=7)
        np.testing.assert_array_equal(again.positions, drifted.positions)

    def test_drift_does_not_change_environment_identity(self):
        """The fleet cannot observe the drift from the spec: same
        environment id, so the stale map is still resolved and served —
        the condition the staleness lifecycle exists for."""
        plain = drifting_environment_fleet(1, environment="yard")[0]
        drifted = drifting_environment_fleet(1, environment="yard",
                                             drift_m=2.0, drift_fraction=0.4)[0]
        assert plain.environment_ids == drifted.environment_ids
        # But the serving cache key differs: drifted worlds produce
        # different results and must not alias cached pre-drift sessions.
        assert serving_key(plain) != serving_key(drifted)

    def test_inert_drift_normalizes_to_legacy_identity(self):
        """Zero-effect drift parameters (m=0 or fraction=0, any seed) build
        the identical world, so they normalize to the canonical no-drift
        segment: payload shape and cache keys stay exactly legacy —
        factory-built and hand-built equivalent fleets share the cache."""
        plain = StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT,
                              environment="yard")
        inert = StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT,
                              environment="yard", world_drift_m=2.0,
                              world_drift_fraction=0.0, world_drift_seed=5)
        assert inert == plain and not inert.drifted
        assert "world_drift_m" not in plain.payload()
        assert inert.payload() == plain.payload()
        # Factory default drift_seed must not split the cache either.
        factory = drifting_environment_fleet(1, environment="yard")[0]
        hand_built = cold_start_fleet(1, environment="yard")[0]
        assert serving_key(factory) == serving_key(hand_built)
        # Active drift round-trips through the payload losslessly.
        active = StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT,
                               environment="yard", world_drift_m=2.0,
                               world_drift_fraction=0.4, world_drift_seed=5)
        assert StreamSegment.from_payload(active.payload()) == active
        assert active.drifted

    def test_stale_map_demoted_then_recovered_through_updates(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        engine = ServingEngine(store=None, map_store=store,
                               min_map_quality=EASY_GATE)
        cold = drifting_environment_fleet(2, environment="yard",
                                          segment_duration=SEGMENT,
                                          camera_rate_hz=RATE)
        assert engine.serve(cold).maps_published > 0
        drift_kwargs = dict(environment="yard", segment_duration=SEGMENT,
                            camera_rate_hz=RATE, drift_m=2.0,
                            drift_fraction=0.4, drift_seed=7)
        stale_wave = drifting_environment_fleet(2, base_seed=20000,
                                                prefix="stale", **drift_kwargs)
        stale = engine.serve(stale_wave)
        # The drifted world reads as inflated residuals: sessions demote the
        # stale map mid-segment and fall back to SLAM...
        assert "map_stale" in _switch_reasons(stale)
        assert _modes(stale).get("slam", 0) > 0
        # ...and their updates carry the inflated residual evidence.
        assert stale.map_update_count > 0
        assert stale.maps_updated
        # The next wave on the same drifted world registers cleanly against
        # the repaired canonical: no demotion, no SLAM.
        recovered_wave = drifting_environment_fleet(2, base_seed=30000,
                                                    prefix="recov", **drift_kwargs)
        recovered = engine.serve(recovered_wave)
        assert "map_stale" not in _switch_reasons(recovered)
        assert _modes(recovered).get("slam", 0) == 0
        assert recovered.map_acquisition_count == len(recovered_wave) * 2


class TestMapAwareSizing:
    """The mode-mix sizing prior and cost-aware streaming capacity."""

    def test_expected_segment_mode_follows_fig2(self):
        spec = StreamSpec("s", (
            StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, SEGMENT),
            StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, SEGMENT,
                          gps_outage_probability=1.0),
            StreamSegment(ScenarioKind.INDOOR_KNOWN, SEGMENT),
            StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT,
                          environment="atrium"),
        ), camera_rate_hz=RATE, landmark_count=120, seed=0)
        environment_id = spec.environment_ids[3]
        assert expected_segment_mode(spec, 0) == "vio"
        assert expected_segment_mode(spec, 1) == "slam"  # full outage
        assert expected_segment_mode(spec, 2) == "registration"  # surveyed
        assert expected_segment_mode(spec, 3) == "slam"  # no fleet map yet
        assert expected_segment_mode(spec, 3, {environment_id}) == "registration"
        assert (MODE_FRAME_COST["registration"] < MODE_FRAME_COST["slam"]
                and MODE_FRAME_COST["vio"] < MODE_FRAME_COST["slam"])

    def test_partial_outage_interpolates_cost(self):
        """A 90%-outage segment serves 90% of its frames GPS-denied; the
        sizing cost must interpolate, not round to VIO (a mostly-denied
        fleet primed as pure VIO would start 3x too narrow)."""
        spec = StreamSpec("s", (
            StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, SEGMENT,
                          gps_outage_probability=0.9),
        ), camera_rate_hz=RATE, landmark_count=120, seed=0)
        assert expected_segment_mode(spec, 0) == "slam"  # the majority mode
        costs = ServingEngine._segment_costs(spec, {})
        expected = 0.1 * MODE_FRAME_COST["vio"] + 0.9 * MODE_FRAME_COST["slam"]
        assert costs == (pytest.approx(expected),)

    def test_warm_fleet_primes_lower_than_cold(self, tmp_path):
        def autoscaler():
            return LatencyAutoscaler(min_workers=1, max_workers=8, window=48,
                                     grow_patience=2, shrink_patience=4,
                                     cooldown=2)

        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)

        def serve(fleet):
            engine = ServingEngine(store=None, map_store=store,
                                   min_map_quality=EASY_GATE,
                                   autoscaler=autoscaler(),
                                   frames_per_worker_tick=2)
            return engine.serve(fleet)

        cold = serve(cold_start_fleet(4, environment="size-env",
                                      segment_duration=SEGMENT,
                                      camera_rate_hz=RATE, deadline_ms=400.0))
        warm = serve(cold_start_fleet(4, environment="size-env", base_seed=9000,
                                      segment_duration=SEGMENT,
                                      camera_rate_hz=RATE, deadline_ms=400.0,
                                      prefix="warm"))
        cold_prime, warm_prime = (report.scale_decisions[0]
                                  for report in (cold, warm))
        assert cold_prime.action == warm_prime.action == "prime"
        # The warm fleet's registration-dominant mix sizes strictly smaller.
        assert warm_prime.workers_after < cold_prime.workers_after
        assert warm.map_acquisition_count == 8

    def test_prime_scales_demand_by_frame_rate(self, tmp_path):
        """A slow session delivers a fraction of a frame per event-loop
        tick; the prior must not count it as a full frame (heterogeneous
        fleets would otherwise prime over-wide and shrink back — the exact
        cold-start cycle the prior exists to avoid)."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)

        def engine():
            return ServingEngine(store=None, map_store=store,
                                 autoscaler=LatencyAutoscaler(min_workers=1,
                                                              max_workers=16),
                                 frames_per_worker_tick=1)

        def slam_spec(stream_id, rate):
            return StreamSpec(stream_id, (
                StreamSegment(ScenarioKind.INDOOR_UNKNOWN, SEGMENT),
            ), camera_rate_hz=rate, landmark_count=120, seed=0)

        fast = slam_spec("fast", 10.0)
        slow = [slam_spec(f"slow-{i}", 5.0) for i in range(3)]
        e = engine()
        costs = {spec.stream_id: e._segment_costs(spec, {})
                 for spec in [fast] + slow}
        decision = _prime_autoscaler(e.autoscaler, [fast] + slow, costs,
                                     e.frames_per_worker_tick)
        # 1 full-rate SLAM session + 3 half-rate ones = 2.5 cost-units per
        # tick, not the naive 4.
        assert decision.workers_after == 3

    def test_sizing_disabled_without_map_store(self):
        """No map store => no mode-mix knowledge => no prime decision (the
        PR-3 autoscaling behavior, golden-pinned elsewhere)."""
        engine = ServingEngine(store=None,
                               autoscaler=LatencyAutoscaler(min_workers=1,
                                                            max_workers=4))
        assert not engine.map_aware_sizing
        report = engine.serve(
            [_env_spec("plain", "anywhere", seed=1)])
        assert all(d.action != "prime" for d in report.scale_decisions)


class TestMapDeterminism:
    @pytest.fixture(scope="class")
    def warm_setup(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("maps-determinism")
        store = _warm_store(tmp)
        warm = [_env_spec(f"w-{i}", "shared-env", seed=3000 + 1000 * i,
                          lead_kind=ScenarioKind.OUTDOOR_UNKNOWN)
                for i in range(3)]
        return store, warm

    def _engine(self, store):
        # map_updates=False freezes the store across the repeated serves of
        # this class: these tests pin the acquisition contract against ONE
        # canonical map state.  The closed update lifecycle (where each
        # serve refreshes the canonical) has its own determinism suite in
        # TestMapUpdateLifecycle, with a fresh store per execution path.
        return ServingEngine(store=None, map_store=store,
                             min_map_quality=EASY_GATE, map_updates=False)

    def test_streaming_identical_to_run_session_with_acquisition(self, warm_setup):
        store, warm = warm_setup
        streaming = self._engine(store).serve(warm)
        assert streaming.map_acquisition_count == len(warm)
        environment_id = warm[0].environment_ids[1]
        maps = {environment_id: store.resolve(environment_id,
                                              min_quality=EASY_GATE)}
        for spec in warm:
            expected = run_session(spec, maps=maps)
            served = streaming.results[spec.stream_id]
            assert served.signature() == expected.signature()
            assert ([(a.environment_id, a.version, a.frame_index)
                     for a in expected.map_acquisitions]
                    == [(a.environment_id, a.version, a.frame_index)
                        for a in served.map_acquisitions])

    def test_acquisition_changes_signature(self, warm_setup):
        store, warm = warm_setup
        with_map = self._engine(store).serve(warm)
        mapless = ServingEngine(store=None).serve(
            warm)
        for stream_id in with_map.results:
            assert (with_map.results[stream_id].signature()
                    != mapless.results[stream_id].signature())

    def test_serving_key_folds_map_versions(self, warm_setup):
        store, warm = warm_setup
        spec = warm[0]
        environment_id = spec.environment_ids[1]
        version = store.resolve(environment_id, min_quality=EASY_GATE).version
        assert serving_key(spec) == serving_key(spec, {})
        assert serving_key(spec) != serving_key(spec, {environment_id: version})
        assert (serving_key(spec, {environment_id: version})
                != serving_key(spec, {environment_id: "f" * 16}))

    def test_run_store_separates_cold_and_warm_entries(self, warm_setup, tmp_path):
        """The same spec before/after the fleet map matured never collides."""
        store, warm = warm_setup
        run_store = RunStore(tmp_path / "runs", max_bytes=-1, max_age_s=-1)
        spec = warm[0]
        cold_engine = ServingEngine(store=run_store)
        cold_report = cold_engine.serve([spec])
        assert cold_report.computed_sessions == 1
        warm_engine = ServingEngine(store=run_store, map_store=store,
                                    min_map_quality=EASY_GATE, map_updates=False)
        first = warm_engine.serve([spec])
        assert first.store_hits == 0 and first.computed_sessions == 1
        second = warm_engine.serve([spec])
        assert second.store_hits == 1 and second.computed_sessions == 0
        assert (second.results[spec.stream_id].signature()
                == first.results[spec.stream_id].signature())
        # The cached warm result still carries its acquisition provenance.
        assert second.results[spec.stream_id].map_acquisitions
        # And the cold entry is untouched: serving mapless hits it again.
        again_cold = cold_engine.serve([spec])
        assert again_cold.store_hits == 1
        assert not again_cold.results[spec.stream_id].map_acquisitions
