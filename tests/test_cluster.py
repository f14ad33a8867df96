"""Horizontal sharding: ring, rebalancer, and the sharded serving engine.

The load-bearing contracts, in order of importance:

* **Bit-identity.**  A 1-shard :class:`ShardedServingEngine` produces a
  report whose :meth:`ServingReport.signature` equals the plain engine's,
  and an N-shard cluster serves every session to the plain engine's exact
  :meth:`SessionResult.signature` — sharding is an execution topology, not
  a result change.
* **Store-mediated coordination.**  The coordinator publishes the whole
  wave's snapshots and applies its MapUpdate deltas in one fold, exactly
  as the plain engine does; the refreshed canonical maps are what every
  shard is pinned to next wave, whatever the shard count.
* **Single-box assumption sweep.**  Cross-shard duplicate rejection before
  any shard serves; per-target-shard saturation for admission (not
  any-shard); churn telemetry counted once, not once per shard handle.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import pickle

import pytest

from repro.cluster import (
    DEFAULT_SLOT_COUNT,
    HashRing,
    RebalanceDecision,
    ShardRebalancer,
    ShardedServingEngine,
    ShardedServingReport,
    resolve_shard_count,
    resolve_slot_count,
)
import repro.cluster.engine as cluster_engine
from repro.cluster.engine import _serve_session_payload
from repro.experiments.runner import RunStore
from repro.maps import MapStore
from repro.scheduler import LatencyAutoscaler
from repro.serving import ServingEngine, cold_start_fleet, multi_environment_fleet


# Same budget as a plain engine's session results (tests/test_framework.py).
SESSION_BYTES_PER_FRAME = 2048


def small_fleet(count=5, prefix="session", base_seed=0):
    """A fast multi-environment fleet: transit + two indoor environments."""
    return multi_environment_fleet(
        count, segment_duration=1.0, base_seed=base_seed,
        deadline_ms=400.0, prefix=prefix)


def session_signatures(report):
    return {stream_id: result.signature()
            for stream_id, result in report.results.items()}


def make_scaler(shard=0):
    return LatencyAutoscaler(min_workers=1, max_workers=4)


# --------------------------------------------------------------------- ring


class TestHashRing:
    def test_slot_is_sha256_of_stream_id(self):
        # Never Python's salted hash(): the mapping must be identical in
        # every interpreter, or shards in different processes would route
        # the same stream differently.
        ring = HashRing(4)
        digest = hashlib.sha256(b"session-007").digest()
        expected = int.from_bytes(digest[:8], "big") % ring.slot_count
        assert ring.slot_of("session-007") == expected

    def test_initial_assignment_is_balanced(self):
        ring = HashRing(3, slot_count=64)
        sizes = [len(ring.slots_of(shard)) for shard in range(3)]
        assert sum(sizes) == 64
        assert max(sizes) - min(sizes) <= 1

    def test_shard_for_follows_slot_assignment(self):
        ring = HashRing(2, slot_count=8)
        stream = "session-001"
        slot = ring.slot_of(stream)
        assert ring.shard_for(stream) == ring.assignment()[slot]
        other = 1 - ring.shard_for(stream)
        ring.move([slot], other)
        assert ring.shard_for(stream) == other

    def test_move_counts_only_real_changes(self):
        ring = HashRing(2, slot_count=8)
        slots = ring.slots_of(1)[:2]
        assert ring.move(slots, 1) == 0  # already there
        assert ring.move(slots, 0) == 2
        assert ring.moves == 2

    def test_move_validates_slot_and_target(self):
        ring = HashRing(2, slot_count=8)
        with pytest.raises(ValueError):
            ring.move([0], 5)
        with pytest.raises(ValueError):
            ring.move([99], 0)

    def test_slot_count_knobs(self, monkeypatch):
        assert resolve_slot_count() == DEFAULT_SLOT_COUNT
        monkeypatch.setenv("EUDOXUS_SHARD_SLOTS", "16")
        assert resolve_slot_count() == 16
        assert resolve_slot_count(32) == 32  # explicit beats env
        with pytest.raises(ValueError):
            HashRing(8, slot_count=4)  # fewer slots than shards

    def test_shard_count_env_knob(self, monkeypatch):
        assert resolve_shard_count() == 1
        monkeypatch.setenv("EUDOXUS_SHARDS", "3")
        assert resolve_shard_count() == 3
        assert resolve_shard_count(2) == 2


# --------------------------------------------------------------- rebalancer


class TestShardRebalancer:
    def ring_with_costs(self, hot=0, cool=1):
        ring = HashRing(2, slot_count=8)
        # All cost on the hot shard, spread over its slots.
        costs = {slot: 10.0 for slot in ring.slots_of(hot)}
        return ring, costs

    def test_moves_slots_hot_to_cool(self):
        ring, costs = self.ring_with_costs()
        decisions = ShardRebalancer(pressure_gap=0.5).rebalance(
            ring, [3.0, 0.2], costs, wave=7)
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.source == 0 and decision.target == 1
        assert decision.wave == 7
        assert decision.slots  # something actually moved
        for slot in decision.slots:
            assert ring.assignment()[slot] == 1

    def test_no_move_below_pressure_gap(self):
        ring, costs = self.ring_with_costs()
        before = ring.assignment()
        assert ShardRebalancer(pressure_gap=0.5).rebalance(
            ring, [1.0, 0.8], costs) == []
        assert ring.assignment() == before

    def test_single_loaded_slot_does_not_swap_the_hotspot(self):
        # One stream carries all the load: moving its slot would just make
        # the cool shard the hot one.  The strict midpoint test keeps it.
        ring = HashRing(2, slot_count=8)
        slot = ring.slots_of(0)[0]
        before = ring.assignment()
        decisions = ShardRebalancer(pressure_gap=0.5).rebalance(
            ring, [5.0, 0.0], {slot: 30.0})
        assert decisions == []
        assert ring.assignment() == before

    def test_max_slot_moves_caps_the_transfer(self):
        ring, costs = self.ring_with_costs()
        decisions = ShardRebalancer(pressure_gap=0.5,
                                    max_slot_moves=1).rebalance(
            ring, [3.0, 0.0], costs)
        assert len(decisions[0].slots) == 1

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("EUDOXUS_REBALANCE_GAP", "2.5")
        monkeypatch.setenv("EUDOXUS_REBALANCE_MAX_SLOTS", "2")
        rebalancer = ShardRebalancer()
        assert rebalancer.pressure_gap == 2.5
        assert rebalancer.max_slot_moves == 2
        assert ShardRebalancer(pressure_gap=0.1).pressure_gap == 0.1


# ------------------------------------------------------------ bit-identity


@pytest.fixture(scope="module")
def identity_reports(tmp_path_factory):
    """Serve the same fleet through the plain engine, a 1-shard cluster,
    and a 2-shard cluster (separate store roots each), once per module."""
    tmp = tmp_path_factory.mktemp("cluster-identity")
    fleet = small_fleet(5)
    reports = {}
    plain = ServingEngine(
        store=RunStore(tmp / "runs-plain", -1, -1),
        map_store=MapStore(tmp / "maps-plain", -1, -1),
        autoscaler=make_scaler())
    reports["plain"] = plain.serve(fleet)
    for shards in (1, 2):
        engine = ShardedServingEngine(
            shards,
            run_store=RunStore(tmp / f"runs-{shards}", -1, -1),
            map_store=MapStore(tmp / f"maps-{shards}", -1, -1),
            autoscaler_factory=make_scaler)
        reports[shards] = engine.serve(fleet)
        reports[f"engine-{shards}"] = engine
    return reports


class TestShardedBitIdentity:
    def test_single_shard_signature_is_bit_identical_to_plain(self, identity_reports):
        # THE acceptance pin: one shard is the plain engine, exactly —
        # same session results, same resolved maps, same post-wave
        # canonical versions.
        assert identity_reports[1].signature() == \
            identity_reports["plain"].signature()

    def test_two_shards_serve_identical_sessions(self, identity_reports):
        assert session_signatures(identity_reports[2]) == \
            session_signatures(identity_reports["plain"])

    def test_two_shards_apply_identical_map_updates(self, identity_reports):
        assert identity_reports[2].maps_updated == \
            identity_reports["plain"].maps_updated
        assert identity_reports[2].fleet_maps == \
            identity_reports["plain"].fleet_maps

    def test_report_signature_matches_across_shard_counts(self, identity_reports):
        assert identity_reports[2].signature() == \
            identity_reports["plain"].signature()

    def test_merged_report_counters(self, identity_reports):
        report = identity_reports[2]
        assert isinstance(report, ShardedServingReport)
        assert report.session_count == 5
        assert report.computed_sessions == 5
        assert report.store_hits == 0
        assert report.shard_count == 2
        assert set(report.shard_of) == {spec.stream_id
                                        for spec in small_fleet(5)}
        loaded = [rep for rep in report.shard_reports if rep is not None]
        assert sum(rep.session_count for rep in loaded) == 5
        assert report.ticks == sum(rep.ticks for rep in loaded)
        # The coordinator publishes for the whole wave, like the plain
        # engine; shards have no map store of their own.
        assert report.maps_published == identity_reports["plain"].maps_published
        assert all(rep.maps_published == 0 for rep in loaded)

    def test_merged_as_dict_extends_the_plain_shape(self, identity_reports):
        plain_keys = set(identity_reports["plain"].as_dict())
        payload = identity_reports[2].as_dict()
        assert plain_keys <= set(payload)
        assert set(payload) - plain_keys == {
            "shard_count", "shard_of", "shards", "rebalances",
            "slot_assignment"}
        assert len(payload["shards"]) == 2
        assert len(payload["slot_assignment"]) == DEFAULT_SLOT_COUNT

    def test_churn_counted_once_not_per_shard(self, identity_reports):
        # Each shard handle observing the same canonical version change
        # must not multiply one global event by the shard count.
        plain_churn = identity_reports["plain"].map_version_churn
        assert identity_reports[2].map_version_churn == plain_churn

    def test_session_reports_fit_the_per_frame_budget(self, identity_reports):
        # What a worker pickles back to the coordinator for one session:
        # per-frame summaries, not the frames' observations.
        report = identity_reports[2]
        for spec in small_fleet(5):
            rep = _serve_session_payload(
                {"spec": spec.payload(), "fleet_maps": {}, "run_store": None})
            size = len(pickle.dumps(rep, protocol=pickle.HIGHEST_PROTOCOL))
            assert rep.frame_count == report.results[spec.stream_id].frame_count > 0
            assert size <= SESSION_BYTES_PER_FRAME * rep.frame_count, \
                (size, rep.frame_count)

    def test_final_workers_sums_shards(self, identity_reports):
        report = identity_reports[2]
        loaded = [rep for rep in report.shard_reports if rep is not None]
        assert report.final_workers == sum(rep.final_workers
                                           for rep in loaded)


# ------------------------------------------------------- cluster behaviors


class TestShardedServing:
    def test_duplicate_stream_rejected_before_any_shard_serves(self, tmp_path):
        # The single-box bug: per-engine duplicate detection only catches
        # duplicates landing on the same shard, and only after sibling
        # shards already served.  The coordinator must refuse the whole
        # fleet at the door.
        store = RunStore(tmp_path / "runs", -1, -1)
        engine = ShardedServingEngine(
            2, run_store=store, autoscaler_factory=make_scaler)
        fleet = small_fleet(4)
        dup = fleet + [fleet[0]]
        with pytest.raises(ValueError, match="duplicate stream_id"):
            engine.serve(dup)
        # No shard did any work: nothing was computed into the shared store.
        assert len(store) == 0
        assert engine.waves_served == 0

    def test_second_wave_replays_from_the_shared_store(self, tmp_path):
        engine = ShardedServingEngine(
            2, run_store=RunStore(tmp_path / "runs", -1, -1),
            map_store=MapStore(tmp_path / "maps", -1, -1),
            autoscaler_factory=make_scaler)
        fleet = small_fleet(4)
        first = engine.serve(fleet)
        second = engine.serve(fleet)
        assert first.computed_sessions == 4 and first.store_hits == 0
        assert second.store_hits == 4 and second.computed_sessions == 0
        assert second.replayed_streams == sorted(spec.stream_id
                                                 for spec in fleet)
        # Replayed sessions' deltas were applied when first computed;
        # re-applying would double-count their observations.
        assert second.maps_updated == {}

    def test_wave_two_resolves_wave_one_canonical_maps(self, tmp_path):
        # The store IS the coordination plane: shard publishes and the
        # coordinator's update fold from wave 1 become every shard's
        # canonical assignment in wave 2.
        engine = ShardedServingEngine(
            2, map_store=MapStore(tmp_path / "maps", -1, -1),
            # Short segments: don't let the quality gate hide the lifecycle.
            min_map_quality=0.0,
            autoscaler_factory=make_scaler)
        first = engine.serve(small_fleet(4))
        assert first.fleet_maps == {}  # cold world: nothing to resolve yet
        assert first.maps_published > 0
        second = engine.serve(small_fleet(4, prefix="wave2", base_seed=50))
        # Both shared environments (atrium + warehouse world digests) now
        # resolve to canonical maps built from wave 1's publishes.
        assert len(second.fleet_maps) == 2
        for environment_id, version in first.maps_updated.items():
            assert second.fleet_maps[environment_id] == version

    def test_replays_meeting_a_wiped_map_store_publish_like_the_plain_engine(
            self, tmp_path):
        """Replayed sessions re-seed only an environment with no history,
        and every computed snapshot of the wave lands first — for the
        whole wave, not per shard.  A shard that replays must not re-seed
        an empty environment before a sibling shard's computed sessions
        publish there, or the store state (and the next wave's canonical
        map) would depend on the shard count."""
        fleet = cold_start_fleet(6, environment="reseed-yard", base_seed=300,
                                 segment_duration=1.0, camera_rate_hz=5.0,
                                 prefix="s")
        probe = cold_start_fleet(2, environment="reseed-yard", base_seed=900,
                                 segment_duration=1.0, camera_rate_hz=5.0,
                                 prefix="probe")
        ring = HashRing(2)
        shard_zero = [spec for spec in fleet if ring.shard_for(spec.stream_id) == 0]
        assert 0 < len(shard_zero) < len(fleet)

        def plain(runs, maps):
            return ServingEngine(store=runs, map_store=maps,
                                 min_map_quality=0.05)

        def cluster(runs, maps):
            return ShardedServingEngine(2, run_store=runs, map_store=maps,
                                        min_map_quality=0.05)

        outcomes = {}
        for label, make in (("plain", plain), ("cluster", cluster)):
            runs = RunStore(tmp_path / label / "runs", -1, -1)
            make(runs, MapStore(tmp_path / label / "maps-first", -1, -1)).serve(
                shard_zero)
            # The map store is wiped while the run store stays warm: the
            # shard-0 streams replay, the others are computed.
            engine = make(runs, MapStore(tmp_path / label / "maps-wiped", -1, -1))
            wave = engine.serve(fleet)
            assert wave.store_hits == len(shard_zero)
            outcomes[label] = (wave.maps_published, engine.serve(probe))
        assert outcomes["cluster"][0] == outcomes["plain"][0]
        assert outcomes["cluster"][1].fleet_maps == outcomes["plain"][1].fleet_maps
        assert outcomes["cluster"][1].signature() == outcomes["plain"][1].signature()

    def test_process_parallel_shards_match_sequential(self, monkeypatch):
        """One dispatch path, two executors: serving the shards in-process
        (width 1) or in worker processes (width 2) leaves every shard in
        the same state, wave after wave — the whole controller state makes
        the round trip, not a hand-picked subset of it."""
        def serve_waves(workers):
            monkeypatch.setenv("EUDOXUS_MAX_WORKERS", workers)
            # One frame per worker tick: the fleet congests, so the scalers
            # grow, hold full windows and log misses across waves.
            engine = ShardedServingEngine(2, autoscaler_factory=make_scaler,
                                          frames_per_worker_tick=1)
            scalers = list(engine.autoscalers)
            reports = [engine.serve(small_fleet(6, prefix=f"w{wave}",
                                                base_seed=100 * wave))
                       for wave in range(3)]
            # Adopted in place: the admission probe's scalers never change.
            assert all(live is kept
                       for live, kept in zip(engine.autoscalers, scalers))
            logs = [[(d.tick, d.clock, d.action, d.workers_before,
                      d.workers_after, d.pressure) for d in scaler.decisions]
                    for scaler in engine.autoscalers]
            return engine, reports, logs

        sequential, seq_reports, seq_logs = serve_waves("1")
        processes, proc_reports, proc_logs = serve_waves("2")
        assert not any(report.parallel for report in seq_reports)
        assert proc_logs == seq_logs
        assert [r.deadline_misses for r in proc_reports] == \
            [r.deadline_misses for r in seq_reports]
        assert sum(r.deadline_misses for r in seq_reports) > 0
        assert [s.workers for s in processes.autoscalers] == \
            [s.workers for s in sequential.autoscalers]
        assert [r.signature() for r in proc_reports] == \
            [r.signature() for r in seq_reports]
        for log in seq_logs:
            # Three waves of decisions, one monotone log per shard.
            assert len(log) > 3
            ticks = [entry[0] for entry in log]
            clocks = [entry[1] for entry in log]
            assert ticks == list(range(1, len(log) + 1))
            assert all(a < b for a, b in zip(clocks, clocks[1:]))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_env_recorder_writes_one_bundle_per_wave(self, tmp_path,
                                                     monkeypatch, workers):
        """Shard executors ignore the EUDOXUS_TRACE / EUDOXUS_RECORDER
        hooks: the coordinator captures one bundle from the merged report,
        even when every shard's own report would trip the trigger."""
        monkeypatch.setenv("EUDOXUS_RUN_CACHE", str(tmp_path / "runs"))
        monkeypatch.setenv("EUDOXUS_RECORDER", "1")
        monkeypatch.setenv("EUDOXUS_TRACE", "1")
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", workers)
        engine = ShardedServingEngine(
            2, autoscaler_factory=lambda shard: LatencyAutoscaler(
                min_workers=1, max_workers=1),
            frames_per_worker_tick=1)
        report = engine.serve(small_fleet(6))
        assert all(rep is not None
                   and rep.deadline_misses >= engine.recorder.miss_burst
                   for rep in report.shard_reports)
        assert len(engine.recorder.bundle_paths()) == 1

    def test_empty_fleet_serves_to_an_empty_report(self):
        engine = ShardedServingEngine(2, autoscaler_factory=make_scaler)
        report = engine.serve([])
        assert report.session_count == 0
        assert report.rebalances == []

    def test_rebalance_decisions_reroute_the_next_wave(self, tmp_path):
        class ForcedRebalancer:
            """Deterministically move stream 0's slot to the other shard."""

            def __init__(self, ring_slot, target):
                self.ring_slot = ring_slot
                self.target = target
                self.fired = False

            def rebalance(self, ring, pressures, slot_costs, wave=0):
                if self.fired:
                    return []
                self.fired = True
                ring.move([self.ring_slot], self.target)
                return [RebalanceDecision(
                    wave=wave, source=1 - self.target, target=self.target,
                    slots=(self.ring_slot,), moved_cost=1.0,
                    source_pressure=2.0, target_pressure=0.0,
                    reason="forced for test")]

        fleet = small_fleet(4)
        probe = HashRing(2)
        stream = fleet[0].stream_id
        slot = probe.slot_of(stream)
        target = 1 - probe.shard_for(stream)
        engine = ShardedServingEngine(
            2, run_store=RunStore(tmp_path / "runs", -1, -1),
            autoscaler_factory=make_scaler,
            rebalancer=ForcedRebalancer(slot, target))
        first = engine.serve(fleet)
        assert len(first.rebalances) == 1
        assert first.shard_of[stream] == 1 - target  # moved AFTER serving
        second = engine.serve(fleet)
        assert second.shard_of[stream] == target  # ... takes effect next wave
        # Relocation is invisible to results: the shared run store replays
        # the session on its new shard.
        assert second.results[stream].signature() == \
            first.results[stream].signature()
        assert engine.describe()["slot_moves"] == 1

    def test_organic_rebalance_from_skewed_pressure(self):
        # End-to-end through _rebalance: synthesize the autoscaler state a
        # skewed wave leaves behind and check slots actually flow from the
        # pressured shard to the idle one.
        engine = ShardedServingEngine(
            2, autoscaler_factory=make_scaler,
            rebalancer=ShardRebalancer(pressure_gap=0.5, max_slot_moves=4))
        # Rig a genuinely skewed fleet: most streams hash to one shard, so
        # the pressured shard also carries the larger expected cost.
        candidates = small_fleet(10)
        by_shard = {0: [], 1: []}
        for spec in candidates:
            by_shard[engine.ring.shard_for(spec.stream_id)].append(spec)
        hot = 0 if len(by_shard[0]) >= len(by_shard[1]) else 1
        fleet = by_shard[hot][:5] + by_shard[1 - hot][:1]
        assert len(fleet) == 6
        from repro.serving.engine import ServingReport
        from repro.scheduler.autoscaler import ScaleDecision

        def fake_report(pressure):
            report = ServingReport()
            report.scale_decisions.append(ScaleDecision(
                tick=1, clock=1.0, action="hold", workers_before=1,
                workers_after=1, p50_ms=0.0, p95_ms=0.0, pressure=pressure,
                reason="synthetic", saturated=False))
            return report

        reports = [None, None]
        reports[hot] = fake_report(3.0)
        reports[1 - hot] = fake_report(0.1)
        before = len(engine.ring.slots_of(hot))
        decisions = engine._rebalance(fleet, reports, {})
        assert len(decisions) == 1
        assert decisions[0].source == hot and decisions[0].target == 1 - hot
        assert len(engine.ring.slots_of(hot)) < before


# ------------------------------------------------------- admission surface


class TestClusterAdmissionSurface:
    def saturate(self, scaler):
        scaler.workers = scaler.max_workers
        scaler._saturated = True

    def test_saturated_for_judges_the_target_shard_only(self):
        engine = ShardedServingEngine(2, autoscaler_factory=make_scaler)
        fleet = small_fleet(6)
        shard_of = {spec.stream_id: engine.ring.shard_for(spec.stream_id)
                    for spec in fleet}
        assert len(set(shard_of.values())) == 2  # fleet spans both shards
        self.saturate(engine.autoscalers[0])
        for stream_id, shard in shard_of.items():
            assert engine.saturated_for(stream_id) == (shard == 0)

    def test_cluster_saturated_means_all_shards(self):
        engine = ShardedServingEngine(2, autoscaler_factory=make_scaler)
        assert not engine.saturated
        self.saturate(engine.autoscalers[0])
        assert not engine.saturated  # one hot shard is not cluster exhaustion
        self.saturate(engine.autoscalers[1])
        assert engine.saturated

    def test_saturated_for_follows_the_live_ring(self):
        engine = ShardedServingEngine(2, autoscaler_factory=make_scaler)
        stream = "session-000"
        home = engine.ring.shard_for(stream)
        self.saturate(engine.autoscalers[home])
        assert engine.saturated_for(stream)
        # A rebalance relocates the stream: the probe must judge the new
        # shard immediately.
        engine.ring.move([engine.ring.slot_of(stream)], 1 - home)
        assert not engine.saturated_for(stream)

    def test_pinned_capacity_sums_shards(self):
        engine = ShardedServingEngine(3, autoscaler_factory=make_scaler)
        assert engine.pinned_capacity == \
            3 * 4 * engine.frames_per_worker_tick
        bare = ShardedServingEngine(2)
        assert bare.pinned_capacity is None

    def test_shard_health_and_describe_shapes(self):
        engine = ShardedServingEngine(2, autoscaler_factory=make_scaler)
        health = engine.shard_health()
        assert [row["shard"] for row in health] == [0, 1]
        assert all(set(row) == {"shard", "slots", "workers", "saturated"}
                   for row in health)
        topology = engine.describe()
        assert topology["shards"] == 2
        assert sum(topology["slots_per_shard"].values()) == \
            topology["slot_count"]

    def test_legacy_max_workers_per_shard_warns_and_changes_nothing(self):
        """The per-shard pool it sized is gone: scaler-less shards report 1."""
        with pytest.warns(DeprecationWarning, match="max_workers_per_shard"):
            legacy = ShardedServingEngine(2, max_workers_per_shard=4)
        assert [row["workers"] for row in legacy.shard_health()] == [1, 1]
        assert legacy.pinned_capacity is None

    def test_legacy_shard_parallel_warns_and_changes_nothing(self, monkeypatch):
        """The executor is fan_out's choice; the keyword no longer picks it."""
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", "1")
        with pytest.warns(DeprecationWarning, match="shard_parallel"):
            legacy = ShardedServingEngine(2, shard_parallel=True)
        report = legacy.serve(small_fleet(4))
        assert not report.parallel
        assert len({shard for shard in report.shard_of.values()}) == 2


# ------------------------------------------------------------ metrics plane


class TestClusterMetrics:
    def test_cluster_families_record_per_shard(self, tmp_path):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        engine = ShardedServingEngine(
            2, map_store=MapStore(tmp_path / "maps", -1, -1),
            autoscaler_factory=make_scaler, metrics=registry)
        report = engine.serve(small_fleet(4))
        sessions = registry.counter(
            "eudoxus_cluster_shard_sessions_total",
            "Sessions resolved per shard, by outcome.", ("shard", "outcome"))
        total = sum(sessions.value(shard=str(shard), outcome="computed")
                    for shard in range(2))
        assert total == report.computed_sessions == 4
        frames = registry.counter("eudoxus_cluster_shard_frames_total",
                                  "Frames served per shard.", ("shard",))
        assert sum(frames.value(shard=str(shard))
                   for shard in range(2)) == report.frame_count

    def test_bind_is_idempotent_and_coexists_with_plain_engine(self, tmp_path):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        plain = ServingEngine(store=None, metrics=registry)
        engine = ShardedServingEngine(2, autoscaler_factory=make_scaler)
        engine.bind_metrics(registry)
        engine.bind_metrics(registry)  # idempotent re-bind
        assert "eudoxus_cluster_rebalances_total" in registry
        assert "eudoxus_engine_sessions_total" in registry


# ------------------------------------------------------------ worker lifetime


# Workers are forked from the test process, so they inherit this value.
COORDINATOR_PID = os.getpid()
VICTIM = "w0-001"


def _die_in_worker(payload):
    """The wave's session payload, except that the worker serving
    ``VICTIM`` dies without answering."""
    if payload["spec"]["stream_id"] == VICTIM and os.getpid() != COORDINATOR_PID:
        os._exit(1)
    return _serve_session_payload(payload)


def live_children():
    gc.collect()  # an engine dropped by an earlier test joins its workers
    return {child.pid for child in multiprocessing.active_children()}


class TestWorkerLifetime:
    """One worker pool per engine: forked by the first wave that fans
    out, reused by every later wave, joined by close() or when the engine
    is dropped."""

    @pytest.fixture()
    def two_workers(self, monkeypatch):
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", "2")
        return live_children()

    def test_waves_are_answered_by_the_same_workers(self, two_workers):
        engine = ShardedServingEngine(2, autoscaler_factory=make_scaler)
        assert live_children() == two_workers  # nothing forks at construction
        workers = []
        for wave in range(2):
            report = engine.serve(small_fleet(4, prefix=f"w{wave}",
                                              base_seed=100 * wave))
            assert report.parallel
            workers.append(live_children() - two_workers)
        assert len(workers[0]) == 2
        assert workers[1] == workers[0]
        engine.close()
        assert live_children() == two_workers

    def test_killed_worker_reruns_in_process_and_the_next_wave_forks_afresh(
            self, two_workers, monkeypatch):
        fleets = [small_fleet(4, prefix=f"w{wave}", base_seed=100 * wave)
                  for wave in range(2)]
        assert VICTIM in {spec.stream_id for spec in fleets[0]}
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", "1")
        with ShardedServingEngine(2, autoscaler_factory=make_scaler) as engine:
            expected = [engine.serve(fleet) for fleet in fleets]
        monkeypatch.setenv("EUDOXUS_MAX_WORKERS", "2")
        monkeypatch.setattr(cluster_engine, "_serve_session_payload", _die_in_worker)
        with ShardedServingEngine(2, autoscaler_factory=make_scaler) as engine:
            first = engine.serve(fleets[0])
            first_workers = live_children() - two_workers
            second = engine.serve(fleets[1])
            second_workers = live_children() - two_workers
        assert [first.signature(), second.signature()] == \
            [report.signature() for report in expected]
        assert first.virtual_latency_ms == expected[0].virtual_latency_ms
        # The broken pool was discarded, not reused.
        assert not first_workers
        assert len(second_workers) == 2 and second.parallel
        assert live_children() == two_workers

    def test_a_dropped_engine_joins_its_workers(self, two_workers):
        engine = ShardedServingEngine(2, autoscaler_factory=make_scaler)
        assert engine.serve(small_fleet(4)).parallel
        assert len(live_children() - two_workers) == 2
        del engine
        assert live_children() == two_workers

    def test_close_is_idempotent_and_a_closed_engine_serves_again(
            self, two_workers):
        engine = ShardedServingEngine(2, autoscaler_factory=make_scaler)
        engine.close()  # before any wave: nothing to join
        first = engine.serve(small_fleet(4))
        engine.close()
        engine.close()
        assert live_children() == two_workers
        again = engine.serve(small_fleet(4, prefix="again"))
        assert first.parallel and again.parallel
        engine.close()
        assert live_children() == two_workers

