"""Fleet map service: snapshots, merging, and the persistent map store.

The load-bearing guarantees pinned here:

* snapshots are content-addressed (canonical landmark order, version digest
  covering everything that affects served results) and carry an honest
  quality score (monotone in landmarks/coverage, falling with residuals);
* the merger aligns and dedups overlapping snapshots deterministically, and
  merging a map with itself is a strict no-op;
* the map store mirrors the run store's robustness contract: atomic
  concurrent-writer-safe publishes, corrupt snapshots degrading to clean
  misses, LRU eviction with ``EUDOXUS_MAP_CACHE_MAX_MB=0`` meaning
  *unbounded*, and a quality-gated canonical resolve.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.maps import (
    DEFAULT_MAP_CACHE_MAX_MB,
    MapMerger,
    MapSnapshot,
    MapStore,
    MapUpdate,
    degrade_snapshot,
    merge_quality,
    quality_score,
)
from repro.maps import store as store_module
from repro.maps.snapshot import QUALITY_COUNT_SCALE


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


def _update(snapshot, landmark_ids, observed_positions, residuals, counts=None,
            base_version=None, source="session", segment_index=0):
    landmark_ids = np.asarray(landmark_ids, dtype=np.int64)
    counts = (np.full(landmark_ids.size, 4, dtype=np.int64)
              if counts is None else np.asarray(counts, dtype=np.int64))
    residuals = np.asarray(residuals, dtype=np.float64)
    return MapUpdate(
        environment_id=snapshot.environment_id,
        base_version=base_version or snapshot.version,
        landmark_ids=landmark_ids,
        observation_counts=counts,
        observed_positions=np.asarray(observed_positions, dtype=np.float64),
        mean_residuals_m=residuals,
        max_residuals_m=residuals * 2.0,
        source=source,
        segment_index=segment_index,
        frame_count=int(counts.max()) if counts.size else 0,
    )


class TestSnapshot:
    def test_canonical_order_makes_version_insertion_independent(self):
        rng = np.random.default_rng(3)
        ids = np.array([5, 1, 9, 2])
        positions = rng.normal(size=(4, 3))
        a = MapSnapshot("env", ids, positions)
        shuffle = np.array([2, 0, 3, 1])
        b = MapSnapshot("env", ids[shuffle], positions[shuffle])
        assert a.version == b.version
        np.testing.assert_array_equal(a.landmark_ids, np.sort(ids))
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_version_covers_content(self):
        base = _snapshot()
        moved = _snapshot()
        moved.positions = moved.positions + 1e-9
        assert base.version != moved.version
        noisier = _snapshot(residual=0.2)
        assert base.version != noisier.version
        elsewhere = _snapshot(environment_id="env-b")
        assert base.version != elsewhere.version

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MapSnapshot("env", np.arange(3), np.zeros((2, 3)))

    def test_snapshots_compare_by_identity_not_arrays(self):
        """eq=False: comparisons return booleans instead of raising on the
        numpy fields; content equality is what ``version`` is for."""
        a = MapSnapshot("env", np.arange(2), np.zeros((2, 3)))
        b = MapSnapshot("env", np.arange(2), np.zeros((2, 3)))
        assert a != b and a == a
        assert a in [b, a]
        assert len({a, b}) == 2
        assert a.version == b.version

    def test_quality_shape(self):
        assert quality_score(0, 0.0, 0.0) == 0.0
        small = quality_score(10, 1.0, 0.05)
        big = quality_score(200, 10.0, 0.05)
        assert 0.0 < small < big < 1.0
        # Residuals only ever hurt.
        assert quality_score(200, 10.0, 2.0) < big

    def test_empty_snapshot_has_zero_quality(self):
        empty = MapSnapshot("env", np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
        assert empty.landmark_count == 0
        assert empty.coverage_m == 0.0
        assert empty.quality == 0.0

    def test_localization_map_view(self):
        snapshot = _snapshot(count=12)
        localization_map = snapshot.to_localization_map()
        assert len(localization_map) == 12
        lid = int(snapshot.landmark_ids[3])
        np.testing.assert_array_equal(localization_map.points[lid].position,
                                      snapshot.positions[3])

    def test_degrade_lowers_quality_and_changes_version(self):
        snapshot = _snapshot(count=80, residual=0.05)
        degraded = degrade_snapshot(snapshot, position_noise_m=0.8,
                                    drop_fraction=0.5, seed=1)
        assert degraded.environment_id == snapshot.environment_id
        assert degraded.landmark_count < snapshot.landmark_count
        assert degraded.mean_residual_m > snapshot.mean_residual_m
        assert degraded.quality < snapshot.quality
        assert degraded.version != snapshot.version
        # Deterministic injection: same seed, same degraded map.
        again = degrade_snapshot(snapshot, position_noise_m=0.8,
                                 drop_fraction=0.5, seed=1)
        assert again.version == degraded.version


class TestMerger:
    def test_self_merge_is_noop(self):
        snapshot = _snapshot()
        merged = MapMerger().merge([snapshot, snapshot])
        assert merged is snapshot

    def test_merge_across_environments_rejected(self):
        with pytest.raises(ValueError):
            MapMerger().merge([_snapshot(environment_id="a", residual=0.05),
                               _snapshot(environment_id="b", residual=0.2)])

    def test_merge_unions_landmarks(self):
        a = _snapshot(count=30, id_offset=0, seed=1)
        b = _snapshot(count=30, id_offset=20, seed=2)  # 10 shared ids
        merged = MapMerger().merge([a, b])
        assert merged.landmark_count == 50
        assert merged.merged_from == 2
        assert merged.source == "merged"
        # Added coverage/landmarks never lower the canonical quality below
        # the best input (residuals held comparable).
        assert merged.quality >= max(a.quality, b.quality) - 1e-9

    def test_merge_aligns_drifted_snapshot(self):
        """A rigidly-drifted duplicate must be pulled back onto the anchor."""
        anchor = _snapshot(count=40, seed=3)
        rotation = np.array([[0.0, -1.0, 0.0],
                             [1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
        drifted = MapSnapshot(
            environment_id=anchor.environment_id,
            landmark_ids=anchor.landmark_ids.copy(),
            positions=anchor.positions @ rotation.T + np.array([0.5, -0.2, 0.1]),
            mean_residual_m=anchor.mean_residual_m * 2.0,  # worse: not anchor
            max_residual_m=anchor.max_residual_m,
        )
        merged = MapMerger().merge([anchor, drifted])
        assert merged.landmark_count == anchor.landmark_count
        np.testing.assert_allclose(merged.positions, anchor.positions, atol=1e-6)

    def test_tiny_overlap_skips_alignment(self):
        a = _snapshot(count=20, id_offset=0, seed=4)
        b = _snapshot(count=20, id_offset=18, seed=5)  # 2 shared < min_shared
        merged = MapMerger(min_shared_for_alignment=8).merge([a, b])
        assert merged.landmark_count == 38

    def test_merge_order_invariant(self):
        a = _snapshot(count=25, id_offset=0, seed=6, residual=0.04)
        b = _snapshot(count=25, id_offset=10, seed=7, residual=0.08)
        c = _snapshot(count=25, id_offset=20, seed=8, residual=0.06)
        forward = MapMerger().merge([a, b, c])
        backward = MapMerger().merge([c, b, a])
        assert forward.version == backward.version

    def test_merge_quality_empty(self):
        assert merge_quality([]) == 0.0

    def test_all_empty_snapshots_merge_to_empty_canonical(self):
        """Distinct-version zero-landmark inputs must not crash the merge."""
        a = degrade_snapshot(_snapshot(residual=0.05), drop_fraction=1.0, seed=1)
        b = degrade_snapshot(_snapshot(residual=0.10), drop_fraction=1.0, seed=2)
        assert a.landmark_count == b.landmark_count == 0
        assert a.version != b.version
        merged = MapMerger().merge([a, b])
        assert merged.landmark_count == 0
        assert merged.quality == 0.0


class TestMergerUpdates:
    """MapMerger.apply_updates: confirm / relocate / prune per landmark."""

    def test_confirmed_landmark_blends_by_observation_count(self):
        snapshot = _snapshot(count=10, seed=1)
        target = int(snapshot.landmark_ids[0])
        observed = snapshot.positions[0] + np.array([0.05, 0.0, 0.0])
        update = _update(snapshot, [target], [observed], [0.05], counts=[9])
        updated = MapMerger().apply_updates(snapshot, [update])
        index = int(np.searchsorted(updated.landmark_ids, target))
        expected = (1 * snapshot.positions[0] + 9 * observed) / 10.0
        np.testing.assert_allclose(updated.positions[index], expected)
        assert updated.observation_counts[index] == 10
        assert updated.landmark_count == snapshot.landmark_count
        assert updated.source == "updated"
        assert updated.version != snapshot.version

    def test_drifted_landmark_relocated_when_well_observed(self):
        snapshot = _snapshot(count=10, seed=2)
        target = int(snapshot.landmark_ids[3])
        moved_to = snapshot.positions[3] + np.array([2.0, -1.0, 0.5])
        update = _update(snapshot, [target], [moved_to], [2.3], counts=[6])
        updated = MapMerger(drift_residual_m=0.5).apply_updates(snapshot, [update])
        index = int(np.searchsorted(updated.landmark_ids, target))
        # The stale prior is discarded: the landmark sits exactly where the
        # fleet now observes it, backed only by the fresh observations.
        np.testing.assert_allclose(updated.positions[index], moved_to)
        assert updated.observation_counts[index] == 6

    def test_drifted_landmark_pruned_when_under_observed(self):
        snapshot = _snapshot(count=10, seed=3)
        target = int(snapshot.landmark_ids[5])
        update = _update(snapshot, [target], [snapshot.positions[5] + 3.0],
                         [3.0], counts=[2])
        updated = MapMerger(drift_residual_m=0.5,
                            relocate_min_observations=3).apply_updates(
            snapshot, [update])
        assert target not in updated.landmark_ids
        assert updated.landmark_count == snapshot.landmark_count - 1

    def test_unobserved_landmarks_carried_through(self):
        snapshot = _snapshot(count=10, seed=4)
        target = int(snapshot.landmark_ids[0])
        update = _update(snapshot, [target], [snapshot.positions[0]], [0.02])
        updated = MapMerger().apply_updates(snapshot, [update])
        for i, lid in enumerate(snapshot.landmark_ids[1:], start=1):
            index = int(np.searchsorted(updated.landmark_ids, lid))
            np.testing.assert_array_equal(updated.positions[index],
                                          snapshot.positions[i])

    def test_successful_update_improves_residual_stats(self):
        """Confirmed observations shrink the reported residuals — the gate
        sees a *better* map after a healthy update, not a worse one."""
        snapshot = _snapshot(count=20, seed=5, residual=0.2)
        update = _update(snapshot, snapshot.landmark_ids,
                         snapshot.positions, np.full(20, 0.1), counts=np.full(20, 8))
        updated = MapMerger().apply_updates(snapshot, [update])
        assert updated.mean_residual_m < snapshot.mean_residual_m
        assert updated.quality > snapshot.quality

    def test_foreign_environment_update_rejected(self):
        snapshot = _snapshot(environment_id="env-a")
        foreign = _snapshot(environment_id="env-b")
        update = _update(foreign, [int(foreign.landmark_ids[0])],
                         [foreign.positions[0]], [0.05])
        with pytest.raises(ValueError):
            MapMerger().apply_updates(snapshot, [update])

    def test_no_updates_is_identity(self):
        snapshot = _snapshot(count=12, seed=6)
        assert MapMerger().apply_updates(snapshot, []) is snapshot

    def test_merge_blends_overlaps_by_observation_count(self):
        """A heavily-confirmed landmark outweighs a single sighting."""
        base = _snapshot(count=30, seed=7)
        confirmed = MapSnapshot(
            environment_id=base.environment_id,
            landmark_ids=base.landmark_ids.copy(),
            positions=base.positions.copy(),
            mean_residual_m=base.mean_residual_m,
            max_residual_m=base.max_residual_m,
            observation_counts=np.full(30, 9, dtype=np.int64),
        )
        shifted = MapSnapshot(
            environment_id=base.environment_id,
            landmark_ids=base.landmark_ids.copy(),
            positions=base.positions + np.array([1.0, 0.0, 0.0]),
            mean_residual_m=base.mean_residual_m * 1.5,  # not the anchor
            max_residual_m=base.max_residual_m,
        )
        merged = MapMerger(min_shared_for_alignment=1000).merge([confirmed, shifted])
        # 9:1 weighting pulls the blend to within 0.1 of the confirmed map.
        offsets = merged.positions - base.positions
        np.testing.assert_allclose(offsets[:, 0], 0.1, atol=1e-9)
        np.testing.assert_array_equal(merged.observation_counts, np.full(30, 10))


class TestMapStore:
    def test_publish_and_resolve_roundtrip(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        snapshot = _snapshot(count=120, spread=6.0, residual=0.03)
        assert store.publish(snapshot) is not None
        assert store.published == 1
        assert len(store) == 1
        resolved = MapStore(tmp_path, max_bytes=-1, max_age_s=-1).resolve("env-a")
        assert resolved is not None
        assert resolved.version == snapshot.version

    def test_publish_is_idempotent(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        snapshot = _snapshot()
        first = store.publish(snapshot)
        assert store.publish(snapshot) == first
        assert len(store) == 1
        # Only the first write counts as publishing; the repeat merely
        # refreshed the entry's LRU recency.
        assert store.published == 1
        old = time.time() - 5000.0
        os.utime(first, (old, old))
        store.publish(snapshot)
        assert first.stat().st_mtime > old + 1000.0

    def test_publish_rewrites_entry_evicted_mid_touch(self, tmp_path, monkeypatch):
        """An entry evicted between the existence check and the recency
        touch is rewritten — publish never reports a vanished snapshot as
        persisted."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        snapshot = _snapshot()
        path = store.publish(snapshot)
        original_utime = store_module.os.utime

        def racing_utime(target, *args, **kwargs):
            # The evictor got there first: the entry vanishes mid-touch.
            if str(target) == str(path):
                path.unlink(missing_ok=True)
                raise FileNotFoundError(target)
            return original_utime(target, *args, **kwargs)

        monkeypatch.setattr(store_module.os, "utime", racing_utime)
        republished = store.publish(snapshot)
        monkeypatch.undo()
        assert republished == path and path.exists()
        assert store.resolve("env-a", min_quality=0.0) is not None

    def test_unsafe_environment_rejected(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        with pytest.raises(ValueError):
            store.publish(_snapshot(environment_id="../escape"))
        # "__" is the filename delimiter: "atrium__old" entries would be
        # captured by resolve("atrium")'s prefix glob, so both publishing
        # and querying such an id are rejected outright — as are edge
        # underscores ("room_" would write "room___v", which the "room__*"
        # scan captures too).
        for unsafe in ("atrium__old", "room_", "_room", "_"):
            with pytest.raises(ValueError):
                store.publish(_snapshot(environment_id=unsafe))
            with pytest.raises(ValueError):
                store.resolve(unsafe)
        with pytest.raises(ValueError):
            store.snapshots("env*")
        # Interior single underscores and single-character ids stay legal.
        assert store.publish(_snapshot(environment_id="room_b")) is not None
        assert store.publish(_snapshot(environment_id="r")) is not None

    def test_environments_listed_per_prefix(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.publish(_snapshot(environment_id="env-a", seed=1))
        store.publish(_snapshot(environment_id="env-a", seed=2))
        store.publish(_snapshot(environment_id="env-b", seed=3))
        assert store.environments() == ["env-a", "env-b"]
        assert len(store.snapshots("env-a")) == 2
        assert store.snapshots("env-missing") == []

    def test_resolve_merges_and_gates(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.publish(_snapshot(count=60, id_offset=0, seed=1, spread=5.0))
        store.publish(_snapshot(count=60, id_offset=40, seed=2, spread=5.0))
        merged = store.resolve("env-a", min_quality=0.0)
        assert merged.landmark_count == 100  # union of 0..59 and 40..99
        # The gate: an impossible bar yields no servable map.
        assert store.resolve("env-a", min_quality=0.999) is None
        # The gate applies per lookup over one memoized merge.
        assert (store.resolve_misses, store.resolve_hits) == (1, 1)

    def test_resolve_memo_tracks_new_publishes(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.publish(_snapshot(count=50, id_offset=0, seed=1))
        first = store.resolve("env-a", min_quality=0.0)
        store.publish(_snapshot(count=50, id_offset=30, seed=2))
        second = store.resolve("env-a", min_quality=0.0)
        assert second.landmark_count > first.landmark_count
        # One memo entry per environment, replaced in place — a long-lived
        # serving process alternating publish/resolve stays bounded.
        assert len(store._canonical) == 1

    def test_resolve_memo_keyed_by_merger_parameters(self, tmp_path):
        """Different mergers must not alias to one cached canonical map."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        good = _snapshot(count=120, spread=6.0, residual=0.03, seed=1)
        store.publish(good)
        store.publish(degrade_snapshot(good, position_noise_m=1.5,
                                       drop_fraction=0.4, seed=2))
        quarantined = store.resolve("env-a", MapMerger(quarantine_fraction=0.9),
                                    min_quality=0.0)
        permissive = store.resolve("env-a", MapMerger(quarantine_fraction=0.0),
                                   min_quality=0.0)
        assert quarantined.version != permissive.version
        assert quarantined.mean_residual_m < permissive.mean_residual_m

    def test_degraded_map_fails_the_gate(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        good = _snapshot(count=150, spread=6.0, residual=0.03)
        gate = good.quality - 1e-6
        store.publish(degrade_snapshot(good, position_noise_m=1.5,
                                       drop_fraction=0.6, seed=4))
        assert store.resolve("env-a", min_quality=gate) is None
        # A good snapshot restores service: the merger quarantines the
        # clearly-degraded contribution instead of averaging it in.
        store.publish(good)
        assert store.resolve("env-a", min_quality=gate) is not None


class TestMapStoreUpdates:
    """MapStore.apply_updates: fold deltas into a new version, compact."""

    def test_apply_updates_writes_new_version_and_compacts(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        a = _snapshot(count=40, id_offset=0, seed=1)
        b = _snapshot(count=40, id_offset=20, seed=2)
        store.publish(a)
        store.publish(b)
        canonical = store.resolve("env-a", min_quality=0.0)
        update = _update(canonical, canonical.landmark_ids[:10],
                         canonical.positions[:10], np.full(10, 0.02))
        applied = store.apply_updates([update])
        assert set(applied) == {"env-a"}
        # The history is compacted into the single updated snapshot: pruned
        # or refreshed landmarks can never resurrect from stale inputs.
        assert len(store.snapshots("env-a")) == 1
        resolved = store.resolve("env-a", min_quality=0.0)
        assert resolved.version == applied["env-a"].version
        assert resolved.version != canonical.version
        assert store.updated == 1

    def test_apply_updates_prunes_for_good(self, tmp_path):
        """A pruned landmark stays pruned after re-resolve (compaction)."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        snapshot = _snapshot(count=30, seed=3)
        store.publish(snapshot)
        target = int(snapshot.landmark_ids[4])
        update = _update(snapshot, [target], [snapshot.positions[4] + 5.0],
                         [5.0], counts=[2])
        store.apply_updates([update], merger=MapMerger(drift_residual_m=0.5,
                                                       relocate_min_observations=3))
        resolved = store.resolve("env-a", min_quality=0.0)
        assert target not in resolved.landmark_ids

    def test_apply_updates_without_history_is_noop(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        phantom = _snapshot(environment_id="never-published")
        update = _update(phantom, [0], [np.zeros(3)], [0.1])
        assert store.apply_updates([update]) == {}
        assert store.updated == 0

    def test_reapplication_converges_and_stays_compact(self, tmp_path):
        """Re-applying the same delta keeps exactly one snapshot on disk and
        only ever pulls positions further toward the observed mean —
        convergent, never divergent."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        snapshot = _snapshot(count=30, seed=4)
        store.publish(snapshot)
        target = int(snapshot.landmark_ids[0])
        observed = snapshot.positions[0] + np.array([0.1, 0.0, 0.0])
        update = _update(snapshot, [target], [observed], [0.1], counts=[4])
        distances = []
        for _ in range(3):
            store.apply_updates([update])
            assert len(store.snapshots("env-a")) == 1
            resolved = store.resolve("env-a", min_quality=0.0)
            index = int(np.searchsorted(resolved.landmark_ids, target))
            distances.append(float(np.linalg.norm(
                resolved.positions[index] - observed)))
        assert distances[0] > distances[1] > distances[2]

    def test_pure_reconfirmation_quiesces(self, tmp_path):
        """An update that re-confirms the map exactly where it already is
        (zero offset, residuals at the established level) must NOT mint a
        new canonical version — a converged environment stops churning
        serving cache keys."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        snapshot = _snapshot(count=30, seed=8, residual=0.05)
        store.publish(snapshot)
        confirm = _update(snapshot, snapshot.landmark_ids[:12],
                          snapshot.positions[:12], np.full(12, 0.05),
                          counts=np.full(12, 6))
        assert store.apply_updates([confirm]) == {}
        assert store.updated == 0
        assert [s.version for s in store.snapshots("env-a")] == [snapshot.version]

    def test_quiesced_multi_snapshot_history_not_compacted(self, tmp_path):
        """A quiesced application of a multi-snapshot history reports no
        change and leaves the history alone — re-materializing the same
        canonical is not a 'change' the next wave could observe."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.publish(_snapshot(count=40, id_offset=0, seed=10, residual=0.05))
        store.publish(_snapshot(count=40, id_offset=20, seed=11, residual=0.05))
        canonical = store.resolve("env-a", min_quality=0.0)
        confirm = _update(canonical, canonical.landmark_ids[:12],
                          canonical.positions[:12],
                          np.full(12, canonical.mean_residual_m),
                          counts=np.full(12, 6))
        assert store.apply_updates([confirm]) == {}
        assert store.updated == 0
        assert len(store.snapshots("env-a")) == 2
        assert store.resolve("env-a", min_quality=0.0).version == canonical.version

    def test_noise_dominated_confirmation_keeps_honest_residuals(self):
        """Scatter is irreducible: n noisy observations of an unmoved
        landmark must not shrink its reported residual below what was
        measured (quality cannot compound toward perfect)."""
        snapshot = _snapshot(count=10, seed=9, residual=0.3)
        target = int(snapshot.landmark_ids[0])
        # Observed mean sits exactly on the map position (offset 0), but
        # the individual observations scattered by ~0.3 m.
        update = _update(snapshot, [target], [snapshot.positions[0]],
                         [0.3], counts=[9])
        updated = MapMerger().apply_updates(snapshot, [update])
        if updated is not snapshot:  # quiesced is also acceptable
            index = int(np.searchsorted(updated.landmark_ids, target))
            assert updated.observation_counts[index] == 10
        # Either way the reported stats never dip below the measured 0.3.
        assert updated.mean_residual_m >= 0.3 - 1e-9

    def test_apply_updates_unwritable_root_keeps_history(self, tmp_path, monkeypatch):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        snapshot = _snapshot(count=30, seed=5)
        store.publish(snapshot)
        update = _update(snapshot, snapshot.landmark_ids[:12],
                         snapshot.positions[:12], np.full(12, 0.03))
        # Make the root unwritable for the new version's file.
        monkeypatch.setattr(MapStore, "save_key", lambda self, key, result: None)
        assert store.apply_updates([update]) == {}
        monkeypatch.undo()
        # The existing history was NOT compacted away.
        assert len(store.snapshots("env-a")) == 1
        assert store.resolve("env-a", min_quality=0.0).version == snapshot.version

    def test_update_application_order_invariant(self, tmp_path):
        """Worker completion order must not change the updated version."""
        snapshot = _snapshot(count=40, seed=6)
        updates = [
            _update(snapshot, snapshot.landmark_ids[:20],
                    snapshot.positions[:20] + 0.01, np.full(20, 0.04),
                    source=f"s-{i}", segment_index=i)
            for i in range(3)
        ]
        versions = []
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            root = tmp_path / f"order-{order[0]}{order[1]}{order[2]}"
            store = MapStore(root, max_bytes=-1, max_age_s=-1)
            store.publish(snapshot)
            applied = store.apply_updates([updates[i] for i in order])
            versions.append(applied["env-a"].version)
        assert len(set(versions)) == 1


class TestMapStoreEdgeCases:
    """The run-store robustness contract, mirrored onto the map store."""

    def test_eviction_invalidates_canonical_memo(self, tmp_path):
        """An evicted snapshot must not keep being served from the memo.

        The resolve memo is keyed on the on-disk file stems (re-derived
        every call), so eviction already can't serve stale *content* — this
        guard pins the two remaining contracts: a fully-evicted environment
        resolves to None (not the memoized canonical), and its memo entry
        is pruned rather than retained indefinitely.
        """
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        keep = _snapshot(environment_id="keep-env", count=60, seed=1)
        lose = _snapshot(environment_id="lose-env", count=60, seed=2)
        store.publish(keep)
        store.publish(lose)
        assert store.resolve("keep-env", min_quality=0.0) is not None
        assert store.resolve("lose-env", min_quality=0.0) is not None
        assert set(store._canonical) == {"keep-env", "lose-env"}
        # Age the loser; resolve refreshed keep-env's recency above it.
        stale = time.time() - 5000.0
        os.utime(store.path_for(f"lose-env__{lose.version}"), (stale, stale))
        assert store.resolve("keep-env", min_quality=0.0) is not None
        removed = store.evict(max_bytes=store.path_for(
            f"keep-env__{keep.version}").stat().st_size + 1)
        assert removed == 1
        # The evicted environment is gone from disk, from resolve AND from
        # the memo; the survivor keeps serving (and keeps its memo entry).
        assert store.resolve("lose-env", min_quality=0.0) is None
        assert set(store._canonical) == {"keep-env"}
        assert store.resolve("keep-env", min_quality=0.0).version == keep.version

    def test_generation_sweep_cannot_leave_stale_memo(self, tmp_path, monkeypatch):
        """_sweep_stale_generations only ever removes *other* generations'
        directories, and it runs at construction time — before the memo has
        any entries — so there is no stale-memo window to exploit."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.publish(_snapshot(count=60))
        old_root = store.root
        stamp = time.time() - 7200.0
        for path in list(old_root.glob("*.pkl")) + [old_root]:
            os.utime(path, (stamp, stamp))
        monkeypatch.setattr(store_module, "code_fingerprint", lambda: "e" * 64)
        fresh = MapStore(tmp_path, max_bytes=-1, max_age_s=3600.0)
        assert not old_root.exists()
        assert fresh._canonical == {}
        assert fresh.resolve("env-a", min_quality=0.0) is None

    def test_concurrent_publishers_vs_evictor(self, tmp_path):
        """Publishers and an evictor hammering one root never corrupt it."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        errors = []
        stop = threading.Event()

        def publisher(worker):
            try:
                i = 0
                while not stop.is_set():
                    store.publish(_snapshot(environment_id=f"env-{worker}",
                                            count=20, seed=i % 25))
                    i += 1
            except Exception as exc:  # pragma: no cover - the failure signal
                errors.append(exc)

        def evictor():
            try:
                while not stop.is_set():
                    store.evict(max_bytes=4 * 1024)
            except Exception as exc:  # pragma: no cover - the failure signal
                errors.append(exc)

        threads = [threading.Thread(target=publisher, args=(w,)) for w in range(3)]
        threads.append(threading.Thread(target=evictor))
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        # Every surviving snapshot is whole: loadable or a clean miss.
        for environment in store.environments():
            store.snapshots(environment)
        after = _snapshot(environment_id="after-the-storm")
        assert store.publish(after) is not None
        assert store.resolve("after-the-storm", min_quality=0.0) is not None

    def test_corrupt_snapshot_recovered_as_miss(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        good = _snapshot(count=60, seed=1)
        bad = _snapshot(count=60, seed=2)
        store.publish(good)
        store.publish(bad)
        store.path_for(f"env-a__{bad.version}").write_bytes(b"\x80\x04 truncated")
        fresh = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        snapshots = fresh.snapshots("env-a")
        assert [s.version for s in snapshots] == [good.version]
        assert fresh.dropped == 1
        # The corrupt entry was unlinked; republishing heals the store.
        assert fresh.publish(bad) is not None
        assert len(fresh.snapshots("env-a")) == 2

    def test_wrong_payload_type_treated_as_corruption(self, tmp_path):
        import pickle

        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.root.mkdir(parents=True, exist_ok=True)
        store.path_for("env-a__deadbeef").write_bytes(pickle.dumps({"not": "a map"}))
        assert store.snapshots("env-a") == []
        assert store.dropped == 1

    def test_unwritable_root_degrades_quietly(self):
        store = MapStore("/proc/nonexistent-map-store")
        assert store.publish(_snapshot()) is None
        assert store.published == 0
        assert store.resolve("env-a") is None

    def test_zero_max_mb_env_disables_size_bound(self, tmp_path, monkeypatch):
        """EUDOXUS_MAP_CACHE_MAX_MB=0 means unbounded, not evict-everything."""
        monkeypatch.setenv(store_module.MAP_CACHE_MAX_MB_ENV, "0")
        monkeypatch.setenv(store_module.MAP_CACHE_MAX_AGE_DAYS_ENV, "0")
        store = MapStore(tmp_path)
        assert store.max_bytes is None and store.max_age_s is None
        for i in range(6):
            store.publish(_snapshot(count=50, seed=i))
        assert store.evict() == 0
        assert len(store) == 6
        rebuilt = MapStore(tmp_path)  # construction-time sweep is a no-op too
        assert rebuilt.evicted == 0
        assert len(rebuilt) == 6

    def test_env_bounds_and_root_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_module.MAP_CACHE_MAX_MB_ENV, "3")
        monkeypatch.setenv(store_module.MAP_CACHE_MAX_AGE_DAYS_ENV, "1.5")
        store = MapStore(tmp_path)
        assert store.max_bytes == 3 * 1024 * 1024
        assert store.max_age_s == 1.5 * 86400.0
        monkeypatch.setenv(store_module.MAP_CACHE_MAX_MB_ENV, "not-a-number")
        fallback = MapStore(tmp_path)
        assert fallback.max_bytes == DEFAULT_MAP_CACHE_MAX_MB * 1024 * 1024
        monkeypatch.setenv(store_module.MAP_CACHE_ENV, str(tmp_path / "override"))
        override = MapStore()
        assert override.base_root == tmp_path / "override"
        # The active directory embeds the code generation.
        assert override.root.parent == override.base_root

    def test_code_generation_isolates_snapshots(self, tmp_path, monkeypatch):
        """Maps never outlive the code that generated their worlds."""
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.publish(_snapshot(count=60))
        assert store.resolve("env-a", min_quality=0.0) is not None
        monkeypatch.setattr(store_module, "code_fingerprint", lambda: "f" * 64)
        next_generation = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        assert next_generation.root != store.root
        assert next_generation.resolve("env-a", min_quality=0.0) is None
        assert len(next_generation) == 0

    def test_stale_generations_swept_by_age(self, tmp_path, monkeypatch):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.publish(_snapshot(count=60))
        old_root = store.root
        stamp = time.time() - 7200.0
        for path in list(old_root.glob("*.pkl")) + [old_root]:
            os.utime(path, (stamp, stamp))
        monkeypatch.setattr(store_module, "code_fingerprint", lambda: "f" * 64)
        # Age bound disabled: the superseded generation is left alone.
        MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        assert old_root.is_dir()
        # With an age bound tighter than the directory's age, it is swept —
        # but only generation-shaped children: an unrelated subdirectory of
        # a user-supplied root (e.g. a sibling run cache) is never touched.
        unrelated = tmp_path / "runs"
        unrelated.mkdir()
        (unrelated / "entry.pkl").write_bytes(b"not ours")
        os.utime(unrelated / "entry.pkl", (stamp, stamp))
        os.utime(unrelated, (stamp, stamp))
        MapStore(tmp_path, max_bytes=-1, max_age_s=3600.0)
        assert not old_root.exists()
        assert (unrelated / "entry.pkl").exists()

    def test_lru_eviction_keeps_recently_resolved(self, tmp_path):
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        cold = _snapshot(environment_id="cold-env", count=40, seed=1)
        hot = _snapshot(environment_id="hot-env", count=40, seed=2)
        store.publish(cold)
        store.publish(hot)
        stale = time.time() - 5000.0
        for key in (f"cold-env__{cold.version}", f"hot-env__{hot.version}"):
            os.utime(store.path_for(key), (stale, stale))
        # Resolving touches the hot entry (hits refresh recency)...
        assert store.resolve("hot-env", min_quality=0.0) is not None
        # ...so the size bound evicts the cold one first.
        removed = store.evict(max_bytes=store.path_for(
            f"hot-env__{hot.version}").stat().st_size + 1)
        assert removed == 1
        assert store.snapshots("cold-env") == []
        assert len(store.snapshots("hot-env")) == 1

    def test_quality_count_scale_sanity(self):
        # The scale the serving gate is calibrated against; moving it
        # silently would reshuffle every fleet's SLAM/registration split.
        assert QUALITY_COUNT_SCALE == 60.0


class TestMapStoreCrossInstance:
    """Two store handles on one root: the sharded engine's coordination plane.

    The canonical-merge memo is keyed on the full on-disk stem set (rescanned
    every call) + merger signature — so a *foreign* publish or compaction by
    a sibling handle must be picked up as a recompute (a resolve miss, with
    churn recorded if the version moved), never served stale from the memo.
    """

    def _store(self, tmp_path):
        return MapStore(tmp_path, max_bytes=-1, max_age_s=-1)

    def test_foreign_publish_is_a_miss_not_a_hit(self, tmp_path):
        mine, sibling = self._store(tmp_path), self._store(tmp_path)
        mine.publish(_snapshot(count=40, seed=1))
        first = mine.resolve("env-a", min_quality=0.0)
        assert (mine.resolve_misses, mine.resolve_hits) == (1, 0)
        # Unchanged disk: the memo serves, counted as a hit.
        assert mine.resolve("env-a", min_quality=0.0).version == first.version
        assert (mine.resolve_misses, mine.resolve_hits) == (1, 1)
        # A sibling handle publishes new content; this handle's next resolve
        # must rescan, recompute, and account a miss + a churn event.
        sibling.publish(_snapshot(count=40, seed=2, id_offset=100))
        second = mine.resolve("env-a", min_quality=0.0)
        assert second.landmark_count > first.landmark_count
        assert (mine.resolve_misses, mine.resolve_hits) == (2, 1)
        assert mine.version_churn["env-a"] == 2  # None -> v1, v1 -> v2

    def test_unchanged_disk_hits_do_not_churn(self, tmp_path):
        mine = self._store(tmp_path)
        mine.publish(_snapshot(count=40, seed=1))
        for _ in range(3):
            mine.resolve("env-a", min_quality=0.0)
        assert mine.version_churn["env-a"] == 1
        assert mine.resolve_hits == 2

    def test_foreign_compaction_is_visible(self, tmp_path):
        mine, sibling = self._store(tmp_path), self._store(tmp_path)
        snapshot = _snapshot(count=30, seed=3)
        mine.publish(snapshot)
        mine.resolve("env-a", min_quality=0.0)  # memoize the pre-update state
        target = int(snapshot.landmark_ids[4])
        update = _update(snapshot, [target], [snapshot.positions[4] + 5.0],
                         [5.0], counts=[2])
        sibling.apply_updates([update],
                              merger=MapMerger(drift_residual_m=0.5,
                                               relocate_min_observations=3))
        # The sibling replaced the history on disk; this handle's memo keys
        # no longer match the stems and the pruned landmark stays gone.
        resolved = mine.resolve("env-a", min_quality=0.0)
        assert target not in resolved.landmark_ids

    def test_handle_created_before_content_sees_it(self, tmp_path):
        early = self._store(tmp_path)
        assert not early.has_history("env-a")
        self._store(tmp_path).publish(_snapshot())
        assert early.has_history("env-a")
        assert early.resolve("env-a", min_quality=0.0) is not None

    def test_two_handles_resolve_identical_canonicals(self, tmp_path):
        mine, sibling = self._store(tmp_path), self._store(tmp_path)
        mine.publish(_snapshot(count=50, seed=1))
        sibling.publish(_snapshot(count=50, seed=2, id_offset=40))
        assert mine.resolve("env-a", min_quality=0.0).version == \
            sibling.resolve("env-a", min_quality=0.0).version


# ----------------------------------------------- concurrent publisher workers


def _concurrent_publish_worker(root, barrier, seed, id_offset):
    """One shard's wave: publish a shared snapshot + its own, repeatedly."""
    store = MapStore(root, max_bytes=-1, max_age_s=-1)
    shared = _snapshot(count=30, seed=7)  # identical content in every worker
    own = _snapshot(count=20, seed=seed, id_offset=id_offset)
    barrier.wait()
    for _ in range(3):
        store.publish(shared)
        store.publish(own)


def _concurrent_apply_worker(root, barrier, updates):
    """One shard applying the wave's deltas through its own handle."""
    store = MapStore(root, max_bytes=-1, max_age_s=-1)
    merger = MapMerger(drift_residual_m=0.5, relocate_min_observations=3)
    barrier.wait()
    store.apply_updates(updates, merger=merger)


class TestMapStoreConcurrentProcesses:
    """Two real processes sharing one root — the sharded serve() in anger."""

    def _run(self, workers):
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)

    def test_concurrent_publishers_converge(self, tmp_path):
        import multiprocessing
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        self._run([
            context.Process(target=_concurrent_publish_worker,
                            args=(tmp_path, barrier, seed, offset))
            for seed, offset in ((11, 100), (22, 200))
        ])
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        # Content-addressed idempotency under concurrency: the shared
        # snapshot exists once, each worker's own snapshot once — three
        # files, no duplicates, no torn writes.
        assert len(store.snapshots("env-a")) == 3
        # Two fresh handles (the "next wave" of two shards) resolve the
        # same canonical merge of everything both publishers wrote.
        other = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        mine = store.resolve("env-a", min_quality=0.0)
        assert mine is not None
        assert mine.version == other.resolve("env-a", min_quality=0.0).version
        assert mine.landmark_count > 30  # merged, not just the shared one

    def test_concurrent_update_application_stays_consistent(self, tmp_path):
        import multiprocessing
        store = MapStore(tmp_path, max_bytes=-1, max_age_s=-1)
        snapshot = _snapshot(count=30, seed=3)
        store.publish(snapshot)
        target = int(snapshot.landmark_ids[4])
        updates = [_update(snapshot, [target], [snapshot.positions[4] + 5.0],
                           [5.0], counts=[2])]
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        self._run([
            context.Process(target=_concurrent_apply_worker,
                            args=(tmp_path, barrier, updates))
            for _ in range(2)
        ])
        # Whatever the interleaving, the store converges: the second
        # application either hit the idempotent-target fast path or
        # quiesced against the already-updated canonical.  Pruned content
        # must not resurrect, and any two next-wave handles must agree.
        merger = MapMerger(drift_residual_m=0.5, relocate_min_observations=3)
        first = MapStore(tmp_path, max_bytes=-1, max_age_s=-1).resolve(
            "env-a", merger=merger, min_quality=0.0)
        second = MapStore(tmp_path, max_bytes=-1, max_age_s=-1).resolve(
            "env-a", merger=merger, min_quality=0.0)
        assert first is not None
        assert target not in first.landmark_ids
        assert first.version == second.version
        # Compaction held: at most the updated snapshot (plus, in the worst
        # interleaving, one superseded survivor that the next application
        # would fold away) remains on disk.
        assert len(store.snapshots("env-a")) <= 2
