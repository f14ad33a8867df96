"""Merging overlapping map snapshots into one canonical environment map.

Different SLAM sessions of the same environment each carry their own drift:
before their snapshots can be combined, each must be *aligned* to a common
frame (weighted Horn on the landmarks they share — the same absolute
orientation kernel the tracking block runs per frame) and the overlapping
landmarks *deduplicated* (blended across the aligned contributions,
weighted by each landmark's observation backing).

The merge is deterministic: snapshots are ranked by (quality, version), the
best one anchors the canonical frame, and exact-duplicate inputs are folded
away up front — so merging a map with itself is a strict no-op, the
idempotence property the hypothesis suite pins.

The merger is also where registration-session :class:`~repro.maps.update.MapUpdate`
deltas fold back into a snapshot (:meth:`MapMerger.apply_updates`): observed
landmarks are confirmed (position blended by observation count, residual
statistics refreshed), landmarks whose observations show the world drifted
are relocated to where the fleet now sees them, and drifted landmarks with
too few observations to relocate confidently are pruned.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.tracking import _weighted_horn
from repro.maps.snapshot import MapSnapshot
from repro.maps.update import MapObservationAccumulator, MapUpdate


class MapMerger:
    """Aligns and dedups snapshots of one environment into a canonical map.

    ``min_shared_for_alignment`` is the number of shared landmarks below
    which a Horn alignment would be unreliable; with fewer, a contribution
    is folded in as-is (sessions anchor in the same world frame, so the
    unaligned error is bounded by per-session drift).

    ``quarantine_fraction`` protects the canonical map from stale or
    degraded contributions: snapshots whose quality falls below this
    fraction of the best input's are excluded from the merge (their
    inflated residuals would otherwise drag the canonical quality — and
    with it the serving gate — down for everyone).  The boundary is
    **inclusive**: a contribution at *exactly* the fraction of the best
    input's quality survives (``quality >= fraction * best`` merges).
    Inclusive is the deliberate choice because the fraction is a floor on
    usefulness, not a strict dominance test — most visibly at
    ``quarantine_fraction=1.0``, where equal-best contributions (the
    common case of several sessions mapping identically well) must merge
    rather than leave only the single lexicographically-best snapshot.
    A degraded snapshot alone still merges to itself; quarantine only
    applies once something better exists.

    ``drift_residual_m`` / ``relocate_min_observations`` govern
    :meth:`apply_updates`: an observed landmark whose mean residual against
    the map exceeds ``drift_residual_m`` is treated as moved — relocated to
    the observed mean when at least ``relocate_min_observations``
    registration observations back the new position, pruned otherwise.
    """

    def __init__(self, min_shared_for_alignment: int = 8,
                 quarantine_fraction: float = 0.5,
                 drift_residual_m: float = 0.5,
                 relocate_min_observations: int = 3) -> None:
        self.min_shared_for_alignment = max(3, int(min_shared_for_alignment))
        self.quarantine_fraction = float(np.clip(quarantine_fraction, 0.0, 1.0))
        self.drift_residual_m = max(0.0, float(drift_residual_m))
        self.relocate_min_observations = max(1, int(relocate_min_observations))
        # Observability (repro.obs): per-landmark outcome census of the most
        # recent apply_updates call (confirmed / relocated / pruned /
        # carried), plus cumulative Prometheus counters once bound.  Pure
        # telemetry — nothing below reads it, so it cannot perturb merges.
        self.last_apply_stats: Dict[str, int] = {}
        self.metrics = None
        self._m_outcomes = None

    def bind_metrics(self, registry) -> None:
        """Register the update-application outcome counter with a
        :class:`repro.obs.MetricsRegistry` (idempotent)."""
        self.metrics = registry
        self._m_outcomes = registry.counter(
            "eudoxus_map_merger_apply_outcomes_total",
            "Per-landmark outcomes of MapUpdate applications "
            "(confirmed, relocated, pruned, carried = unobserved).",
            ("outcome",))

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the metric handles: a registry belongs to the
        process that bound it, so a copy shipped to a shard worker travels
        unbound."""
        return dict(self.__dict__, metrics=None, _m_outcomes=None)

    def signature(self) -> Tuple:
        """The parameters that change what :meth:`merge` / :meth:`apply_updates`
        produce.

        Memoization layers (the map store's canonical cache) key on this so
        the same snapshot set merged under different parameters can never
        alias to one cached result.
        """
        return (self.min_shared_for_alignment, self.quarantine_fraction,
                self.drift_residual_m, self.relocate_min_observations)

    def survives_quarantine(self, quality: float, best_quality: float) -> bool:
        """Whether a contribution of ``quality`` merges next to ``best_quality``.

        The inclusive boundary contract in one place: *exactly*
        ``quarantine_fraction * best_quality`` survives.
        """
        return quality >= self.quarantine_fraction * best_quality

    def merge(self, snapshots: Sequence[MapSnapshot]) -> Optional[MapSnapshot]:
        """The canonical map for one environment (None for no input)."""
        if not snapshots:
            return None
        # Environment mixing is a caller bug; surface it before dedup or
        # quarantine can mask it (a quarantined foreign snapshot would
        # otherwise silently vanish from the merge).
        environments = {snapshot.environment_id for snapshot in snapshots}
        if len(environments) != 1:
            raise ValueError(f"cannot merge across environments: {sorted(environments)}")
        unique = self._dedup(snapshots)
        if len(unique) > 1:
            best = unique[0].quality
            unique = [snapshot for snapshot in unique
                      if self.survives_quarantine(snapshot.quality, best)]
        if len(unique) == 1:
            # A single (possibly self-duplicated) snapshot merges to itself,
            # bit for bit — no alignment or averaging round-trip.
            return unique[0]

        reference = unique[0]
        anchor = reference.positions_by_id()
        # Overlap blending is weighted by each landmark's observation
        # backing (1 for snapshots that never went through the update
        # lifecycle — which reproduces the pre-lifecycle plain average bit
        # for bit): a landmark confirmed by many registration observations
        # outweighs a single SLAM sighting of the same id.
        reference_weights = reference.landmark_weights()
        reference_order = {int(lid): i for i, lid in enumerate(reference.landmark_ids)}
        sums: Dict[int, np.ndarray] = {
            lid: reference_weights[reference_order[lid]] * pos
            for lid, pos in anchor.items()
        }
        weights: Dict[int, float] = {
            lid: float(reference_weights[reference_order[lid]]) for lid in anchor
        }
        counts: Dict[int, int] = {
            lid: int(reference_weights[reference_order[lid]]) for lid in anchor
        }
        for snapshot in unique[1:]:
            contribution = self._aligned_positions(snapshot, anchor)
            landmark_weights = snapshot.landmark_weights()
            order = {int(lid): i for i, lid in enumerate(snapshot.landmark_ids)}
            for lid, position in contribution.items():
                weight = float(landmark_weights[order[lid]])
                if lid in sums:
                    sums[lid] += weight * position
                    weights[lid] += weight
                    counts[lid] += int(weight)
                else:
                    sums[lid] = weight * position
                    weights[lid] = weight
                    counts[lid] = int(weight)

        ids = np.fromiter(sorted(sums), dtype=np.int64, count=len(sums))
        # All-empty inputs (e.g. fully-degraded snapshots) merge to an empty
        # canonical map — quality 0.0, rejected by any positive gate —
        # rather than crashing the resolve path.
        positions = (np.stack([sums[int(lid)] / weights[int(lid)] for lid in ids])
                     if len(sums) else np.zeros((0, 3)))
        snapshot_weights = np.array([max(1, snapshot.landmark_count) for snapshot in unique],
                                    dtype=float)
        mean_residual = float(np.average(
            [snapshot.mean_residual_m for snapshot in unique], weights=snapshot_weights))
        carries_counts = any(snapshot.observation_counts is not None for snapshot in unique)
        observation_counts = (
            np.array([counts[int(lid)] for lid in ids], dtype=np.int64)
            if carries_counts and len(sums) else None)
        return MapSnapshot(
            environment_id=reference.environment_id,
            landmark_ids=ids,
            positions=positions,
            mean_residual_m=mean_residual,
            max_residual_m=max(snapshot.max_residual_m for snapshot in unique),
            source="merged",
            segment_index=-1,
            frame_count=sum(snapshot.frame_count for snapshot in unique),
            merged_from=sum(snapshot.merged_from for snapshot in unique),
            observation_counts=observation_counts,
        )

    # ------------------------------------------------------------ updates

    # Below this position/residual movement an update application changes
    # nothing the serving layer can observe; returning the input snapshot
    # unchanged lets the lifecycle *quiesce* — a converged environment stops
    # minting new canonical versions (and stops churning serving cache
    # keys) instead of rewriting itself forever on pure re-confirmation.
    QUIESCE_EPSILON_M = 1e-3

    def apply_updates(self, snapshot: MapSnapshot,
                      updates: Sequence[MapUpdate]) -> MapSnapshot:
        """Fold registration-session deltas into a refreshed snapshot.

        Per landmark the update evidence decides between three outcomes:

        * **confirmed** — the observed mean residual stays at or below
          ``drift_residual_m``: the position is blended with the observed
          mean, weighted by observation counts, and the landmark's
          observation backing grows (coverage confirmed);
        * **relocated** — the residual says the world drifted *and* at
          least ``relocate_min_observations`` observations agree on where
          the landmark is now: the stale prior is discarded and the
          landmark moves to the observed mean, backed only by the fresh
          observations;
        * **pruned** — drifted with too few observations to relocate: the
          landmark is removed (the world changed there and the fleet does
          not yet know what it changed into).

        Landmarks the updates never observed are carried through unchanged.
        Residual refresh separates the two components of an observed
        residual: the *offset* (distance from the map position to the
        observed mean — map error the blend actually removes) shrinks with
        the observation backing, while the *scatter* (the part the
        observations disagree about among themselves, estimated as
        residual minus offset) is irreducible measurement noise and is
        kept in full — so a noise-dominated landmark can never report a
        residual better than what was ever measured, and repeated
        confirmation converges to the honest noise floor instead of
        compounding toward zero.  An application that changes nothing
        beyond :data:`QUIESCE_EPSILON_M` returns ``snapshot`` itself.
        """
        relevant = [update for update in updates
                    if update.environment_id == snapshot.environment_id]
        if len(relevant) != len(updates):
            foreign = sorted({update.environment_id for update in updates}
                             - {snapshot.environment_id})
            raise ValueError(f"updates from foreign environments: {foreign}")
        if not relevant or snapshot.landmark_count == 0:
            return snapshot

        accumulator = MapObservationAccumulator(snapshot.environment_id)
        for update in relevant:
            accumulator.fold_update(update)
        statistics = accumulator.landmark_statistics()

        base_weights = snapshot.landmark_weights()
        keep_ids: List[int] = []
        keep_positions: List[np.ndarray] = []
        keep_counts: List[int] = []
        residual_estimates: List[float] = []
        max_estimates: List[float] = []
        kept_unobserved = False
        structural_change = False  # any prune or relocation
        max_movement = 0.0
        outcomes = {"confirmed": 0, "relocated": 0, "pruned": 0, "carried": 0}
        for i, lid in enumerate(snapshot.landmark_ids):
            lid = int(lid)
            stats = statistics.get(lid)
            if stats is None:
                # Unobserved: carried through, residual estimate stays the
                # snapshot-level prior.
                keep_ids.append(lid)
                keep_positions.append(snapshot.positions[i])
                keep_counts.append(int(base_weights[i]))
                residual_estimates.append(snapshot.mean_residual_m)
                kept_unobserved = True
                outcomes["carried"] += 1
                continue
            n, observed_position, observed_residual, observed_max = stats
            offset = float(np.linalg.norm(observed_position - snapshot.positions[i]))
            scatter = max(0.0, observed_residual - offset)
            scatter_max = max(0.0, observed_max - offset)
            prior_weight = float(base_weights[i])
            if observed_residual <= self.drift_residual_m:
                # Confirmed: blend by observation count.  Only the offset
                # component shrinks (the blend moved the landmark that much
                # closer to where the fleet sees it); scatter survives.
                blended = ((prior_weight * snapshot.positions[i] + n * observed_position)
                           / (prior_weight + n))
                shrinkage = prior_weight / (prior_weight + n)
                keep_ids.append(lid)
                keep_positions.append(blended)
                keep_counts.append(int(prior_weight) + n)
                residual_estimates.append(scatter + offset * shrinkage)
                max_estimates.append(scatter_max + offset * shrinkage)
                max_movement = max(max_movement, offset * (1.0 - shrinkage))
                outcomes["confirmed"] += 1
            elif n >= self.relocate_min_observations:
                # Relocated: the world drifted and the fleet agrees on the
                # new position; the stale prior is discarded entirely, and
                # what remains of the residual is the observation scatter.
                keep_ids.append(lid)
                keep_positions.append(observed_position)
                keep_counts.append(n)
                residual_estimates.append(scatter)
                max_estimates.append(scatter_max)
                structural_change = True
                outcomes["relocated"] += 1
            else:
                # Pruned: drifted, under-observed — dropped.
                structural_change = True
                outcomes["pruned"] += 1

        # Telemetry only — recorded even when the application quiesces below
        # (the census of what the evidence said still happened).
        self.last_apply_stats = outcomes
        if self._m_outcomes is not None:
            for outcome, count in sorted(outcomes.items()):
                if count:
                    self._m_outcomes.inc(count, outcome=outcome)

        ids = np.asarray(keep_ids, dtype=np.int64)
        positions = (np.stack(keep_positions) if keep_ids else np.zeros((0, 3)))
        new_counts = np.asarray(keep_counts, dtype=np.int64)
        if residual_estimates:
            mean_residual = float(np.average(residual_estimates,
                                             weights=new_counts.astype(np.float64)))
            # Unobserved landmarks keep the prior's worst case in play:
            # nothing re-measured them, so the old max still stands for
            # them; observed landmarks contribute their refreshed maxes.
            max_residual = float(max(
                max_estimates + ([snapshot.max_residual_m] if kept_unobserved else []),
                default=0.0))
        else:
            mean_residual = 0.0
            max_residual = 0.0
        # Quiescence: pure re-confirmation that moved nothing and left the
        # residual stats where they were changes nothing the serving layer
        # observes — growing the observation counts alone is not worth a
        # new canonical version (and the cache churn it would cause).
        if not (structural_change
                or max_movement > self.QUIESCE_EPSILON_M
                or abs(mean_residual - snapshot.mean_residual_m) > self.QUIESCE_EPSILON_M
                or abs(max_residual - snapshot.max_residual_m) > self.QUIESCE_EPSILON_M):
            return snapshot
        return MapSnapshot(
            environment_id=snapshot.environment_id,
            landmark_ids=ids,
            positions=positions,
            mean_residual_m=mean_residual,
            max_residual_m=max_residual,
            source="updated",
            segment_index=-1,
            frame_count=snapshot.frame_count + accumulator.frame_count,
            merged_from=snapshot.merged_from,
            observation_counts=new_counts,
        )

    # ------------------------------------------------------------- internals

    @staticmethod
    def _dedup(snapshots: Sequence[MapSnapshot]) -> List[MapSnapshot]:
        """Drop exact-content duplicates; rank best (quality, version) first."""
        by_version: Dict[str, MapSnapshot] = {}
        for snapshot in snapshots:
            by_version.setdefault(snapshot.version, snapshot)
        return sorted(by_version.values(),
                      key=lambda s: (-s.quality, s.version))

    def _aligned_positions(self, snapshot: MapSnapshot,
                           anchor: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Snapshot landmarks expressed in the canonical (anchor) frame."""
        own = snapshot.positions_by_id()
        shared = sorted(lid for lid in own if lid in anchor)
        if len(shared) < self.min_shared_for_alignment:
            return own
        source = np.stack([own[lid] for lid in shared])
        target = np.stack([anchor[lid] for lid in shared])
        if np.array_equal(source, target):
            # Identical shared geometry: the frames already coincide, and an
            # SVD round-trip would only smear float noise over every point.
            return own
        transform = _weighted_horn(source, target, np.ones(len(shared)))
        return {lid: transform.transform_point(position)
                for lid, position in own.items()}
