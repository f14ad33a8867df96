"""Versioned environment-map snapshots with quality metadata.

A :class:`MapSnapshot` is the unit the fleet map service trades in: the
landmark estimates one SLAM session produced for one shared environment,
stamped with quality metadata (landmark count, spatial coverage, residual
stats) and content-addressed by a :attr:`~MapSnapshot.version` digest.  The
version is what the serving layer folds into its cache keys: two fleets
served against different canonical maps can never collide in the run store.

Snapshots are *pure data* — publishing one is a store side-effect the
serving engine performs after a session completes, so worker processes stay
pure functions of their inputs and serial/streaming/pool execution remain
bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.backend.tracking import LocalizationMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.backend.mapping import KeyframeMapper

# Quality-score shape parameters.  The score is a product of three saturating
# terms so it is monotonically increasing in landmark count and spatial
# coverage and monotonically decreasing in the residual statistics — the
# properties the hypothesis suite pins.
QUALITY_COUNT_SCALE = 60.0       # landmarks to reach ~63% of the count term
QUALITY_COVERAGE_SCALE_M = 4.0   # bounding-box half-diagonal for ~63% coverage
QUALITY_RESIDUAL_SOFT_M = 0.5    # residual at which the residual term halves

# A canonical map must clear this to be served to registration sessions; below
# it the fleet keeps running SLAM (and keeps publishing better snapshots).
DEFAULT_MIN_MAP_QUALITY = 0.25


def quality_score(landmark_count: int, coverage_m: float,
                  mean_residual_m: float) -> float:
    """Map quality in [0, 1): is this map good enough to serve registration?

    Monotonically non-decreasing in ``landmark_count`` and ``coverage_m``
    (more map never hurts), monotonically non-increasing in
    ``mean_residual_m`` (an inconsistent map is worse than a small one).
    """
    count_term = 1.0 - np.exp(-max(0, int(landmark_count)) / QUALITY_COUNT_SCALE)
    coverage_term = 1.0 - np.exp(-max(0.0, float(coverage_m)) / QUALITY_COVERAGE_SCALE_M)
    residual_term = 1.0 / (1.0 + max(0.0, float(mean_residual_m)) / QUALITY_RESIDUAL_SOFT_M)
    return float(count_term * coverage_term * residual_term)


# eq=False: the auto-generated dataclass __eq__ would compare the numpy
# fields with `==` and raise on any two distinct snapshots.  Identity
# comparison is correct here — content equality is what `version` is for.
@dataclass(eq=False)
class MapSnapshot:
    """One versioned map of a shared environment.

    ``landmark_ids`` / ``positions`` are canonicalized to ascending-id order
    on construction so the content digest is independent of insertion order.
    ``mean_residual_m`` / ``max_residual_m`` summarize the self-consistency
    of the map at publish time (keyframe-observed points vs the landmark
    estimates); degraded or stale maps carry inflated residuals, which is
    what the serving quality gate keys on.
    """

    environment_id: str
    landmark_ids: np.ndarray
    positions: np.ndarray
    mean_residual_m: float = 0.0
    max_residual_m: float = 0.0
    source: str = ""
    segment_index: int = -1
    frame_count: int = 0
    merged_from: int = 1
    # Per-landmark observation backing (closed map lifecycle): how many
    # registration observations confirm each landmark.  ``None`` — the only
    # value plain SLAM publishes ever carry — means "unweighted" (every
    # landmark counts 1 in merges), and is deliberately excluded from the
    # version digest so pre-lifecycle snapshots keep their exact versions.
    observation_counts: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        ids = np.asarray(self.landmark_ids, dtype=np.int64).reshape(-1)
        positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        if ids.shape[0] != positions.shape[0]:
            raise ValueError("landmark_ids and positions disagree on length")
        order = np.argsort(ids, kind="stable")
        self.landmark_ids = ids[order]
        self.positions = positions[order]
        if self.observation_counts is not None:
            counts = np.asarray(self.observation_counts, dtype=np.int64).reshape(-1)
            if counts.shape[0] != ids.shape[0]:
                raise ValueError("observation_counts and landmark_ids disagree on length")
            self.observation_counts = counts[order]
        self.mean_residual_m = float(self.mean_residual_m)
        self.max_residual_m = float(self.max_residual_m)
        self._version: Optional[str] = None

    # ---------------------------------------------------------------- quality

    @property
    def landmark_count(self) -> int:
        return int(self.landmark_ids.size)

    @property
    def coverage_m(self) -> float:
        """Half-diagonal of the landmark bounding box (never shrinks as
        landmarks are added — the monotonicity the quality score relies on)."""
        if self.landmark_count == 0:
            return 0.0
        span = self.positions.max(axis=0) - self.positions.min(axis=0)
        return float(0.5 * np.linalg.norm(span))

    @property
    def quality(self) -> float:
        return quality_score(self.landmark_count, self.coverage_m, self.mean_residual_m)

    # ---------------------------------------------------------------- content

    @property
    def version(self) -> str:
        """Content digest of everything that affects served results.

        Computed once and cached — version is read on every dedup, publish,
        cache-key build and signature fold, and the arrays underneath are
        treated as immutable once the snapshot exists.
        """
        if self._version is None:
            digest = hashlib.sha256()
            digest.update(self.environment_id.encode())
            digest.update(self.landmark_ids.tobytes())
            digest.update(np.ascontiguousarray(self.positions).tobytes())
            digest.update(repr((self.mean_residual_m, self.max_residual_m)).encode())
            # Folded only when present so every pre-lifecycle snapshot keeps
            # its exact version (the same only-when-present rule the session
            # signature applies to map provenance).
            if self.observation_counts is not None:
                digest.update(b"counts:")
                digest.update(np.ascontiguousarray(self.observation_counts).tobytes())
            self._version = digest.hexdigest()[:16]
        return self._version

    def landmark_weights(self) -> np.ndarray:
        """Per-landmark merge weights: observation counts, defaulting to 1.

        A snapshot that never went through the update lifecycle weighs every
        landmark equally, which reproduces the pre-lifecycle merge bit for
        bit; updated snapshots let well-observed landmarks dominate overlap
        blending ("blend by observation count").
        """
        if self.observation_counts is None:
            return np.ones(self.landmark_count, dtype=np.float64)
        return self.observation_counts.astype(np.float64)

    def positions_by_id(self) -> Dict[int, np.ndarray]:
        return {int(lid): self.positions[i].copy()
                for i, lid in enumerate(self.landmark_ids)}

    def to_localization_map(self) -> LocalizationMap:
        """The registration-backend view of this snapshot.

        Fleet maps carry no descriptors: the synthetic frontend's track ids
        are the landmark ids of the shared world, so matching happens by
        persistent identity — exactly how the SLAM tracker consumes the same
        landmarks while the map is being built.
        """
        return LocalizationMap(self.landmark_ids, self.positions)


def snapshot_from_mapper(mapper: "KeyframeMapper", environment_id: str,
                         source: str = "", segment_index: int = -1,
                         frame_count: int = 0) -> MapSnapshot:
    """Publish a SLAM mapper's current landmark estimates as a snapshot.

    Residual statistics come from the mapper's own window self-consistency
    (:meth:`~repro.backend.mapping.KeyframeMapper.residual_stats`) — the
    observable a real fleet has, as opposed to ground truth it does not.
    """
    ids, positions = mapper.landmark_columns()
    mean_residual, max_residual, _ = mapper.residual_stats()
    return MapSnapshot(
        environment_id=environment_id,
        landmark_ids=ids,
        positions=positions,
        mean_residual_m=mean_residual,
        max_residual_m=max_residual,
        source=source,
        segment_index=segment_index,
        frame_count=frame_count,
    )


def degrade_snapshot(snapshot: MapSnapshot, position_noise_m: float = 0.5,
                     drop_fraction: float = 0.0, seed: int = 0) -> MapSnapshot:
    """Stale/degraded-map injection for fleet scenarios.

    Models a map that aged out of date: landmark positions drift by
    ``position_noise_m`` (environment changed since the survey) and
    ``drop_fraction`` of the landmarks disappear (structure removed).  The
    injected drift is folded into the residual statistics — a real fleet
    observes stale maps as growing registration residuals — so a degraded
    snapshot honestly reports a lower :attr:`~MapSnapshot.quality` and the
    serving gate can reject it.
    """
    rng = np.random.default_rng(seed)
    keep = np.ones(snapshot.landmark_count, dtype=bool)
    drop_fraction = float(np.clip(drop_fraction, 0.0, 1.0))
    if drop_fraction > 0.0 and snapshot.landmark_count:
        keep = rng.random(snapshot.landmark_count) >= drop_fraction
    positions = snapshot.positions[keep]
    if position_noise_m > 0.0 and positions.shape[0]:
        positions = positions + rng.normal(0.0, position_noise_m, size=positions.shape)
    return MapSnapshot(
        environment_id=snapshot.environment_id,
        landmark_ids=snapshot.landmark_ids[keep],
        positions=positions,
        mean_residual_m=snapshot.mean_residual_m + max(0.0, float(position_noise_m)),
        max_residual_m=snapshot.max_residual_m + 3.0 * max(0.0, float(position_noise_m)),
        source=(snapshot.source + "+degraded") if snapshot.source else "degraded",
        segment_index=snapshot.segment_index,
        frame_count=snapshot.frame_count,
        merged_from=snapshot.merged_from,
        observation_counts=(snapshot.observation_counts[keep]
                            if snapshot.observation_counts is not None else None),
    )
