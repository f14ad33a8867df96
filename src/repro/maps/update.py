"""Incremental map updates observed by registration sessions.

A :class:`MapUpdate` is the registration-side half of the closed map
lifecycle: while a session serves frames *against* a fleet map, every
identity-matched landmark yields a fresh observation — the stereo-measured
body point transformed through the served pose is an independent estimate
of where that landmark is *now*, and its distance to the map position is a
per-landmark residual.  A segment's worth of those observations, reduced to
per-landmark counts / mean observed positions / residual statistics, is the
delta the session hands back to the fleet.

Like :class:`~repro.maps.snapshot.MapSnapshot`, an update is *pure data*:
sessions accumulate and emit them deterministically (so serial, streaming
and pool execution stay bit-identical — updates are folded into the session
signature), and the engine performs the store side-effect
(:meth:`~repro.maps.store.MapStore.apply_updates`) after the serve call.
The folded result becomes a new content-addressed snapshot version that the
*next* wave resolves — the same visibility rule as publishes, never
mid-call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np


# eq=False for the same reason as MapSnapshot: the auto-generated dataclass
# __eq__ would compare numpy fields with `==` and raise; content equality is
# what `version` is for.
@dataclass(eq=False)
class MapUpdate:
    """Per-landmark observation statistics one session accumulated.

    ``base_version`` records the canonical snapshot the observations were
    made against (provenance; application matches landmarks by id, so an
    update outlives the exact version it was observed on).  Arrays are
    canonicalized to ascending-id order on construction, mirroring
    :class:`~repro.maps.snapshot.MapSnapshot`, so the content digest is
    independent of accumulation order.
    """

    environment_id: str
    base_version: str
    landmark_ids: np.ndarray
    observation_counts: np.ndarray
    observed_positions: np.ndarray
    mean_residuals_m: np.ndarray
    max_residuals_m: np.ndarray
    source: str = ""
    segment_index: int = -1
    frame_count: int = 0

    def __post_init__(self) -> None:
        ids = np.asarray(self.landmark_ids, dtype=np.int64).reshape(-1)
        counts = np.asarray(self.observation_counts, dtype=np.int64).reshape(-1)
        positions = np.asarray(self.observed_positions, dtype=np.float64).reshape(-1, 3)
        mean_res = np.asarray(self.mean_residuals_m, dtype=np.float64).reshape(-1)
        max_res = np.asarray(self.max_residuals_m, dtype=np.float64).reshape(-1)
        lengths = {ids.shape[0], counts.shape[0], positions.shape[0],
                   mean_res.shape[0], max_res.shape[0]}
        if len(lengths) != 1:
            raise ValueError("MapUpdate arrays disagree on length")
        if counts.size and counts.min() < 1:
            raise ValueError("observation_counts must be >= 1")
        order = np.argsort(ids, kind="stable")
        self.landmark_ids = ids[order]
        self.observation_counts = counts[order]
        self.observed_positions = positions[order]
        self.mean_residuals_m = mean_res[order]
        self.max_residuals_m = max_res[order]
        self._version: Optional[str] = None

    @property
    def landmark_count(self) -> int:
        return int(self.landmark_ids.size)

    @property
    def mean_residual_m(self) -> float:
        """Observation-weighted mean residual over the update's landmarks."""
        if not self.landmark_ids.size:
            return 0.0
        weights = self.observation_counts.astype(np.float64)
        return float(np.average(self.mean_residuals_m, weights=weights))

    @property
    def version(self) -> str:
        """Content digest of everything application consumes.

        Computed once and cached (arrays are treated as immutable once the
        update exists); folded into the session signature so an update whose
        observations drifted can never hide behind an identical pose trace.
        """
        if self._version is None:
            digest = hashlib.sha256()
            digest.update(self.environment_id.encode())
            digest.update(self.base_version.encode())
            digest.update(self.landmark_ids.tobytes())
            digest.update(np.ascontiguousarray(self.observation_counts).tobytes())
            digest.update(np.ascontiguousarray(self.observed_positions).tobytes())
            digest.update(np.ascontiguousarray(self.mean_residuals_m).tobytes())
            digest.update(np.ascontiguousarray(self.max_residuals_m).tobytes())
            self._version = digest.hexdigest()[:16]
        return self._version


class MapObservationAccumulator:
    """Weighted per-landmark reduction of registration observations.

    The single home of the (count, position sum, residual sum, residual
    max) fold, fed two ways:

    * **streaming** — :meth:`observe_frame` folds one served frame's
      ``(landmark_id, observed_position, residual)`` triples with weight 1
      each (one instance covers one session / segment / acquired-map
      stretch, and :meth:`to_update` reduces the sums into a
      :class:`MapUpdate`);
    * **batched** — :meth:`fold_update` folds a whole :class:`MapUpdate`
      back in, each landmark entry weighted by its observation count (how
      the merger aggregates many sessions' updates before application).

    Either way the accumulation is a pure fold over its input sequence, so
    the reduction is bit-identical wherever it executes.
    """

    def __init__(self, environment_id: str, base_version: str = "",
                 source: str = "", segment_index: int = -1) -> None:
        self.environment_id = environment_id
        self.base_version = base_version
        self.source = source
        self.segment_index = segment_index
        self.frame_count = 0
        self._counts: dict = {}
        self._position_sums: dict = {}
        self._residual_sums: dict = {}
        self._residual_maxes: dict = {}

    def _fold(self, landmark_id: int, weight: int, weighted_position,
              weighted_residual: float, residual_max: float) -> None:
        lid = int(landmark_id)
        if lid in self._counts:
            self._counts[lid] += weight
            self._position_sums[lid] = self._position_sums[lid] + weighted_position
            self._residual_sums[lid] += weighted_residual
            if residual_max > self._residual_maxes[lid]:
                self._residual_maxes[lid] = residual_max
        else:
            self._counts[lid] = weight
            self._position_sums[lid] = np.asarray(weighted_position,
                                                  dtype=np.float64).copy()
            self._residual_sums[lid] = float(weighted_residual)
            self._residual_maxes[lid] = float(residual_max)

    def observe_frame(self, observations) -> float:
        """Fold one frame's ``(landmark_id, observed_position, residual)``
        triples; returns the frame's mean residual (0.0 for no matches)."""
        self.frame_count += 1
        if not observations:
            return 0.0
        total = 0.0
        for landmark_id, position, residual in observations:
            total += residual
            self._fold(landmark_id, 1, position, residual, residual)
        return total / len(observations)

    def fold_update(self, update: "MapUpdate") -> None:
        """Fold a whole update in, entries weighted by observation count."""
        if update.environment_id != self.environment_id:
            raise ValueError(f"cannot fold update of {update.environment_id!r} "
                             f"into {self.environment_id!r}")
        self.frame_count += update.frame_count
        for i, landmark_id in enumerate(update.landmark_ids):
            n = int(update.observation_counts[i])
            self._fold(landmark_id, n, n * update.observed_positions[i],
                       n * float(update.mean_residuals_m[i]),
                       float(update.max_residuals_m[i]))

    @property
    def landmark_count(self) -> int:
        return len(self._counts)

    def landmark_statistics(self) -> dict:
        """``{landmark id: (count, mean position, mean residual, max residual)}``."""
        return {
            lid: (count,
                  self._position_sums[lid] / count,
                  self._residual_sums[lid] / count,
                  self._residual_maxes[lid])
            for lid, count in self._counts.items()
        }

    def to_update(self) -> MapUpdate:
        ids = np.fromiter(sorted(self._counts), dtype=np.int64, count=len(self._counts))
        counts = np.array([self._counts[int(lid)] for lid in ids], dtype=np.int64)
        positions = (np.stack([self._position_sums[int(lid)] / self._counts[int(lid)]
                               for lid in ids])
                     if ids.size else np.zeros((0, 3)))
        mean_res = np.array([self._residual_sums[int(lid)] / self._counts[int(lid)]
                             for lid in ids], dtype=np.float64)
        max_res = np.array([self._residual_maxes[int(lid)] for lid in ids],
                           dtype=np.float64)
        return MapUpdate(
            environment_id=self.environment_id,
            base_version=self.base_version,
            landmark_ids=ids,
            observation_counts=counts,
            observed_positions=positions,
            mean_residuals_m=mean_res,
            max_residuals_m=max_res,
            source=self.source,
            segment_index=self.segment_index,
            frame_count=self.frame_count,
        )
