"""Fleet map service: cross-session SLAM map publishing, merging and reuse.

The paper's Fig. 2 taxonomy hinges on map availability: registration and
VIO+map are far cheaper than full SLAM but need a prior map.  This package
turns maps from a static per-stream flag into a fleet-wide resource:

* :mod:`repro.maps.snapshot` — :class:`MapSnapshot`: a versioned,
  content-addressed map of one shared environment with quality metadata
  (landmark count, spatial coverage, residual stats) and a scalar
  :func:`quality_score`; :func:`snapshot_from_mapper` publishes a live SLAM
  mapper, :func:`degrade_snapshot` injects stale/degraded maps for fleet
  scenarios.
* :mod:`repro.maps.merger` — :class:`MapMerger`: aligns (weighted Horn on
  shared landmarks) and dedups overlapping snapshots into the canonical
  per-environment map, blending overlaps by per-landmark observation
  counts; merging a map with itself is a strict no-op.
* :mod:`repro.maps.update` — :class:`MapUpdate` /
  :class:`MapObservationAccumulator`: the registration-side half of the
  closed lifecycle — per-landmark observation deltas a session accumulates
  while serving *against* a fleet map, applied back through
  :meth:`MapMerger.apply_updates` (confirm / relocate / prune).
* :mod:`repro.maps.store` — :class:`MapStore`: a persistent LRU store next
  to the run cache (``~/.cache/eudoxus-repro/maps``, ``EUDOXUS_MAP_CACHE*``
  overrides) with atomic concurrent-writer-safe publishes, a quality-gated
  :meth:`~MapStore.resolve` that serves the canonical map from the one
  canonical-map memo (validated against the snapshot file stems), and
  :meth:`~MapStore.apply_updates` folding registration deltas into a new
  content-addressed canonical version (compacting the superseded history).

The serving layer closes the loop both ways: SLAM sessions publish
snapshots at segment exits, the engine resolves fleet maps up front per
serve call (a sharded coordinator ships the resolved snapshots themselves
to its shards, which hold no store) and folds the resolved versions into
its cache keys, sessions acquire maps mid-stream —
shifting fleet traffic from SLAM onto registration as the map matures —
and registration sessions hand observation deltas back, so a drifting
world is detected (``map_stale`` demotion), repaired and re-served.
"""

from repro.maps.merger import MapMerger
from repro.maps.snapshot import (
    DEFAULT_MIN_MAP_QUALITY,
    MapSnapshot,
    degrade_snapshot,
    quality_score,
    snapshot_from_mapper,
)
from repro.maps.store import (
    DEFAULT_MAP_CACHE_MAX_AGE_DAYS,
    DEFAULT_MAP_CACHE_MAX_MB,
    MAP_CACHE_ENV,
    MAP_CACHE_MAX_AGE_DAYS_ENV,
    MAP_CACHE_MAX_MB_ENV,
    MapStore,
    default_map_root,
)
from repro.maps.update import MapObservationAccumulator, MapUpdate

__all__ = [
    "DEFAULT_MAP_CACHE_MAX_AGE_DAYS",
    "DEFAULT_MAP_CACHE_MAX_MB",
    "DEFAULT_MIN_MAP_QUALITY",
    "MAP_CACHE_ENV",
    "MAP_CACHE_MAX_AGE_DAYS_ENV",
    "MAP_CACHE_MAX_MB_ENV",
    "MapMerger",
    "MapObservationAccumulator",
    "MapSnapshot",
    "MapStore",
    "MapUpdate",
    "default_map_root",
    "degrade_snapshot",
    "quality_score",
    "snapshot_from_mapper",
]
