"""Tier-2 map sync: the reference protocol between coordinator and shards.

The map plane has three tiers (ROADMAP item 5):

* **Tier 0 — authoritative**: the on-disk :class:`~repro.maps.store.MapStore`
  keeps every published snapshot and stays the bit-identical oracle.
* **Tier 1 — canonical memo**: the store handle's in-memory memo of each
  environment's canonical merge, validated against the snapshot file stems
  on every :meth:`~repro.maps.store.MapStore.resolve` — a resolve whose
  stems are unchanged costs one directory scan, no unpickle, no merge.  It
  is the only canonical-map cache, and its hit/miss counters are the ones
  every report, metric and endpoint shows.
* **Tier 2 — delta sync** (this module): shard payloads carry
  ``{version, inputs}`` references, read from
  :meth:`~repro.maps.store.MapStore.canonical_provenance`, instead of
  pickled snapshots; the shard rebuilds the exact canonical through
  :meth:`~repro.maps.store.MapStore.materialize`, and
  :class:`SyncAccounting` counts the bytes the reference protocol shipped
  against the bytes the full-snapshot protocol would have.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict


def payload_bytes(value) -> int:
    """Pickled size of a sync payload — the unit SyncAccounting counts."""
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


@dataclass
class SyncAccounting:
    """Bytes shipped by the Tier-2 reference protocol vs full snapshots.

    ``full_bytes`` is the counterfactual — what shipping every resolved
    snapshot whole (the pre-tier protocol) would have cost for the same
    waves; ``delta_bytes`` is what the ``{version, inputs}`` references
    (plus any embedded full-snapshot fallbacks) actually cost.  The gap is
    the delta-sync win, visible in ``/v1/metrics`` and the demo epilogue.
    """

    waves: int = 0
    environments: int = 0
    full_bytes: int = 0
    delta_bytes: int = 0
    fallbacks: int = 0  # payloads that had to embed the full snapshot
    _m_bytes: object = field(default=None, repr=False, compare=False)
    _m_fallbacks: object = field(default=None, repr=False, compare=False)

    def record(self, full_bytes: int, delta_bytes: int,
               environments: int, fallbacks: int = 0) -> None:
        self.waves += 1
        self.environments += environments
        self.full_bytes += int(full_bytes)
        self.delta_bytes += int(delta_bytes)
        self.fallbacks += int(fallbacks)
        if self._m_bytes is not None:
            self._m_bytes.inc(int(full_bytes), kind="full")
            self._m_bytes.inc(int(delta_bytes), kind="delta")
            if fallbacks:
                self._m_fallbacks.inc(int(fallbacks))

    @property
    def savings_fraction(self) -> float:
        """Fraction of the full-snapshot bytes the references saved."""
        if self.full_bytes <= 0:
            return 0.0
        return 1.0 - (self.delta_bytes / self.full_bytes)

    def as_dict(self) -> Dict[str, float]:
        return {
            "waves": self.waves,
            "environments": self.environments,
            "full_bytes": self.full_bytes,
            "delta_bytes": self.delta_bytes,
            "fallbacks": self.fallbacks,
            "savings_fraction": round(self.savings_fraction, 4),
        }

    def bind_metrics(self, registry) -> None:
        self._m_bytes = registry.counter(
            "eudoxus_map_tier_sync_bytes_total",
            "Map-sync payload bytes by protocol (full counterfactual vs "
            "shipped delta references).", ("kind",))
        self._m_fallbacks = registry.counter(
            "eudoxus_map_tier_sync_fallbacks_total",
            "Sync payloads that embedded a full snapshot because no "
            "reference could be shipped.")
