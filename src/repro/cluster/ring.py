"""Consistent-hash slot ring: which shard serves which stream.

Streams are partitioned Redis-cluster style, in two levels:

1. ``stream_id`` hashes to one of ``slot_count`` fixed *slots* — a sha256
   of the id, never Python's ``hash()`` (which is salted per interpreter
   and would scatter a fleet differently in every process);
2. each slot is *assigned* to a shard, round-robin initially so shard
   sizes differ by at most one slot.

The two levels are what make rebalancing cheap and **consistent**: the
stream->slot mapping never changes, so moving load between shards is a
slot reassignment that relocates only the streams in the moved slots —
every other stream keeps its shard, its shard-local autoscaler history,
and its place in that shard's serving order.  GCsnap-style per-node work
partitioning with a shared result store is the coordination model; the
slot indirection is what lets the partition shift between waves without
re-hashing the world.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, List, Optional, Tuple

__all__ = ["DEFAULT_SLOT_COUNT", "HashRing", "SLOT_COUNT_ENV",
           "resolve_slot_count"]

SLOT_COUNT_ENV = "EUDOXUS_SHARD_SLOTS"
DEFAULT_SLOT_COUNT = 64


def resolve_slot_count(slot_count: Optional[int] = None) -> int:
    """Explicit argument > ``EUDOXUS_SHARD_SLOTS`` > default."""
    if slot_count is not None:
        return int(slot_count)
    raw = os.environ.get(SLOT_COUNT_ENV, "").strip()
    return int(raw) if raw else DEFAULT_SLOT_COUNT


class HashRing:
    """Fixed-slot consistent hashing of stream ids onto shards."""

    def __init__(self, shard_count: int,
                 slot_count: Optional[int] = None) -> None:
        slot_count = resolve_slot_count(slot_count)
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if slot_count < shard_count:
            raise ValueError(
                f"slot_count ({slot_count}) must be >= shard_count "
                f"({shard_count}); each shard needs at least one slot")
        self.shard_count = int(shard_count)
        self.slot_count = int(slot_count)
        self._shard_of_slot: List[int] = [slot % self.shard_count
                                          for slot in range(self.slot_count)]
        self.moves = 0  # total slot reassignments over the ring's lifetime

    def slot_of(self, stream_id: str) -> int:
        """The stream's slot — a pure function of the id, stable forever."""
        digest = hashlib.sha256(stream_id.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.slot_count

    def shard_for(self, stream_id: str) -> int:
        return self._shard_of_slot[self.slot_of(stream_id)]

    def slots_of(self, shard: int) -> Tuple[int, ...]:
        return tuple(slot for slot, owner in enumerate(self._shard_of_slot)
                     if owner == shard)

    def assignment(self) -> Tuple[int, ...]:
        """slot -> shard, as an immutable snapshot (for telemetry/tests)."""
        return tuple(self._shard_of_slot)

    def move(self, slots: Iterable[int], target: int) -> int:
        """Reassign ``slots`` to ``target``; returns how many changed owner."""
        if not 0 <= target < self.shard_count:
            raise ValueError(f"target shard {target} out of range "
                             f"[0, {self.shard_count})")
        moved = 0
        for slot in slots:
            if not 0 <= slot < self.slot_count:
                raise ValueError(f"slot {slot} out of range "
                                 f"[0, {self.slot_count})")
            if self._shard_of_slot[slot] != target:
                self._shard_of_slot[slot] = target
                moved += 1
        self.moves += moved
        return moved
