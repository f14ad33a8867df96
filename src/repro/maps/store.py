"""Persistent, content-addressed store of fleet map snapshots.

The :class:`MapStore` lives alongside the experiment run store
(``~/.cache/eudoxus-repro/maps``, overridable with ``EUDOXUS_MAP_CACHE``)
and inherits its machinery: atomic temp-file + rename writes so concurrent
publishers never corrupt an entry, corrupted/truncated snapshots degrading
to clean misses, and LRU eviction bounded by ``EUDOXUS_MAP_CACHE_MAX_MB`` /
``EUDOXUS_MAP_CACHE_MAX_AGE_DAYS`` (a value <= 0 disables the bound).

The on-disk layout is ``{base}/{code_generation}/{environment_id}__{version}.pkl``:

* the *generation* directory embeds the package code fingerprint, so maps
  persist only for the code that generated their worlds — a source change
  that alters world/trajectory generation starts a fresh generation instead
  of serving geometry that no longer exists (the same invalidation rule the
  run store applies through its keys; superseded generations are swept once
  they exceed the age bound);
* the ``{environment_id}__{version}`` stem makes one environment's snapshot
  history a single prefix scan, and the content-addressed version suffix
  makes publishing idempotent: republishing an identical snapshot rewrites
  the same file.

:meth:`MapStore.resolve` is the serving-side entry point: it merges an
environment's snapshots into the canonical map (memoized per environment on
the exact merge inputs) and applies the quality gate that decides whether
the map is good enough to serve registration.
"""

from __future__ import annotations

import os
import re
import shutil
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from repro.experiments.runner import RunStore, code_fingerprint
from repro.maps.merger import MapMerger
from repro.maps.snapshot import DEFAULT_MIN_MAP_QUALITY, MapSnapshot
from repro.maps.update import MapUpdate

MAP_CACHE_ENV = "EUDOXUS_MAP_CACHE"
MAP_CACHE_MAX_MB_ENV = "EUDOXUS_MAP_CACHE_MAX_MB"
MAP_CACHE_MAX_AGE_DAYS_ENV = "EUDOXUS_MAP_CACHE_MAX_AGE_DAYS"
DEFAULT_MAP_CACHE_MAX_MB = 128.0
DEFAULT_MAP_CACHE_MAX_AGE_DAYS = 30.0

# Environment ids become filename prefixes ahead of a "__" delimiter;
# anything outside this charset — or anything that would make the delimiter
# ambiguous: an embedded "__" ("atrium__old" colliding into "atrium"
# queries) or an edge underscore ("room_" writing "room___v", captured by
# the "room__*" prefix scan) — is a caller bug better surfaced loudly than
# written as a stray path.
_SAFE_ENVIRONMENT = re.compile(r"^[A-Za-z0-9.-](?:[A-Za-z0-9._-]*[A-Za-z0-9.-])?$")

# What a code-generation directory under the base root looks like.  The
# stale-generation sweep only ever touches children matching this — a user
# pointing EUDOXUS_MAP_CACHE at a directory with unrelated subdirectories
# must never lose them.
_GENERATION_DIR = re.compile(r"^[0-9a-f]{12}$")


def _validate_environment(environment_id: str) -> str:
    if not _SAFE_ENVIRONMENT.match(environment_id) or "__" in environment_id:
        raise ValueError(f"unsafe environment id: {environment_id!r}")
    return environment_id


def default_map_root() -> Path:
    override = os.environ.get(MAP_CACHE_ENV, "").strip()
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "eudoxus-repro" / "maps"


class MapStore(RunStore):
    """The fleet's shared map library: publish, list, merge, gate."""

    MAX_MB_ENV = MAP_CACHE_MAX_MB_ENV
    MAX_AGE_DAYS_ENV = MAP_CACHE_MAX_AGE_DAYS_ENV
    DEFAULT_MAX_MB = DEFAULT_MAP_CACHE_MAX_MB
    DEFAULT_MAX_AGE_DAYS = DEFAULT_MAP_CACHE_MAX_AGE_DAYS
    METRICS_PREFIX = "eudoxus_map_store"

    @classmethod
    def default_root(cls) -> Path:
        return default_map_root()

    def __init__(self, root: Optional[os.PathLike] = None,
                 max_bytes: Optional[float] = None,
                 max_age_s: Optional[float] = None) -> None:
        self.base_root = Path(root) if root is not None else self.default_root()
        super().__init__(root=self.base_root / code_fingerprint()[:12],
                         max_bytes=max_bytes, max_age_s=max_age_s)
        self._sweep_stale_generations()
        self.published = 0
        self.updated = 0  # environments compacted by apply_updates
        # Map-service telemetry (ROADMAP item 5 slice): canonical resolves
        # served from the memo vs recomputed, the wall latency of every
        # forced merge (bounded reservoir), and per-environment canonical
        # *version churn* — a churn tick is a canonical version change: a
        # recompute producing a different version than the environment's
        # previous canonical, or an update application writing a new one.
        # The serving engine snapshots these around each serve call to
        # report per-call deltas.
        self.resolve_hits = 0
        self.resolve_misses = 0
        self.merge_ms: Deque[float] = deque(maxlen=4096)
        self.version_churn: Dict[str, int] = {}
        self._last_canonical_version: Dict[str, Optional[str]] = {}
        self._m_resolves = None
        self._m_merge_ms = None
        self._m_churn = None
        # Canonical-map memo: one entry per environment, holding the merge
        # inputs it was computed from (snapshot keys straight from the file
        # stems — no unpickling on a hit — plus the merger's parameters)
        # next to the result.  A publish, eviction or different merger
        # changes the inputs and recomputes; replacing in place keeps the
        # memo bounded by the number of live environments.  Eviction and
        # update compaction additionally *prune* entries whose inputs left
        # the disk (see :meth:`evict`), so a dead environment never retains
        # its canonical map in memory.
        self._canonical: Dict[str, Tuple[Tuple, Optional[MapSnapshot]]] = {}

    def bind_metrics(self, registry) -> None:
        """Lookup counters from :class:`RunStore` plus the map-service
        families: resolve outcome, merge latency, version churn, and a
        collector-backed lifetime resolve hit-rate gauge."""
        super().bind_metrics(registry)
        self._m_resolves = registry.counter(
            "eudoxus_map_store_resolve_total",
            "Canonical-map resolves by outcome (memo hit vs recompute).",
            ("outcome",))
        self._m_merge_ms = registry.histogram(
            "eudoxus_map_store_merge_ms",
            "Wall latency of forced canonical merges.")
        self._m_churn = registry.counter(
            "eudoxus_map_store_version_churn_total",
            "Canonical map version changes, per environment.",
            ("environment",))
        self._m_hit_rate = registry.gauge(
            "eudoxus_map_store_resolve_hit_rate",
            "Lifetime fraction of canonical resolves served from the memo.")
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self, registry) -> None:
        total = self.resolve_hits + self.resolve_misses
        self._m_hit_rate.set(self.resolve_hits / total if total else 0.0)

    def _record_churn(self, environment_id: str, version: Optional[str]) -> None:
        self.version_churn[environment_id] = (
            self.version_churn.get(environment_id, 0) + 1)
        self._last_canonical_version[environment_id] = version
        if self._m_churn is not None:
            self._m_churn.inc(environment=environment_id)

    # -------------------------------------------------------------- lifecycle

    def publish(self, snapshot: MapSnapshot) -> Optional[Path]:
        """Persist one snapshot (idempotent: content-addressed filename).

        Re-publishing existing content only refreshes the entry's LRU
        recency — no redundant pickle/write/rename, and ``published``
        counts newly written snapshots only.
        """
        _validate_environment(snapshot.environment_id)
        path = self.path_for(f"{snapshot.environment_id}__{snapshot.version}")
        if path.exists():
            # Content-addressed name: an existing file is byte-identical.
            try:
                os.utime(path)
                return path
            except OSError:
                # Evicted between the check and the touch: the caller was
                # promised persistence, so fall through and rewrite.
                pass
        path = self.save_key(f"{snapshot.environment_id}__{snapshot.version}", snapshot)
        if path is not None:
            self.published += 1
        return path

    def snapshots(self, environment_id: str) -> List[MapSnapshot]:
        """Every loadable snapshot of one environment, in version order."""
        loaded: List[MapSnapshot] = []
        for key in self._snapshot_keys(environment_id):
            snapshot = self.load_key(key, expect=MapSnapshot)
            if snapshot is not None:
                loaded.append(snapshot)
        return loaded

    def has_history(self, environment_id: str) -> bool:
        """Whether any snapshot of this environment is currently stored."""
        return bool(self._snapshot_keys(environment_id))

    def environments(self) -> List[str]:
        """Environment ids with at least one stored snapshot."""
        if not self.root.is_dir():
            return []
        seen = set()
        for path in self.root.glob("*.pkl"):
            prefix, separator, _ = path.stem.partition("__")
            if separator:
                seen.add(prefix)
        return sorted(seen)

    def resolve(self, environment_id: str,
                merger: Optional[MapMerger] = None,
                min_quality: float = DEFAULT_MIN_MAP_QUALITY) -> Optional[MapSnapshot]:
        """The canonical map of one environment, if good enough to serve.

        Merges every stored snapshot (memoized on the exact snapshot set)
        and returns the result only when its quality clears ``min_quality``
        — the gate between "the fleet is still exploring" (keep running
        SLAM) and "the map is servable" (later sessions register).
        """
        merged = self._canonical_merge(environment_id, merger or MapMerger())
        if merged is None or merged.quality < min_quality:
            return None
        return merged

    def _canonical_merge(self, environment_id: str,
                         merger: MapMerger) -> Optional[MapSnapshot]:
        """The memoized canonical merge of one environment's history.

        The content versions live in the file stems, so the memo inputs can
        be derived without unpickling the snapshot history; resolve() and
        apply_updates() share this, so a post-serve update application
        never re-merges what the pre-dispatch resolution already computed.
        """
        inputs = (tuple(self._snapshot_keys(environment_id)), merger.signature())
        if not inputs[0]:
            return None
        cached = self._canonical.get(environment_id)
        if cached is None or cached[0] != inputs:
            # Corrupt entries are dropped (and unlinked) during this load;
            # the memoed inputs keep their stems, so the next resolve sees
            # changed inputs and re-merges from the cleaned state.
            started = time.perf_counter()
            merged = merger.merge(self.snapshots(environment_id))
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            cached = (inputs, merged)
            self._canonical[environment_id] = cached
            self.resolve_misses += 1
            self.merge_ms.append(elapsed_ms)
            version = merged.version if merged is not None else None
            if version != self._last_canonical_version.get(environment_id):
                self._record_churn(environment_id, version)
            if self._m_resolves is not None:
                self._m_resolves.inc(outcome="recompute")
                self._m_merge_ms.observe(elapsed_ms)
        else:
            self.resolve_hits += 1
            if self._m_resolves is not None:
                self._m_resolves.inc(outcome="hit")
        return cached[1]

    def apply_updates(self, updates: List[MapUpdate],
                      merger: Optional[MapMerger] = None) -> Dict[str, MapSnapshot]:
        """Fold registration-session deltas into new canonical versions.

        For every environment the updates touch, the stored snapshot history
        is merged into its canonical map, the updates are applied
        (:meth:`MapMerger.apply_updates`: confirm / relocate / prune per
        landmark) and the result is written back as a new content-addressed
        snapshot version.  The superseded history is *compacted away*:
        leaving the stale inputs on disk would let a later merge-union
        resurrect every pruned landmark, so the updated snapshot replaces
        them.  Returns ``{environment_id: updated snapshot}`` for the
        environments that changed.

        Multi-file replacement cannot be atomic; the new version is written
        *before* the stale inputs are unlinked, so no crash or unwritable
        root ever loses the only copy of an environment's history.  The
        cost is a milliseconds-wide window in which a concurrent *process*
        sharing the store can resolve a blend of updated + stale inputs
        (one transiently stale canonical, healed by its next resolve), and
        such a process replaying old cached sessions can re-publish
        superseded content — both self-heal through the lifecycle itself:
        resurrected landmarks read as registration residuals again and the
        next update application prunes them again.  Within one process the
        engine's post-serve ordering makes the window unobservable.

        The visibility rule is the same as for publishes: callers (the
        serving engine) apply updates *after* a serve call completes, and
        the next call's resolve sees the new version — never mid-call.
        """
        merger = merger or MapMerger()
        by_environment: Dict[str, List[MapUpdate]] = {}
        for update in updates:
            by_environment.setdefault(update.environment_id, []).append(update)
        for env_updates in by_environment.values():
            # Application order must not depend on which worker finished
            # first: the per-landmark float accumulation is fold-order
            # sensitive, and the updated snapshot's content version is what
            # the golden lifecycle pins across serial/streaming/pool.
            env_updates.sort(key=lambda u: (u.source, u.segment_index, u.version))
        applied: Dict[str, MapSnapshot] = {}
        for environment_id in sorted(by_environment):
            keys = self._snapshot_keys(environment_id)
            if not keys:
                continue
            # Memoized: the pre-dispatch resolve of this serve call already
            # merged exactly these inputs under this merger.
            canonical = self._canonical_merge(environment_id, merger)
            if canonical is None or canonical.landmark_count == 0:
                continue
            updated = merger.apply_updates(canonical, by_environment[environment_id])
            if updated is canonical:
                # The merger quiesced: nothing the serving layer can
                # observe changed, so the environment did not "change" —
                # no write, no compaction, no entry in the result (even
                # when the canonical is an unmaterialized multi-snapshot
                # merge; the resolve memo keeps serving it cheaply).
                continue
            target_key = f"{environment_id}__{updated.version}"
            if keys == [target_key]:
                # The store already holds exactly this state (idempotent
                # re-application); nothing to write or compact.
                continue
            path = self.path_for(target_key)
            if not path.exists() and self.save_key(target_key, updated) is None:
                # Unwritable root: leave the existing history untouched
                # rather than compacting away snapshots we cannot replace.
                continue
            # New version durable — now the stale inputs can go (see the
            # docstring for the write-before-unlink rationale).
            for key in keys:
                if key == target_key:
                    continue
                try:
                    self.path_for(key).unlink()
                except OSError:
                    pass
            self._canonical.pop(environment_id, None)
            applied[environment_id] = updated
            self.updated += 1
            self._record_churn(environment_id, updated.version)
        return applied

    def evict(self, max_bytes: Optional[float] = None,
              max_age_s: Optional[float] = None) -> int:
        """LRU eviction, plus canonical-memo invalidation.

        The memo is keyed on the snapshot file stems, which :meth:`resolve`
        re-derives from disk on every call — so an evicted snapshot can
        never be *served* from the memo.  But without pruning here, an
        environment whose snapshots were all evicted would retain its merged
        canonical map in memory indefinitely; dropping every memo entry
        whose recorded inputs are no longer fully on disk keeps the memo an
        honest mirror of the store.
        """
        removed = super().evict(max_bytes=max_bytes, max_age_s=max_age_s)
        # getattr: RunStore.__init__ runs the construction-time sweep before
        # this subclass has built its memo.
        memo = getattr(self, "_canonical", None)
        if removed and memo:
            for environment_id, (inputs, _) in list(memo.items()):
                if any(not self.path_for(stem).exists() for stem in inputs[0]):
                    memo.pop(environment_id, None)
        return removed

    # ------------------------------------------------------------- internals

    def _sweep_stale_generations(self) -> None:
        """Remove snapshot directories left behind by previous code versions.

        A generation directory whose newest snapshot exceeds the age bound
        is dead weight: its maps can only ever be served by code that no
        longer exists.  Only children shaped like generation directories
        are considered — anything else under a user-supplied root is left
        untouched.  With the age bound disabled the sweep is skipped
        (unbounded means unbounded).
        """
        if self.max_age_s is None or not self.base_root.is_dir():
            return
        now = time.time()
        for child in self.base_root.iterdir():
            if (not child.is_dir() or child == self.root
                    or not _GENERATION_DIR.match(child.name)):
                continue
            try:
                newest = max((entry.stat().st_mtime for entry in child.glob("*.pkl")),
                             default=child.stat().st_mtime)
                if now - newest > self.max_age_s:
                    shutil.rmtree(child, ignore_errors=True)
            except OSError:
                continue

    def _snapshot_keys(self, environment_id: str) -> List[str]:
        # Queries validate too: an id with glob metacharacters or an
        # embedded delimiter would otherwise capture other environments.
        _validate_environment(environment_id)
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob(f"{environment_id}__*.pkl"))
