"""Parallel experiment engine with a persistent on-disk run cache.

Every figure and table in the paper is derived from the same kind of unit of
work: run the unified framework, pinned to one backend mode, over one
synthetic sequence — a *cell* of the experiment grid
(scenario x mode x frame rate x platform x seed).  This module makes that
unit explicit and gives it three execution layers:

1. an in-process memo (the same object is returned for repeated requests
   within one session, which the figure drivers rely on),
2. a content-hash-keyed on-disk :class:`RunStore`, so repeated benchmark
   sessions skip recomputation entirely, and
3. a ``ProcessPoolExecutor`` fan-out for grids with many cold cells, with
   deterministic per-cell seeds so serial and parallel execution produce
   identical results.

Cache keys cover every cell parameter *and* a fingerprint of the full
localizer/sensor configuration, so editing any config default invalidates
exactly the affected entries.  Corrupted or unreadable entries are dropped
and recomputed transparently.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import LocalizerConfig, SensorConfig
from repro.core.framework import EudoxusLocalizer
from repro.core.modes import BackendMode
from repro.core.result import TrajectoryResult
from repro.hardware.platform import EDX_CAR, EDX_DRONE, EudoxusPlatform
from repro.sensors.dataset import SequenceBuilder, SyntheticSequence
from repro.sensors.scenarios import ScenarioKind, scenario_catalog

# Default characterization length.  The paper profiles 1,800 frames; we use a
# shorter sequence by default so the whole benchmark suite stays tractable in
# pure Python, and expose the length as a parameter for longer runs.
DEFAULT_DURATION_S = 20.0
DEFAULT_LANDMARKS = 300

# Bump when the result schema or the meaning of a cell changes; every key
# embeds this so stale stores from older code are never reused.
CACHE_SCHEMA_VERSION = 1

RUN_CACHE_ENV = "EUDOXUS_RUN_CACHE"
MAX_WORKERS_ENV = "EUDOXUS_MAX_WORKERS"
# Store eviction bounds (satellite of the serving PR): the store is LRU-bounded
# by total size and entry age so keys rotated by code changes don't grow it
# without bound.  A value <= 0 disables the corresponding bound.
STORE_MAX_MB_ENV = "EUDOXUS_RUN_CACHE_MAX_MB"
STORE_MAX_AGE_DAYS_ENV = "EUDOXUS_RUN_CACHE_MAX_AGE_DAYS"
DEFAULT_STORE_MAX_MB = 512.0
DEFAULT_STORE_MAX_AGE_DAYS = 30.0

_SEQUENCE_CACHE: Dict[Tuple, SyntheticSequence] = {}


def resolve_max_workers(max_workers: Optional[int] = None) -> int:
    """Worker-pool width: explicit value, else ``EUDOXUS_MAX_WORKERS``, else CPUs."""
    if max_workers is None:
        env = os.environ.get(MAX_WORKERS_ENV, "").strip()
        try:
            max_workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            # A malformed override should not take the whole session down.
            max_workers = os.cpu_count() or 1
    return max(1, int(max_workers))


def fan_out(fn, payloads: Sequence[Dict], max_workers: int, on_pool=None):
    """Yield ``(index, result)`` for each payload as it completes.

    ``fn`` must be a module-level function of one picklable payload so it can
    cross the process boundary.  Results are yielded in completion order, so
    callers can persist each one immediately.  Only a pool failure falls
    back to in-process execution: when no pool can be created or fed
    (restricted sandbox, missing semaphores...) or a worker dies
    (``BrokenProcessPool``: OOM kill, ``os._exit``), the payloads whose
    results were lost are computed in-process instead.  An exception raised
    by ``fn`` itself propagates unchanged after exactly one run.  ``on_pool``
    is called once when a pool actually answered, so callers can keep
    honest parallelism statistics.  Both the experiment runner and the
    sharded serving coordinator fan their work out through this single
    helper.
    """
    pending = list(range(len(payloads)))
    if max_workers > 1 and len(payloads) > 1:
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(max_workers, len(payloads)))
        except (OSError, RuntimeError):
            executor = None
        if executor is not None:
            with executor:
                index_of = {}
                try:
                    for index in pending:
                        index_of[executor.submit(fn, payloads[index])] = index
                except (OSError, RuntimeError):
                    pass  # the unsubmitted payloads run in-process below
                for future in as_completed(index_of):
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        continue  # lost with its worker: rerun in-process
                    if on_pool is not None:
                        # Only after the first result actually came back
                        # from a worker: under the spawn start method the
                        # pool's failure surfaces here, not at submit, and
                        # a run that falls back serially must not be
                        # counted as parallel execution.
                        on_pool()
                        on_pool = None
                    index = index_of[future]
                    pending.remove(index)
                    yield index, result
    for index in pending:
        yield index, fn(payloads[index])


# --------------------------------------------------------------- primitives


def platform_for(kind: str) -> EudoxusPlatform:
    """Look up a platform by short name ("car" or "drone")."""
    if kind == "car":
        return EDX_CAR
    if kind == "drone":
        return EDX_DRONE
    raise ValueError(f"unknown platform kind: {kind}")


def sensor_config_for(platform_kind: str, camera_rate_hz: float = 10.0,
                      seed: int = 0) -> SensorConfig:
    """Sensor configuration matching one of the two deployments."""
    platform = platform_for(platform_kind)
    return SensorConfig(
        image_width=platform.image_width,
        image_height=platform.image_height,
        stereo_baseline=0.4 if platform_kind == "car" else 0.2,
        camera_rate_hz=camera_rate_hz,
        seed=seed,
    )


def localizer_config_for(platform_kind: str) -> LocalizerConfig:
    return LocalizerConfig.car_default() if platform_kind == "car" else LocalizerConfig.drone_default()


def build_sequence(scenario_kind: ScenarioKind, platform_kind: str = "car",
                   duration: float = DEFAULT_DURATION_S, camera_rate_hz: float = 10.0,
                   landmark_count: int = DEFAULT_LANDMARKS, seed: int = 0) -> SyntheticSequence:
    """Build (and cache in-process) a synthetic sequence for a scenario."""
    key = (scenario_kind, platform_kind, round(duration, 3), round(camera_rate_hz, 3), landmark_count, seed)
    if key not in _SEQUENCE_CACHE:
        catalog = scenario_catalog(duration=duration, landmark_count=landmark_count)
        builder = SequenceBuilder(sensor_config_for(platform_kind, camera_rate_hz, seed))
        _SEQUENCE_CACHE[key] = builder.build(catalog[scenario_kind])
    return _SEQUENCE_CACHE[key]


# --------------------------------------------------------------------- cells


@dataclass(frozen=True)
class ExperimentCell:
    """One unit of experimental work: a (scenario, mode, workload) point.

    ``mode`` of ``None`` lets the framework's mode selector pick the backend
    per frame (the mixed-deployment configuration); a concrete
    :class:`BackendMode` pins the backend, as the characterization runs do.
    """

    scenario: ScenarioKind
    mode: Optional[BackendMode] = None
    platform_kind: str = "car"
    duration: float = DEFAULT_DURATION_S
    camera_rate_hz: float = 10.0
    landmark_count: int = DEFAULT_LANDMARKS
    seed: int = 0

    def payload(self) -> Dict:
        """JSON-serializable description of the cell (used for hashing/IPC)."""
        return {
            "scenario": self.scenario.value,
            "mode": self.mode.value if self.mode is not None else None,
            "platform_kind": self.platform_kind,
            "duration": round(float(self.duration), 6),
            "camera_rate_hz": round(float(self.camera_rate_hz), 6),
            "landmark_count": int(self.landmark_count),
            "seed": int(self.seed),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "ExperimentCell":
        return cls(
            scenario=ScenarioKind(payload["scenario"]),
            mode=BackendMode(payload["mode"]) if payload["mode"] is not None else None,
            platform_kind=payload["platform_kind"],
            duration=payload["duration"],
            camera_rate_hz=payload["camera_rate_hz"],
            landmark_count=payload["landmark_count"],
            seed=payload["seed"],
        )


@dataclass
class ExperimentGrid:
    """A cartesian experiment grid that expands into :class:`ExperimentCell`s.

    ``modes`` may contain ``None`` (auto mode selection).  When
    ``skip_inapplicable`` is set, registration cells are dropped for
    scenarios without a map — matching the paper's note that registration
    does not apply there.
    """

    scenarios: Sequence[ScenarioKind] = tuple(ScenarioKind)
    modes: Sequence[Optional[BackendMode]] = (None,)
    platform_kinds: Sequence[str] = ("car",)
    frame_rates: Sequence[float] = (10.0,)
    duration: float = DEFAULT_DURATION_S
    landmark_count: int = DEFAULT_LANDMARKS
    seeds: Sequence[int] = (0,)
    skip_inapplicable: bool = True

    def expand(self) -> List[ExperimentCell]:
        """All cells of the grid, in deterministic iteration order."""
        cells: List[ExperimentCell] = []
        for platform_kind in self.platform_kinds:
            for scenario in self.scenarios:
                for mode in self.modes:
                    if (self.skip_inapplicable and mode is BackendMode.REGISTRATION
                            and not scenario.has_map):
                        continue
                    for rate in self.frame_rates:
                        for seed in self.seeds:
                            cells.append(ExperimentCell(
                                scenario=scenario,
                                mode=mode,
                                platform_kind=platform_kind,
                                duration=self.duration,
                                camera_rate_hz=rate,
                                landmark_count=self.landmark_count,
                                seed=seed,
                            ))
        return cells


def execute_cell(cell: ExperimentCell) -> TrajectoryResult:
    """Run one cell from scratch (no caching).

    This is a pure function of the cell parameters: the sequence, the
    localizer configuration and every random stream are derived
    deterministically from them, which is what makes serial and parallel
    execution bit-identical.
    """
    sequence = build_sequence(
        cell.scenario, cell.platform_kind, cell.duration,
        cell.camera_rate_hz, cell.landmark_count, cell.seed,
    )
    localizer = EudoxusLocalizer(localizer_config_for(cell.platform_kind), mode_override=cell.mode)
    return localizer.process_sequence(sequence)


def _execute_payload(payload: Dict) -> TrajectoryResult:
    """Process-pool entry point (payload dicts pickle smaller than cells)."""
    return execute_cell(ExperimentCell.from_payload(payload))


# --------------------------------------------------------------- disk store


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of the whole ``repro`` package source, computed once per process.

    Embedding this in every cache key means any code change — not just a
    config change — invalidates the persistent store, so cached results can
    never mask a behavioral difference between two versions of the pipeline.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


@lru_cache(maxsize=16)
def _localizer_config_payload(factory, platform_kind: str) -> Dict:
    """``asdict`` of a platform's localizer defaults, built once per factory.

    The defaults are code, so they only change when the factory itself is
    replaced (as a test does to simulate a config change) — hence the
    factory is part of the key.  The dict is only ever serialized, never
    mutated.
    """
    return asdict(factory(platform_kind))


def config_fingerprint(platform_kind: str, camera_rate_hz: float, seed: int) -> str:
    """Stable hash of the full configuration a cell runs under.

    Any change to a configuration default — sensor noise models, filter
    windows, solver settings — changes the fingerprint and therefore
    invalidates exactly the cache entries that depended on it.
    """
    payload = {
        "localizer": _localizer_config_payload(localizer_config_for, platform_kind),
        "sensors": asdict(sensor_config_for(platform_kind, camera_rate_hz, seed)),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def default_store_root() -> Path:
    override = os.environ.get(RUN_CACHE_ENV, "").strip()
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "eudoxus-repro" / "runs"


def _bound_from_env(env_name: str, default: float, scale: float) -> Optional[float]:
    """Parse a store bound from the environment; <= 0 disables the bound."""
    raw = os.environ.get(env_name, "").strip()
    try:
        value = float(raw) if raw else float(default)
    except ValueError:
        value = float(default)
    if value <= 0:
        return None
    return value * scale


class RunStore:
    """Content-addressed on-disk store of pickled results.

    Cell-level entries hold :class:`TrajectoryResult` objects; the serving
    layer stores whole session results through the generic
    :meth:`load_key` / :meth:`save_key` interface under its own keys.
    Entries are written atomically (temp file + rename) so a crashed or
    interrupted run never leaves a half-written entry behind, and unreadable
    entries are treated as misses and deleted.

    The store is a bounded LRU: every hit refreshes the entry's mtime, and
    entries beyond ``max_bytes`` of total size (oldest first) or older than
    ``max_age_s`` are evicted on construction and on :meth:`evict`.  Bounds
    default to ``EUDOXUS_RUN_CACHE_MAX_MB`` / ``EUDOXUS_RUN_CACHE_MAX_AGE_DAYS``
    (512 MB / 30 days); pass or set a value <= 0 to disable a bound.  This
    keeps keys rotated by code or config changes from growing the store
    without bound.

    Subclasses that persist other artifact families (the fleet map store in
    :mod:`repro.maps`) override the class attributes below to get their own
    root, environment overrides and default bounds while sharing the
    atomic-write / corruption-recovery / LRU machinery.
    """

    MAX_MB_ENV = STORE_MAX_MB_ENV
    MAX_AGE_DAYS_ENV = STORE_MAX_AGE_DAYS_ENV
    DEFAULT_MAX_MB = DEFAULT_STORE_MAX_MB
    DEFAULT_MAX_AGE_DAYS = DEFAULT_STORE_MAX_AGE_DAYS
    # Metric-name prefix for bind_metrics: subclasses persisting other
    # artifact families (the fleet map store) override this so their
    # hit/miss/eviction counters land in their own Prometheus families.
    METRICS_PREFIX = "eudoxus_run_store"

    @classmethod
    def default_root(cls) -> Path:
        return default_store_root()

    def __init__(self, root: Optional[os.PathLike] = None,
                 max_bytes: Optional[float] = None,
                 max_age_s: Optional[float] = None) -> None:
        self.root = Path(root) if root is not None else self.default_root()
        self.max_bytes = (_bound_from_env(self.MAX_MB_ENV, self.DEFAULT_MAX_MB, 1024.0 * 1024.0)
                          if max_bytes is None else (max_bytes if max_bytes > 0 else None))
        self.max_age_s = (_bound_from_env(self.MAX_AGE_DAYS_ENV, self.DEFAULT_MAX_AGE_DAYS, 86400.0)
                          if max_age_s is None else (max_age_s if max_age_s > 0 else None))
        self.hits = 0
        self.misses = 0
        self.dropped = 0  # corrupted entries removed
        self.evicted = 0  # entries removed by the LRU bounds
        # Observability (repro.obs): unbound until bind_metrics — every
        # instrumentation site is guarded by a None check.
        self.metrics = None
        self._m_lookups = None
        self._m_evicted = None
        self._sweep_stale_tmp()
        self.evict()

    def bind_metrics(self, registry) -> None:
        """Register this store's lookup/eviction counters with a
        :class:`repro.obs.MetricsRegistry` (idempotent)."""
        prefix = self.METRICS_PREFIX
        self.metrics = registry
        self._m_lookups = registry.counter(
            f"{prefix}_lookups_total",
            "Store lookups by outcome (hit, miss, dropped = corrupt entry).",
            ("outcome",))
        self._m_evicted = registry.counter(
            f"{prefix}_evicted_total",
            "Entries removed by the LRU size/age bounds.")

    def _sweep_stale_tmp(self, max_age_s: float = 3600.0) -> None:
        """Remove temp files left behind by writers that died mid-save.

        Only files older than ``max_age_s`` are removed, so a sweep never
        races a live writer in another process that is between writing its
        temp file and renaming it into place.
        """
        if not self.root.is_dir():
            return
        now = time.time()
        for stale in self.root.glob("*.tmp.*"):
            try:
                if now - stale.stat().st_mtime > max_age_s:
                    stale.unlink()
            except OSError:
                pass

    def key_for(self, cell: ExperimentCell) -> str:
        payload = cell.payload()
        payload["schema"] = CACHE_SCHEMA_VERSION
        payload["code"] = code_fingerprint()
        payload["config"] = config_fingerprint(cell.platform_kind, cell.camera_rate_hz, cell.seed)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def path_for(self, cell_or_key) -> Path:
        key = cell_or_key if isinstance(cell_or_key, str) else self.key_for(cell_or_key)
        return self.root / f"{key}.pkl"

    def load(self, cell: ExperimentCell) -> Optional[TrajectoryResult]:
        return self.load_key(self.key_for(cell), expect=TrajectoryResult)

    def save(self, cell: ExperimentCell, result: TrajectoryResult) -> Optional[Path]:
        return self.save_key(self.key_for(cell), result)

    def load_key(self, key: str, expect: type = object):
        """Load any stored object by key (None on miss or corruption)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
            if not isinstance(result, expect):
                raise TypeError(f"unexpected cache payload: {type(result)!r}")
        except FileNotFoundError:
            self.misses += 1
            if self._m_lookups is not None:
                self._m_lookups.inc(outcome="miss")
            return None
        except Exception:
            # Corrupted, truncated or written by an incompatible version:
            # drop the entry and recompute.
            self.dropped += 1
            self.misses += 1
            if self._m_lookups is not None:
                self._m_lookups.inc(outcome="dropped")
                self._m_lookups.inc(outcome="miss")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        if self._m_lookups is not None:
            self._m_lookups.inc(outcome="hit")
        try:
            # Refresh recency so the LRU eviction keeps hot entries alive.
            os.utime(path)
        except OSError:
            pass
        return result

    def save_key(self, key: str, result) -> Optional[Path]:
        path = self.path_for(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            try:
                with open(tmp, "wb") as handle:
                    pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                # Unpicklable payloads and interrupts propagate, but must
                # not leave the half-written temp file behind.
                self._try_unlink(tmp)
                raise
        except OSError:
            # The store is a cache: an unwritable root (read-only disk, bad
            # EUDOXUS_RUN_CACHE path) must never lose a computed result.
            return None
        return path

    def evict(self, max_bytes: Optional[float] = None,
              max_age_s: Optional[float] = None) -> int:
        """Apply the age and size bounds; returns the number of removed entries.

        Entries are ranked by mtime (refreshed on every hit), so this is an
        LRU: age-expired entries go first, then the least-recently-used until
        the total size fits under ``max_bytes``.
        """
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        max_age_s = self.max_age_s if max_age_s is None else max_age_s
        if not self.root.is_dir() or (max_bytes is None and max_age_s is None):
            return 0
        entries = []
        for path in self.root.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first
        now = time.time()
        removed = 0
        survivors = []
        for mtime, size, path in entries:
            if max_age_s is not None and now - mtime > max_age_s:
                removed += self._try_unlink(path)
            else:
                survivors.append((mtime, size, path))
        if max_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            for _, size, path in survivors:
                if total <= max_bytes:
                    break
                removed += self._try_unlink(path)
                total -= size
        self.evicted += removed
        # getattr: the construction-time evict() runs before the metric
        # attributes exist on subclasses mid-__init__.
        evicted_metric = getattr(self, "_m_evicted", None)
        if removed and evicted_metric is not None:
            evicted_metric.inc(removed)
        return removed

    @staticmethod
    def _try_unlink(path: Path) -> int:
        try:
            path.unlink()
            return 1
        except OSError:
            return 0

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))

    def clear(self) -> None:
        if not self.root.is_dir():
            return
        for path in self.root.glob("*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
        self._sweep_stale_tmp(max_age_s=-1.0)


# -------------------------------------------------------------------- runner


@dataclass
class RunnerStats:
    """Where each requested cell came from during this runner's lifetime."""

    memory_hits: int = 0
    disk_hits: int = 0
    computed: int = 0
    parallel_batches: int = 0


class ExperimentRunner:
    """Executes experiment cells through memo -> disk store -> computation.

    ``max_workers`` caps the process-pool fan-out; with one worker (or one
    cold cell) everything runs serially in-process, which is also the
    fallback whenever a pool cannot be spawned.  Results are identical
    either way.
    """

    def __init__(self, store: Optional[RunStore] = None, max_workers: Optional[int] = None) -> None:
        self.store = store
        self.max_workers = resolve_max_workers(max_workers)
        self.stats = RunnerStats()
        self._memory: Dict[str, TrajectoryResult] = {}

    # ------------------------------------------------------------- execution

    def _memo_key(self, cell: ExperimentCell) -> str:
        # The config fingerprint is part of the key (as on disk) so an
        # in-session config change can never resurface a stale memo entry.
        payload = cell.payload()
        payload["config"] = config_fingerprint(cell.platform_kind, cell.camera_rate_hz, cell.seed)
        return json.dumps(payload, sort_keys=True)

    def run_cell(self, cell: ExperimentCell) -> TrajectoryResult:
        return self.run_cells([cell])[cell]

    def run_cells(self, cells: Sequence[ExperimentCell]) -> Dict[ExperimentCell, TrajectoryResult]:
        """Resolve every cell, computing cold ones (in parallel when it pays)."""
        results: Dict[ExperimentCell, TrajectoryResult] = {}
        cold: List[ExperimentCell] = []
        queued = set()
        for cell in cells:
            if cell in results or cell in queued:
                continue
            memo_key = self._memo_key(cell)
            cached = self._memory.get(memo_key)
            if cached is not None:
                self.stats.memory_hits += 1
                results[cell] = cached
                continue
            if self.store is not None:
                stored = self.store.load(cell)
                if stored is not None:
                    self.stats.disk_hits += 1
                    self._memory[memo_key] = stored
                    results[cell] = stored
                    continue
            cold.append(cell)
            queued.add(cell)

        for cell, result in self._execute_cold(cold):
            self.stats.computed += 1
            self._memory[self._memo_key(cell)] = result
            if self.store is not None:
                self.store.save(cell, result)
            results[cell] = result
        return results

    # ------------------------------------------------------------- internals

    def _execute_cold(self, cells: List[ExperimentCell]):
        """Yield ``(cell, result)`` as each cold cell finishes.

        Completed results reach the caller (and therefore the disk store)
        one by one, so a crash or pool failure late in a batch cannot throw
        away earlier work; when the pool dies mid-batch only the cells that
        have not been yielded yet are recomputed serially.
        """
        def _count_batch() -> None:
            self.stats.parallel_batches += 1

        # Completion order, so every finished result is persisted immediately
        # even while slower cells are still running; fan_out falls back to
        # in-process execution when no pool can be spawned (such batches are
        # not counted as parallel).
        for index, result in fan_out(_execute_payload, [cell.payload() for cell in cells],
                                     self.max_workers, on_pool=_count_batch):
            yield cells[index], result
