"""The serving benchmark's workloads, and the isolation every run starts with.

A workload turns a ``--seed`` into concrete fleets and the engine that
serves them.  :func:`prepare` is the set-up phase (imports, engine and
store construction, fleet generation); :meth:`Pass.serve` serves every wave
of one pass and returns the reports.  Every pass gets fresh engines and
fresh store roots, so passes of one seed serve identical inputs and must
produce identical report signatures.

This module imports nothing from ``repro`` at import time: callers run
:func:`isolate` first, so no ``EUDOXUS_*`` knob from the caller's
environment reaches the program, and the import cost lands inside the timed
set-up of :func:`prepare`.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence

#: The checkout root (this file lives in ``<root>/servbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Store roots and temp files of a run, inside the checkout.
WORK_DIR = ROOT / ".servbench-work"

DEADLINE_MS = 400.0
SEGMENT_S = 2.4
# Short segments build small maps; the permissive quality gate (as in
# benchmarks/test_map_reuse.py) makes the cold wave's maps servable.
MAP_GATE = 0.05
# A displacement burst large enough to trip map_stale demotion.
DRIFT = dict(drift_m=2.0, drift_fraction=0.4, drift_seed=7)
# The shared worlds are fixed and the seed varies the sessions: the drift
# burst then trips the same lifecycle on every seed, which keeps the
# accuracy metric steady across seeds.
LIFECYCLE_ENVIRONMENT = "bench-depot"
SHARDED_ENVIRONMENTS = ("bench-atrium", "bench-warehouse")
MIXED_SESSIONS = 16
LIFECYCLE_SESSIONS = 6
LIFECYCLE_EXPLORE_SEGMENTS = 2
SHARDED_SESSIONS = 16
SHARDS = 2
# The host-speed probe (see probe_host_speed) and its time on the
# reference host (2-vCPU x86_64 VM) when no neighbour contends for it.
PROBE_ITERATIONS = 1000
PROBE_REPEATS = 5
PROBE_REFERENCE_S = 0.010
# The probe slows down more than the serving code when neighbours contend
# (about 1.9x against 1.7x on the reference host), so its speed ratio is
# damped by this exponent, fitted over 80 ten-seed runs to minimise the
# worst spread of frames_per_s.
PROBE_EXPONENT = 0.7


def isolate() -> None:
    """Make the program see a clean environment and the checkout's source.

    Every ``EUDOXUS_*`` variable is dropped: ``EUDOXUS_TRACE``,
    ``EUDOXUS_TRACE_KERNELS`` and ``EUDOXUS_RECORDER`` would otherwise turn a
    developer's shell into silent instrumentation overhead, and the store,
    staleness and worker knobs would change what is measured.  The
    cluster's process width is then pinned to the shard count, so
    ``sharded_waves`` fans out to the same width on any host.

    Every serving process gets one BLAS thread: the engine's parallelism is
    one process per core (shards), and a BLAS pool per process on top of
    that oversubscribes the cores and makes the timings follow whatever
    else the host runs.  Store roots and temp files go under the checkout.
    Must run before ``numpy`` is imported.
    """
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"servbench: no program source at {SRC / 'repro'}")
    for name in [name for name in os.environ if name.startswith("EUDOXUS_")]:
        del os.environ[name]
    os.environ["EUDOXUS_MAX_WORKERS"] = str(SHARDS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    WORK_DIR.mkdir(exist_ok=True)
    os.environ["EUDOXUS_RUN_CACHE"] = str(WORK_DIR / "default-runs")
    os.environ["EUDOXUS_MAP_CACHE"] = str(WORK_DIR / "default-maps")
    os.environ["TMPDIR"] = str(WORK_DIR)
    import tempfile
    tempfile.tempdir = str(WORK_DIR)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fleet_seed(seed: int, wave: int) -> int:
    """Base seed of one wave's fleet (streams add 1000 per session)."""
    return 1_000_000 * int(seed) + 100_000 * wave


@dataclass
class Wave:
    label: str
    fleet: Sequence


def probe_host_speed() -> float:
    """Seconds a fixed loop of interpreter work and small solves takes now.

    The loop has the instruction mix of the localization kernels (small
    dense solves, dicts, lists), but it lives here, so no change to the
    program can speed it up.  Its time tracks how fast the host is running
    at the moment, which on a shared VM swings by up to 1.8x for seconds to
    minutes at a time.  The median of a few repeats ignores one-off stalls.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    jacobian = rng.normal(size=(12, 6))
    residual = rng.normal(size=12)
    identity = np.eye(6)
    times = []
    for _ in range(PROBE_REPEATS):
        state = {}
        started = time.perf_counter()
        for index in range(PROBE_ITERATIONS):
            hessian = jacobian.T @ jacobian + identity
            step = np.linalg.solve(hessian, jacobian.T @ residual)
            state[index % 64] = (float(step[0]), [index, index + 1], {"index": index})
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def speed_factor(probe_seconds: Sequence[float]) -> float:
    """Reference-host seconds per measured second, from probes around a span."""
    mean_probe = sum(probe_seconds) / len(probe_seconds)
    return (PROBE_REFERENCE_S / mean_probe) ** PROBE_EXPONENT


@dataclass
class Pass:
    """One pass of a workload: its engine and the waves it serves in order."""

    engine: object
    waves: List[Wave]
    serve_walls: List[float] = field(default_factory=list)
    speed_factors: List[float] = field(default_factory=list)

    def serve(self) -> List[object]:
        """Serve every wave, timing each ``serve()`` call from outside.

        The host-speed probe runs between waves (outside the timed calls);
        each wave's speed factor comes from the probes on either side.
        """
        reports = []
        probe = probe_host_speed()
        for wave in self.waves:
            started = time.perf_counter()
            reports.append(self.engine.serve(wave.fleet))
            self.serve_walls.append(time.perf_counter() - started)
            after = probe_host_speed()
            self.speed_factors.append(speed_factor((probe, after)))
            probe = after
        return reports


def _mixed_fleet(seed: int, root: Path) -> Pass:
    from repro.scheduler import LatencyAutoscaler
    from repro.serving import ServingEngine, mixed_fleet

    engine = ServingEngine(store=None, max_workers=1,
                           autoscaler=LatencyAutoscaler(min_workers=1, max_workers=8))
    fleet = mixed_fleet(MIXED_SESSIONS, base_seed=fleet_seed(seed, 0),
                        segment_duration=SEGMENT_S, deadline_ms=DEADLINE_MS)
    return Pass(engine, [Wave("mixed", fleet)])


def _map_lifecycle(seed: int, root: Path) -> Pass:
    from repro.maps import MapStore
    from repro.scheduler import LatencyAutoscaler
    from repro.serving import ServingEngine, drifting_environment_fleet

    engine = ServingEngine(
        store=None, max_workers=1,
        autoscaler=LatencyAutoscaler(min_workers=1, max_workers=8),
        map_store=MapStore(root / "maps", max_bytes=-1, max_age_s=-1),
        min_map_quality=MAP_GATE)
    waves = []
    for index, (label, drift) in enumerate((("cold", {}), ("warm", {}),
                                            ("drift", DRIFT))):
        waves.append(Wave(label, drifting_environment_fleet(
            LIFECYCLE_SESSIONS, environment=LIFECYCLE_ENVIRONMENT,
            base_seed=fleet_seed(seed, index), segment_duration=SEGMENT_S,
            explore_segments=LIFECYCLE_EXPLORE_SEGMENTS, prefix=label,
            deadline_ms=DEADLINE_MS, **drift)))
    return Pass(engine, waves)


def _sharded_waves(seed: int, root: Path) -> Pass:
    from repro.cluster import ShardedServingEngine
    from repro.experiments.runner import RunStore
    from repro.maps import MapStore
    from repro.scheduler import LatencyAutoscaler
    from repro.serving import multi_environment_fleet

    engine = ShardedServingEngine(
        SHARDS,
        run_store=RunStore(root / "runs", max_bytes=-1, max_age_s=-1),
        map_store=MapStore(root / "maps", max_bytes=-1, max_age_s=-1),
        min_map_quality=MAP_GATE,
        autoscaler_factory=lambda shard: LatencyAutoscaler(min_workers=1,
                                                           max_workers=4),
        max_workers_per_shard=1,
        shard_parallel=True)
    waves = [Wave(f"wave{index}", multi_environment_fleet(
        SHARDED_SESSIONS, environments=SHARDED_ENVIRONMENTS,
        base_seed=fleet_seed(seed, index), segment_duration=SEGMENT_S,
        deadline_ms=DEADLINE_MS, prefix=f"w{index}"))
        for index in range(3)]
    return Pass(engine, waves)


_FACTORIES = {
    "mixed_fleet": _mixed_fleet,
    "map_lifecycle": _map_lifecycle,
    "sharded_waves": _sharded_waves,
}
WORKLOADS = tuple(_FACTORIES)


def prepare(workload: str, seed: int, root: Path) -> Pass:
    """Set-up: construct a fresh engine on fresh stores under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    return _FACTORIES[workload](seed, root)
