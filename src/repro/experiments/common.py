"""Shared experiment infrastructure: datasets, cached runs and models.

The characterization and acceleration experiments all start from the same
kind of run: the unified framework pinned to one backend mode, processing a
synthetic sequence representative of the scenario that prefers that mode
(Fig. 2).  Execution is delegated to :mod:`repro.experiments.runner`: runs
are memoized per process (so the many figures sharing a characterization
only pay for it once), persisted to a content-hash-keyed on-disk store (so
repeated benchmark sessions skip recomputation entirely), and fanned out
across worker processes when several cold cells are requested at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.cpu import CpuLatencyModel
from repro.common.timing import LatencyRecord
from repro.core.modes import BackendMode
from repro.core.result import TrajectoryResult
from repro.experiments.runner import (
    DEFAULT_DURATION_S,
    DEFAULT_LANDMARKS,
    ExperimentCell,
    ExperimentRunner,
    RunStore,
    platform_for,
)
from repro.hardware.accelerator import EudoxusAccelerator
from repro.sensors.scenarios import ScenarioKind

# The scenario each backend mode is characterized on (its preferred
# environment from Fig. 2).
MODE_SCENARIO: Dict[BackendMode, ScenarioKind] = {
    BackendMode.REGISTRATION: ScenarioKind.INDOOR_KNOWN,
    BackendMode.VIO: ScenarioKind.OUTDOOR_UNKNOWN,
    BackendMode.SLAM: ScenarioKind.INDOOR_UNKNOWN,
}

# The process-wide default runner every experiment driver shares.
_default_runner: Optional[ExperimentRunner] = None


def default_runner() -> ExperimentRunner:
    """The shared :class:`ExperimentRunner` (created on first use)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner(store=RunStore())
    return _default_runner


def characterization_cell(mode: Optional[BackendMode], platform_kind: str = "car",
                          duration: float = DEFAULT_DURATION_S, camera_rate_hz: float = 10.0,
                          landmark_count: int = DEFAULT_LANDMARKS, seed: int = 0,
                          scenario_kind: Optional[ScenarioKind] = None) -> ExperimentCell:
    """The experiment cell describing one characterization run."""
    if scenario_kind is None:
        if mode is None:
            raise ValueError("either a mode or an explicit scenario is required")
        scenario_kind = MODE_SCENARIO[mode]
    return ExperimentCell(
        scenario=scenario_kind,
        mode=mode,
        platform_kind=platform_kind,
        duration=duration,
        camera_rate_hz=camera_rate_hz,
        landmark_count=landmark_count,
        seed=seed,
    )


def all_mode_runs(platform_kind: str = "car", duration: float = DEFAULT_DURATION_S,
                  camera_rate_hz: float = 10.0, seed: int = 0) -> Dict[BackendMode, TrajectoryResult]:
    """Characterization runs for all three modes on one platform.

    The three cells are requested as one batch so cold runs can fan out
    across worker processes.
    """
    modes = (BackendMode.REGISTRATION, BackendMode.VIO, BackendMode.SLAM)
    cells = {mode: characterization_cell(mode, platform_kind, duration, camera_rate_hz, seed=seed)
             for mode in modes}
    results = default_runner().run_cells(list(cells.values()))
    return {mode: results[cell] for mode, cell in cells.items()}


def prefetch_mode_runs(platform_kind: str = "car", duration: float = DEFAULT_DURATION_S,
                       seeds: Sequence[int] = (0,), camera_rate_hz: float = 10.0) -> None:
    """Request every (mode, seed) characterization cell as one batch.

    Multi-seed sweeps call this first so all cold cells fan out across the
    worker pool together instead of seed by seed.
    """
    cells = [characterization_cell(mode, platform_kind, duration, camera_rate_hz, seed=seed)
             for seed in seeds
             for mode in (BackendMode.REGISTRATION, BackendMode.VIO, BackendMode.SLAM)]
    default_runner().run_cells(cells)


def baseline_records(result: TrajectoryResult, platform_kind: str = "car") -> List[LatencyRecord]:
    """Baseline (CPU) platform latency records for a characterized run."""
    platform = platform_for(platform_kind)
    model = CpuLatencyModel(platform=platform.host)
    return model.records_from_results(result)


def accelerator_for(platform_kind: str = "car") -> EudoxusAccelerator:
    platform = platform_for(platform_kind)
    return EudoxusAccelerator(platform)
