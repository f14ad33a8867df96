"""EudoxusLocalizer: the unified frontend + multi-mode backend pipeline.

This is the software framework of Fig. 4: a shared vision frontend that is
always active, and an optimization backend that is dynamically configured
into one of three modes (registration, VIO, SLAM) depending on the operating
scenario.  The per-frame dataflow is::

    camera/IMU/GPS -> VisualFrontend -> correspondences -> active backend -> 6-DoF pose

The localizer records, for every frame, the frontend workload, the backend
workload and the measured Python latencies, which downstream models translate
into platform latencies (CPU baseline) and accelerator latencies.
"""

from __future__ import annotations

from typing import Optional

from repro.backend.base import BackendResult
from repro.backend.registration import RegistrationBackend
from repro.backend.slam import SlamBackend
from repro.backend.vio import VioBackend
from repro.common.config import LocalizerConfig
from repro.common.timing import LatencyRecord
from repro.core.modes import BackendMode, ModeSelector
from repro.core.result import PoseEstimate, TrajectoryResult
from repro.frontend.frontend import FrontendResult, VisualFrontend
from repro.sensors.dataset import Frame, SyntheticSequence


class EudoxusLocalizer:
    """The unified localization framework."""

    def __init__(self, config: Optional[LocalizerConfig] = None,
                 mode_override: Optional[BackendMode] = None) -> None:
        self.config = config or LocalizerConfig()
        self.mode_selector = ModeSelector(override=mode_override)
        self.frontend: Optional[VisualFrontend] = None
        self.registration: Optional[RegistrationBackend] = None
        self.vio: Optional[VioBackend] = None
        self.slam: Optional[SlamBackend] = None

    # -------------------------------------------------------------- set-up

    def prepare(self, sequence: SyntheticSequence) -> None:
        """Instantiate the frontend and backends for one sequence segment."""
        self.frontend = VisualFrontend(config=self.config.frontend, rig=sequence.rig)
        self.vio = VioBackend(self.config.backend, use_gps=True)
        self.slam = SlamBackend(self.config.backend, camera=sequence.rig.camera)
        if sequence.has_prebuilt_map:
            tracking = self.config.backend.tracking
            outdoor = sequence.scenario.has_gps
            self.registration = RegistrationBackend.from_world(
                sequence.world,
                config=tracking,
                camera=sequence.rig.camera,
                map_noise=tracking.survey_noise_outdoor if outdoor else tracking.survey_noise_indoor,
                map_bias_std=tracking.survey_bias_outdoor if outdoor else 0.0,
            )
        else:
            self.registration = None

    # ---------------------------------------------------------- processing

    def process_frame(self, frame: Frame, sequence: SyntheticSequence,
                      into: TrajectoryResult) -> None:
        """Process one frame through the frontend and the selected backend.

        Appends the frame's estimate, frontend summary, backend result and
        measured-latency record to ``into``.  The frame's observations stay
        behind: the backend has already consumed them.
        """
        if self.frontend is None:
            raise RuntimeError("prepare() must be called before processing frames")
        frontend_result = self.frontend.process(frame, rig=sequence.rig)
        mode = self.mode_selector.select(frame, has_map=sequence.has_prebuilt_map)
        backend_result = self._run_backend(mode, frontend_result, frame)
        record = LatencyRecord(frame_index=frame.index, mode=backend_result.mode)
        for name, value in frontend_result.measured_ms.items():
            record.add_frontend(name, value)
        for name, value in backend_result.kernel_ms.items():
            record.add_backend(name, value)
        into.estimates.append(PoseEstimate(
            frame_index=frame.index,
            timestamp=frame.timestamp,
            pose=backend_result.pose,
            mode=backend_result.mode,
            ground_truth=frame.ground_truth,
        ))
        into.frontend_results.append(frontend_result.summary())
        into.backend_results.append(backend_result)
        into.latency_records.append(record)

    def process_sequence(self, sequence: SyntheticSequence,
                         reset: bool = True) -> TrajectoryResult:
        """Run the framework over an entire sequence segment."""
        if reset or self.frontend is None:
            self.prepare(sequence)
        result = TrajectoryResult(scenario=sequence.scenario.value)
        for frame in sequence.frames:
            self.process_frame(frame, sequence, result)
        return result

    # ------------------------------------------------------------ internals

    def _run_backend(self, mode: BackendMode, frontend_result: FrontendResult,
                     frame: Frame) -> BackendResult:
        if mode is BackendMode.REGISTRATION and self.registration is not None:
            return self.registration.process(frontend_result, frame)
        if mode is BackendMode.VIO:
            return self.vio.process(frontend_result, frame)
        result = self.slam.process(frontend_result, frame)
        if mode is BackendMode.REGISTRATION:
            # No map is actually available: SLAM ran instead, which is what a
            # real deployment does when the survey map is missing.  The result
            # reports the mode that executed, with the requested mode kept in
            # the diagnostics so the fallback is observable downstream.
            result.diagnostics["fallback_from"] = BackendMode.REGISTRATION.value
        return result
