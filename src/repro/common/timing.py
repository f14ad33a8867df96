"""Latency accounting used throughout the characterization pipeline.

The paper characterizes not just mean latency but also *latency variation*
(relative standard deviation, Fig. 5 and Figs. 9-11).  These records give a
uniform way to attach per-kernel latencies to each processed frame, whether
the latency comes from measuring the Python implementation or from the
analytical accelerator model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import numpy as np


@dataclass
class KernelTiming:
    """Latency of one kernel (in milliseconds) within one frame."""

    name: str
    milliseconds: float

    def __post_init__(self) -> None:
        self.milliseconds = float(self.milliseconds)


@dataclass
class LatencyRecord:
    """Per-frame latency decomposition into frontend and backend kernels."""

    frame_index: int
    frontend: Dict[str, float] = field(default_factory=dict)
    backend: Dict[str, float] = field(default_factory=dict)
    mode: str = ""

    def add_frontend(self, name: str, milliseconds: float) -> None:
        self.frontend[name] = self.frontend.get(name, 0.0) + float(milliseconds)

    def add_backend(self, name: str, milliseconds: float) -> None:
        self.backend[name] = self.backend.get(name, 0.0) + float(milliseconds)

    @property
    def frontend_total(self) -> float:
        return float(sum(self.frontend.values()))

    @property
    def backend_total(self) -> float:
        return float(sum(self.backend.values()))

    @property
    def total(self) -> float:
        return self.frontend_total + self.backend_total

    def kernel(self, name: str) -> float:
        """Latency of a named kernel, searching frontend then backend."""
        if name in self.frontend:
            return self.frontend[name]
        return self.backend.get(name, 0.0)

    def scaled(self, frontend_factor: float = 1.0, backend_factor: float = 1.0) -> "LatencyRecord":
        """Return a copy with frontend/backend latencies scaled uniformly."""
        return LatencyRecord(
            frame_index=self.frame_index,
            frontend={k: v * frontend_factor for k, v in self.frontend.items()},
            backend={k: v * backend_factor for k, v in self.backend.items()},
            mode=self.mode,
        )


class TimingStats:
    """Summary statistics over a collection of latencies (milliseconds)."""

    def __init__(self, values: Iterable[float]):
        self.values = np.asarray(list(values), dtype=float)

    @property
    def count(self) -> int:
        return int(self.values.size)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values.size else 0.0

    @property
    def std(self) -> float:
        return float(np.std(self.values)) if self.values.size else 0.0

    @property
    def minimum(self) -> float:
        return float(np.min(self.values)) if self.values.size else 0.0

    @property
    def maximum(self) -> float:
        return float(np.max(self.values)) if self.values.size else 0.0

    @property
    def rsd(self) -> float:
        """Relative standard deviation (percent), a.k.a. coefficient of variation."""
        if self.mean <= 0.0:
            return 0.0
        return 100.0 * self.std / self.mean

    @property
    def worst_to_best_ratio(self) -> float:
        """Ratio of the longest to the shortest latency (Sec. IV-B)."""
        if self.minimum <= 0.0:
            return float("inf") if self.maximum > 0 else 1.0
        return self.maximum / self.minimum

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.values, q)) if self.values.size else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "rsd": self.rsd,
        }


class _Section:
    """One timed ``with`` block of a :class:`StopwatchCollector`; a block
    that raises is still timed."""

    __slots__ = ("collector", "name", "start")

    def __init__(self, collector: "StopwatchCollector", name: str) -> None:
        self.collector = collector
        self.name = name

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        elapsed_ms = (time.perf_counter() - self.start) * 1000.0
        self.collector.timings.append(KernelTiming(self.name, elapsed_ms))


class StopwatchCollector:
    """Collects wall-clock timings of named code sections for one frame."""

    def __init__(self) -> None:
        self.timings: List[KernelTiming] = []

    def measure(self, name: str) -> _Section:
        return _Section(self, name)

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for timing in self.timings:
            out[timing.name] = out.get(timing.name, 0.0) + timing.milliseconds
        return out

    def total(self) -> float:
        return float(sum(t.milliseconds for t in self.timings))

    def reset(self) -> None:
        self.timings = []
