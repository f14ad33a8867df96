"""Deterministic span tracing for the serving stack.

A :class:`Tracer` is a bounded ring buffer of :class:`SpanEvent` records —
frame ingest→serve, backend solve per mode, map resolve/merge/apply, run
store hit/miss, autoscaler decisions, admission verdicts, wave dispatch —
exportable as Chrome/Perfetto trace-event JSON (:meth:`Tracer.export_chrome`)
so a serve call can be opened in a trace viewer.

Two clock domains coexist in one trace:

* ``"virtual"`` — timestamps on the serving engine's deterministic virtual
  clock (seconds since the fleet's first arrival, plus the engine's
  cross-call continuity offset).  Events in this domain are a pure function
  of the fleet: the same specs produce the identical event sequence on
  every run and — for the session-scoped categories — wherever a session
  was computed (in-process or in a shard worker) or replayed.  This
  is the domain the determinism suite pins.
* ``"wall"`` — real elapsed seconds since the tracer was created (map
  resolution, wave dispatch, the service front door, kernel profiling).
  Telemetry only; never compared across runs.

The export maps the domains to separate trace processes (pids), so a
viewer shows the deterministic schedule and the real-time costs side by
side without conflating their timelines.

Observability must be provably inert: a tracer only ever *appends to its
own buffer* — nothing in the serving stack reads one mid-flight, so spans
cannot perturb poses, mode switches or cache keys (the golden-signature
suite serves with ``EUDOXUS_TRACE=1`` to pin exactly this).  The disabled
path is a ``tracer is None`` check at every instrumentation point.

Env knobs (all off by default):

* ``EUDOXUS_TRACE=1`` — engines and the service front door construct a
  tracer automatically when none is passed.
* ``EUDOXUS_TRACE_KERNELS=1`` — hot-kernel profiling spans (see
  :mod:`repro.obs.profile`).
* ``EUDOXUS_TRACE_CAPACITY`` — ring-buffer capacity (default 65536);
  overflow drops the *oldest* events and counts them in
  :attr:`Tracer.dropped`.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "CLOCK_DOMAINS",
    "DEFAULT_TRACE_CAPACITY",
    "SpanEvent",
    "TRACE_CAPACITY_ENV",
    "TRACE_ENV",
    "TRACE_KERNELS_ENV",
    "Tracer",
    "quantize_us",
    "trace_capacity",
    "tracer_from_env",
    "tracing_enabled",
]

TRACE_ENV = "EUDOXUS_TRACE"
TRACE_KERNELS_ENV = "EUDOXUS_TRACE_KERNELS"
TRACE_CAPACITY_ENV = "EUDOXUS_TRACE_CAPACITY"
DEFAULT_TRACE_CAPACITY = 65536

CLOCK_DOMAINS = ("virtual", "wall")

# Fixed trace-process ids per clock domain (Chrome traces group by pid).
_DOMAIN_PID = {"virtual": 1, "wall": 2}
_DOMAIN_PROCESS_NAME = {"virtual": "virtual clock", "wall": "wall clock"}


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "no")


def tracing_enabled() -> bool:
    """Whether ``EUDOXUS_TRACE`` asks for automatic tracer construction."""
    return _env_truthy(TRACE_ENV)


def trace_capacity() -> int:
    """Ring capacity from ``EUDOXUS_TRACE_CAPACITY`` (malformed -> default)."""
    raw = os.environ.get(TRACE_CAPACITY_ENV, "").strip()
    try:
        capacity = int(raw) if raw else DEFAULT_TRACE_CAPACITY
    except ValueError:
        capacity = DEFAULT_TRACE_CAPACITY
    return max(1, capacity)


def tracer_from_env() -> Optional["Tracer"]:
    """A fresh tracer when ``EUDOXUS_TRACE`` is set, else None (off)."""
    return Tracer(capacity=trace_capacity()) if tracing_enabled() else None


@dataclass(frozen=True)
class SpanEvent:
    """One trace event: a complete span (``phase="X"``) or instant (``"i"``).

    Timestamps are integer microseconds — quantized once, at record time,
    so float formatting can never make two identical schedules compare
    unequal.  ``args`` is a sorted tuple of pairs (not a dict) to keep the
    event hashable and its equality order-insensitive by construction.
    """

    name: str
    category: str
    phase: str  # "X" complete | "i" instant
    clock: str  # "virtual" | "wall"
    timestamp_us: int
    duration_us: int
    track: str
    args: Tuple[Tuple[str, object], ...] = ()

    def args_dict(self) -> Dict[str, object]:
        return dict(self.args)


def quantize_us(seconds: float) -> int:
    """Seconds -> integer microseconds, quantized once at record time."""
    return int(round(float(seconds) * 1e6))


def _freeze_args(args: Dict[str, object]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(args.items()))


class Tracer:
    """A bounded, append-only span buffer with a Chrome-trace exporter."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = max(1, int(capacity if capacity is not None
                                   else trace_capacity()))
        self.events: Deque[SpanEvent] = deque(maxlen=self.capacity)
        self.dropped = 0
        # Wall-domain epoch: wall timestamps are elapsed seconds since the
        # tracer existed, so one serve call's trace starts near zero instead
        # of at an opaque host uptime.
        self._wall_epoch = time.perf_counter()
        self._bound_registries: List[int] = []

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------ recording

    def _record(self, event: SpanEvent) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def span(self, name: str, category: str, start_s: float,
             duration_s: float = 0.0, *, clock: str = "virtual",
             track: str = "engine", **args: object) -> None:
        """Record a complete span (explicit timestamps, any clock domain)."""
        if clock not in _DOMAIN_PID:
            raise ValueError(f"unknown clock domain: {clock!r}")
        self._record(SpanEvent(
            name=name, category=category, phase="X", clock=clock,
            timestamp_us=quantize_us(start_s),
            duration_us=max(0, quantize_us(duration_s)),
            track=track, args=_freeze_args(args)))

    def instant(self, name: str, category: str, timestamp_s: float, *,
                clock: str = "virtual", track: str = "engine",
                **args: object) -> None:
        """Record a zero-duration instant event."""
        if clock not in _DOMAIN_PID:
            raise ValueError(f"unknown clock domain: {clock!r}")
        self._record(SpanEvent(
            name=name, category=category, phase="i", clock=clock,
            timestamp_us=quantize_us(timestamp_s), duration_us=0,
            track=track, args=_freeze_args(args)))

    def extend(self, events: Iterable[SpanEvent]) -> None:
        """Append pre-built events (the engine folds session-derived spans in)."""
        for event in events:
            self._record(event)

    @contextmanager
    def wall_span(self, name: str, category: str, *, track: str = "engine",
                  **args: object):
        """Measure a wall-clock span around a ``with`` block (telemetry only)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self.span(name, category, started - self._wall_epoch,
                      ended - started, clock="wall", track=track, **args)

    def wall_now(self) -> float:
        """The current wall-domain timestamp (seconds since the epoch above)."""
        return time.perf_counter() - self._wall_epoch

    # -------------------------------------------------------------- querying

    def by_category(self, category: str) -> List[SpanEvent]:
        return [event for event in self.events if event.category == category]

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    # --------------------------------------------------------------- metrics

    def bind_metrics(self, registry) -> None:
        """Expose ring overflow as ``eudoxus_tracer_dropped_total``.

        Collector-driven from :attr:`dropped` at render time, so a full
        ring is visible at ``/v1/metrics`` instead of only on the tracer
        object.  Idempotent per registry — the engine and the front door
        both bind the tracer they share.
        """
        if id(registry) in self._bound_registries:
            return
        self._bound_registries.append(id(registry))
        family = registry.counter(
            "eudoxus_tracer_dropped_total",
            "Events dropped by the bounded tracer ring (overflow).")

        def collect(_registry, tracer=self) -> None:
            family.labels().value = float(tracer.dropped)

        registry.register_collector(collect)

    # ------------------------------------------------------------- exporting

    def to_chrome(self) -> Dict[str, object]:
        """The trace as a Chrome/Perfetto trace-event JSON object.

        Each clock domain becomes one trace process; each track one thread,
        with tids assigned in sorted track order so the export is stable for
        a given event set.
        """
        tids: Dict[Tuple[str, str], int] = {}
        for clock in sorted({event.clock for event in self.events}):
            tracks = sorted({event.track for event in self.events
                             if event.clock == clock})
            for index, track in enumerate(tracks, start=1):
                tids[(clock, track)] = index

        trace_events: List[Dict[str, object]] = []
        for clock, pid in sorted(_DOMAIN_PID.items()):
            if not any(key[0] == clock for key in tids):
                continue
            trace_events.append({"name": "process_name", "ph": "M", "pid": pid,
                                 "tid": 0,
                                 "args": {"name": _DOMAIN_PROCESS_NAME[clock]}})
            for (domain, track), tid in sorted(tids.items()):
                if domain != clock:
                    continue
                trace_events.append({"name": "thread_name", "ph": "M",
                                     "pid": pid, "tid": tid,
                                     "args": {"name": track}})
        for event in self.events:
            entry: Dict[str, object] = {
                "name": event.name,
                "cat": event.category,
                "ph": event.phase,
                "pid": _DOMAIN_PID[event.clock],
                "tid": tids[(event.clock, event.track)],
                "ts": event.timestamp_us,
            }
            if event.phase == "X":
                entry["dur"] = event.duration_us
            if event.phase == "i":
                entry["s"] = "t"  # instant scope: thread
            if event.args:
                entry["args"] = event.args_dict()
            trace_events.append(entry)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms",
                "otherData": {"dropped_events": self.dropped}}

    def export_chrome(self, path: os.PathLike) -> Path:
        """Write the Chrome-trace JSON to ``path``; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_chrome()))
        return target
