"""Latency-aware worker-pool autoscaling for the serving layer.

The serving engine multiplexes a fleet of localization sessions over a
shared worker pool.  Traffic is bursty — sessions connect in waves, GPS
dropouts shift work onto heavier backends — so a fixed pool is either
over-provisioned (wasted workers) or under-provisioned (frames queue and
blow their deadlines).  :class:`LatencyAutoscaler` closes that loop: it
watches rolling p50/p95 frame latency against each session's serving
deadline (:attr:`~repro.serving.streams.StreamSpec.deadline_ms`) and
resizes the pool with hysteresis.

The control signal is *deadline pressure*: the p95 of ``latency/deadline``
over a sliding window.  Pressure above ``grow_pressure`` for
``grow_patience`` consecutive evaluations doubles the pool (bounded by
``max_workers``); pressure below ``shrink_pressure`` for
``shrink_patience`` evaluations releases one worker at a time (bounded by
``min_workers``).  When a full grow-patience streak finds the pool already
pinned at ``max_workers``, the controller is out of actuator: it reports
**saturated** (:attr:`LatencyAutoscaler.saturated`, and an explicit
``saturated: ...`` decision reason with the streak clamped rather than a
forever-incrementing "(n/patience)" count) — the overload signal the
service front door keys admission control on.  Asymmetric patience plus a
post-resize cooldown — during
which the observation window is discarded so decisions never act on
pre-resize traffic — is what keeps the controller from oscillating: growing
is cheap to undo, missing deadlines is not, so the scaler grows eagerly and
shrinks reluctantly.

Mixed fleets interleave *best-effort* sessions (``deadline_ms=None``) with
deadlined traffic.  Best-effort frames contribute to the latency
percentiles but never to pressure, so they can neither dilute the signal
(their latency/deadline ratio is undefined, not zero) nor zero it (the
pressure percentile runs over deadlined frames only, however few).  The
complementary hazard — a burst of deadlined traffic that *ended* keeping
its pressure samples alive indefinitely while best-effort frames flow — is
closed by expiring the pressure window once no deadlined frame has been
seen for a full window of observations: the scaler then honestly reports
"no deadline traffic" instead of resizing on stale evidence (while
deadlined traffic continues, however sparse, every sample is retained).

The serving engine can also install a *sizing prior* (:meth:`LatencyAutoscaler.prime`)
before any traffic: the expected per-frame cost of the fleet's mode mix —
known pre-dispatch once fleet maps are resolved (map available =>
registration-dominant => cheap) — converts into a starting width, so a
warm-map fleet starts small and stays small instead of growing on
cold-start backlog and shrinking later.

Every evaluation is appended to :attr:`LatencyAutoscaler.decisions`, the
decision log the serving report exposes and the benchmarks assert on.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional

import numpy as np


def _percentile(values: Iterable[float], percent: float) -> float:
    """``float(np.percentile(values, percent))`` bit for bit, for finite,
    non-negative values (latencies and their deadline ratios).

    The same linear interpolation numpy performs, on a sorted list instead of
    an array: the controller evaluates three percentiles of its window on
    every tick, where the array round trip costs more than the arithmetic.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    virtual = last * (percent / 100)
    if virtual >= last:
        return ordered[-1]
    previous = math.floor(virtual)
    lower, upper = ordered[previous], ordered[previous + 1]
    gamma = virtual - previous
    diff = upper - lower
    if gamma >= 0.5:
        return upper - diff * (1 - gamma)
    return lower + diff * gamma


@dataclass(frozen=True)
class ScaleDecision:
    """One autoscaler evaluation (held, grew or shrank) or sizing prime."""

    tick: int
    clock: float
    action: str  # "grow" | "shrink" | "hold" | "prime"
    workers_before: int
    workers_after: int
    p50_ms: float
    p95_ms: float
    pressure: float  # p95 of latency/deadline over the window
    reason: str
    # Overload, not headroom: sustained over-pressure with the pool already
    # pinned at max_workers.  The service front door keys admission control
    # on this — it is the "stop admitting, start shedding" signal.
    saturated: bool = False

    @property
    def resized(self) -> bool:
        """Whether the *controller* changed the width.

        A width-changing ``prime`` is excluded: the sizing prior is where
        the pool started, not a reaction to observed traffic — counting it
        would report phantom resizes for every map-aware serve call.
        """
        return self.action != "prime" and self.workers_after != self.workers_before


class LatencyAutoscaler:
    """Deadline-pressure pool sizing with hysteresis and cooldown."""

    # Decision-log retention: every evaluation is logged, but a long-running
    # deployment evaluates once per tick forever, so the log is a bounded
    # deque (like the observation windows) rather than an unbounded list.
    DECISION_LOG_LIMIT = 4096

    def __init__(self, min_workers: int = 1, max_workers: int = 8,
                 initial_workers: Optional[int] = None, window: int = 256,
                 grow_pressure: float = 0.9, shrink_pressure: float = 0.3,
                 grow_patience: int = 2, shrink_patience: int = 6,
                 cooldown: int = 3, grow_factor: float = 2.0,
                 default_deadline_ms: Optional[float] = None) -> None:
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if shrink_pressure >= grow_pressure:
            raise ValueError("shrink_pressure must be below grow_pressure")
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)
        self.grow_pressure = float(grow_pressure)
        self.shrink_pressure = float(shrink_pressure)
        self.grow_patience = max(1, int(grow_patience))
        self.shrink_patience = max(1, int(shrink_patience))
        self.cooldown = max(0, int(cooldown))
        self.grow_factor = max(1.0, float(grow_factor))
        self.default_deadline_ms = default_deadline_ms
        self.workers = self._clamp(initial_workers if initial_workers is not None
                                   else min_workers)
        self.decisions: Deque[ScaleDecision] = deque(maxlen=self.DECISION_LOG_LIMIT)
        self._window = max(1, int(window))
        self._latency: Deque[float] = deque(maxlen=self._window)
        # Pressure samples carry the observation index they were taken at so
        # that stale deadlined evidence can expire by *observation count*:
        # in a mixed fleet, best-effort frames keep the clock of
        # observations running even when no deadlined frame arrives.
        self._pressure: Deque[tuple] = deque(maxlen=self._window)
        self._observed = 0
        self._over_streak = 0
        self._under_streak = 0
        self._cooldown_left = 0
        self._tick = 0
        self._saturated = False
        # Observability (repro.obs): unbound until bind_metrics; every
        # recording site is guarded by a None check.
        self.metrics = None
        self._m_decisions = None
        self._m_workers = None
        self._m_saturated = None

    def bind_metrics(self, registry) -> None:
        """Register the scaler's families with a
        :class:`repro.obs.MetricsRegistry` (idempotent): decisions by
        action, the current pool width, and the saturation flag."""
        self.metrics = registry
        self._m_decisions = registry.counter(
            "eudoxus_autoscaler_decisions_total",
            "Scaling evaluations by action (prime, grow, shrink, hold).",
            ("action",))
        self._m_workers = registry.gauge(
            "eudoxus_autoscaler_workers",
            "Pool width after the most recent scaling decision.")
        self._m_saturated = registry.gauge(
            "eudoxus_autoscaler_saturated",
            "1 while the pool is pinned at max_workers under sustained "
            "over-pressure (the front door's shed signal), else 0.")

    def _record_decision(self, decision: "ScaleDecision") -> None:
        if self._m_decisions is None:
            return
        self._m_decisions.inc(action=decision.action)
        self._m_workers.set(decision.workers_after)
        self._m_saturated.set(1.0 if decision.saturated else 0.0)

    @property
    def saturated(self) -> bool:
        """Whether the last evaluation found the pool pinned under overload.

        True exactly when pressure has stayed above ``grow_pressure`` for a
        full grow-patience streak with the pool already at ``max_workers`` —
        the point where the controller has no actuator left and more load
        can only become latency.  The service front door sheds on this
        signal instead of admitting sessions the pool cannot serve on time.
        The flag clears as soon as an evaluation finds pressure back in
        band (or the deadlined traffic expires), and on :meth:`prime`.
        """
        return self._saturated

    # ------------------------------------------------------------ observing

    def observe(self, latency_ms: float, deadline_ms: Optional[float] = None) -> None:
        """Fold one served frame's latency (and its deadline) into the window.

        Frames without a deadline (``None``, and no ``default_deadline_ms``)
        contribute to the latency percentiles but exert no pressure — a
        best-effort session can never force the pool to grow.  They do
        advance the observation clock, so deadlined samples buried under a
        full window of best-effort traffic expire (see :meth:`pressure`).
        """
        self._observed += 1
        self._latency.append(float(latency_ms))
        deadline = deadline_ms if deadline_ms is not None else self.default_deadline_ms
        if deadline is not None and deadline > 0:
            self._pressure.append((self._observed, float(latency_ms) / float(deadline)))

    def latency_percentile(self, percent: float) -> float:
        if not self._latency:
            return 0.0
        return _percentile(self._latency, percent)

    def _expire_stale_pressure(self) -> None:
        """Expire the pressure window once deadlined traffic *stopped*.

        The whole window is dropped when the newest deadlined sample has had
        no successor for a full window of observations — a deadlined session
        that disconnected must not keep growing the pool (or refusing to
        shrink it) on evidence from traffic that no longer exists.  While
        deadlined traffic continues, however sparsely it is interleaved with
        best-effort frames, every sample is retained (bounded by the deque):
        expiring by per-sample age would shrink sparse fleets' effective
        window to a handful of samples and make the p95 spike-dominated —
        the instability this mechanism exists to prevent.
        """
        if self._pressure and self._pressure[-1][0] <= self._observed - self._window:
            self._pressure.clear()

    def pressure(self) -> float:
        """p95 of latency/deadline over the window (0 with no deadlines).

        Computed over deadlined frames only — however sparsely they are
        interleaved with best-effort traffic, they are neither diluted by it
        nor zeroed out — but once the *newest* deadlined sample goes a full
        observation window without a successor, the whole window is expired
        as stale.
        """
        self._expire_stale_pressure()
        if not self._pressure:
            return 0.0
        return _percentile([value for _, value in self._pressure], 95.0)

    # ------------------------------------------------------------- deciding

    def prime(self, workers: int, reason: str = "sizing prior",
              clock: float = 0.0) -> ScaleDecision:
        """Install a sizing prior as the starting width.

        Called by the serving engine before any traffic of a serve call: the
        expected per-frame cost of the fleet's mode mix (resolved fleet maps
        => registration-dominant => cheap) converts into an expected
        steady-state width, so the pool *starts* near where the controller
        would converge — a warm fleet never has to grow through a
        cold-start backlog only to shrink back.  The prior is a starting
        point, not a clamp: observed pressure still grows and shrinks the
        pool from here, under the usual hysteresis.  The installation is
        logged as an ``action="prime"`` decision so the decision log shows
        where the width came from.

        ``clock`` is the serve call's clock at the moment of priming (the
        engine passes its continuity-offset virtual clock, not a hardcoded
        0.0), and the prime consumes a tick like any other evaluation — so
        a decision log that spans several serve calls stays monotone in
        both ``tick`` and ``clock`` and the service's metrics endpoint can
        order it without guessing.
        """
        self._tick += 1
        before = self.workers
        self.workers = self._clamp(workers)
        # A prime starts a fresh serve call: drop every trace of the
        # previous call's traffic (window, streaks, cooldown, saturation) so
        # the primed width is never immediately resized on evidence from
        # sessions that no longer exist — the same window reset decide()
        # performs on a resize.
        self._over_streak = 0
        self._under_streak = 0
        self._cooldown_left = 0
        self._latency.clear()
        self._pressure.clear()
        self._saturated = False
        decision = ScaleDecision(
            tick=self._tick,
            clock=float(clock),
            action="prime",
            workers_before=before,
            workers_after=self.workers,
            p50_ms=0.0,
            p95_ms=0.0,
            pressure=0.0,
            reason=reason,
        )
        self.decisions.append(decision)
        self._record_decision(decision)
        return decision

    def decide(self, clock: float = 0.0) -> ScaleDecision:
        """Evaluate the window once; resize ``workers`` when warranted."""
        self._tick += 1
        before = self.workers
        p50 = self.latency_percentile(50.0)
        p95 = self.latency_percentile(95.0)
        pressure = self.pressure()
        action = "hold"
        reason = "within band"

        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            reason = "cooldown"
        elif not self._pressure:
            # No live deadlined traffic (none ever, or all samples expired):
            # hold, and drop any partial streaks so later deadlined traffic
            # starts its patience count from scratch.  Overload cannot
            # outlive its evidence: saturation clears with the window.
            self._over_streak = 0
            self._under_streak = 0
            self._saturated = False
            reason = "no deadline traffic"
        else:
            if pressure > self.grow_pressure:
                self._over_streak += 1
                self._under_streak = 0
                if (self.workers >= self.max_workers
                        and self._over_streak >= self.grow_patience):
                    # Pinned at the cap under sustained over-pressure: there
                    # is no grow left to wait for, so the streak clamps at
                    # the patience it has already proven (it must not wind
                    # up unboundedly) and the log says *saturated* instead
                    # of counting "(n/patience)" toward a resize that can
                    # never come.  This is the front door's shed signal.
                    self._over_streak = self.grow_patience
                    self._saturated = True
                    reason = (f"saturated: pressure {pressure:.2f} > "
                              f"{self.grow_pressure:.2f} with pool pinned at "
                              f"max_workers {self.max_workers}")
                else:
                    reason = (f"pressure {pressure:.2f} > {self.grow_pressure:.2f} "
                              f"({self._over_streak}/{self.grow_patience})")
            elif pressure < self.shrink_pressure:
                self._under_streak += 1
                self._over_streak = 0
                self._saturated = False
                reason = (f"pressure {pressure:.2f} < {self.shrink_pressure:.2f} "
                          f"({self._under_streak}/{self.shrink_patience})")
            else:
                self._over_streak = 0
                self._under_streak = 0
                self._saturated = False
            if self._over_streak >= self.grow_patience and self.workers < self.max_workers:
                action = "grow"
                self.workers = self._clamp(max(
                    self.workers + 1, int(np.ceil(self.workers * self.grow_factor))))
            elif self._under_streak >= self.shrink_patience and self.workers > self.min_workers:
                action = "shrink"
                self.workers = self._clamp(self.workers - 1)
            if action != "hold":
                # Hysteresis: start a cooldown and drop the window so the
                # next decision only ever sees post-resize traffic.
                self._over_streak = 0
                self._under_streak = 0
                self._cooldown_left = self.cooldown
                self._latency.clear()
                self._pressure.clear()

        decision = ScaleDecision(
            tick=self._tick,
            clock=float(clock),
            action=action,
            workers_before=before,
            workers_after=self.workers,
            p50_ms=p50,
            p95_ms=p95,
            pressure=pressure,
            reason=reason,
            saturated=self._saturated,
        )
        self.decisions.append(decision)
        self._record_decision(decision)
        return decision

    # ------------------------------------------------------------ internals

    def _clamp(self, workers: int) -> int:
        return max(self.min_workers, min(self.max_workers, int(workers)))
