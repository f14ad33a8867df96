"""Property-based serving guarantees: mode policy, handover, autoscaler.

Three families of invariants that hold for *any* traffic, not just the
hand-picked traces in ``test_serving.py``:

* :class:`ModeSwitchPolicy` hysteresis never oscillates faster than its
  acquire/lose windows, and the mode it picks is always the Fig. 2 cell for
  the observable signals;
* a mid-segment mode switch re-anchors the incoming backend *exactly* at
  the last served estimate (state handover);
* :class:`LatencyAutoscaler` stays inside its worker bounds, respects its
  cooldown + patience hysteresis between resizes, and responds monotonically
  to saturated traffic (all-over pressure never shrinks, all-under never
  grows).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.slam import SlamBackend
from repro.backend.vio import VioBackend
from repro.core.modes import BackendMode
from repro.scheduler import LatencyAutoscaler
from repro.sensors.scenarios import ScenarioKind
from repro.serving import ModeSwitchPolicy, StreamSegment, StreamSpec, run_session

# ------------------------------------------------------------ mode policy


gps_traces = st.lists(st.booleans(), min_size=1, max_size=120)
window_sizes = st.integers(min_value=1, max_value=5)


class TestModeSwitchPolicyProperties:
    @given(trace=gps_traces, acquire=window_sizes, lose=window_sizes)
    @settings(max_examples=200, deadline=None)
    def test_trust_flips_are_backed_by_full_windows(self, trace, acquire, lose):
        """Every trust transition is justified by a full streak of epochs."""
        policy = ModeSwitchPolicy(acquire_frames=acquire, lose_frames=lose)
        states = [policy.observe(has_fix) for has_fix in trace]
        for i in range(1, len(states)):
            if states[i] == states[i - 1]:
                continue
            if states[i]:  # acquired: the last `acquire` epochs all had a fix
                assert i + 1 >= acquire
                assert all(trace[i - k] for k in range(acquire))
            else:  # lost: the last `lose` epochs were all missing
                assert i + 1 >= lose
                assert all(not trace[i - k] for k in range(lose))

    @given(trace=gps_traces, acquire=window_sizes, lose=window_sizes)
    @settings(max_examples=200, deadline=None)
    def test_never_oscillates_faster_than_windows(self, trace, acquire, lose):
        """Consecutive flips are separated by at least the relevant window."""
        policy = ModeSwitchPolicy(acquire_frames=acquire, lose_frames=lose)
        states = [policy.observe(has_fix) for has_fix in trace]
        flips = [i for i in range(1, len(states)) if states[i] != states[i - 1]]
        for previous, current in zip(flips, flips[1:]):
            window = acquire if states[current] else lose
            assert current - previous >= window

    @given(trace=gps_traces, has_map=st.booleans(),
           acquire=window_sizes, lose=window_sizes)
    @settings(max_examples=200, deadline=None)
    def test_mode_always_valid_for_observable_signals(self, trace, has_map,
                                                      acquire, lose):
        """decide() always lands in the Fig. 2 cell for (trust, map)."""
        policy = ModeSwitchPolicy(acquire_frames=acquire, lose_frames=lose)
        for has_fix in trace:
            frame = SimpleNamespace(has_gps=has_fix)
            mode = policy.decide(frame, has_map=has_map)
            if policy.gps_trusted:
                assert mode is BackendMode.VIO
            elif has_map:
                assert mode is BackendMode.REGISTRATION
            else:
                assert mode is BackendMode.SLAM

    @given(trace=gps_traces)
    @settings(max_examples=100, deadline=None)
    def test_warm_start_matches_first_epoch(self, trace):
        policy = ModeSwitchPolicy()
        first = policy.observe(trace[0])
        assert first == trace[0]


# --------------------------------------------------------------- handover


class TestHandoverReanchoring:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_midsegment_switch_reanchors_at_last_estimate(self, monkeypatch, seed):
        """The incoming backend is initialized bit-exactly at the last pose.

        A GPS dropout/reacquisition stream forces mid-segment switches into
        both SLAM-family backends; every re-anchor call the session makes
        must carry the exact pose of the estimate served just before the
        switch (not a copy that drifted through an extra solve).
        """
        anchors = []

        original_vio = VioBackend.initialize
        original_slam = SlamBackend.initialize

        def spy_vio(self, pose, velocity=None):
            anchors.append(pose)
            return original_vio(self, pose, velocity)

        def spy_slam(self, pose):
            anchors.append(pose)
            return original_slam(self, pose)

        monkeypatch.setattr(VioBackend, "initialize", spy_vio)
        monkeypatch.setattr(SlamBackend, "initialize", spy_slam)

        spec = StreamSpec(
            stream_id=f"handover-{seed}",
            segments=(
                StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, 2.0),
                StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, 2.0,
                              gps_outage_probability=1.0),
                StreamSegment(ScenarioKind.OUTDOOR_UNKNOWN, 2.0),
            ),
            camera_rate_hz=5.0,
            landmark_count=120,
            seed=seed,
        )
        result = run_session(spec)
        estimates = result.trajectory.estimates
        segment_starts = set(result.segment_starts)
        midsegment = [s for s in result.mode_switches
                      if s.frame_index not in segment_starts
                      and s.to_mode in ("vio", "slam")]
        assert midsegment, "the dropout stream must force a mid-segment switch"
        anchor_ids = {id(pose) for pose in anchors}
        for switch in midsegment:
            expected = estimates[switch.frame_index - 1].pose
            assert id(expected) in anchor_ids, (
                f"switch at frame {switch.frame_index} did not re-anchor at "
                f"the last served estimate")


# -------------------------------------------------------------- autoscaler


def _scaler(min_workers=1, max_workers=8, grow_patience=2, shrink_patience=3,
            cooldown=2, **kwargs):
    return LatencyAutoscaler(min_workers=min_workers, max_workers=max_workers,
                             grow_patience=grow_patience,
                             shrink_patience=shrink_patience,
                             cooldown=cooldown, **kwargs)


latency_traces = st.lists(
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False), min_size=1,
    max_size=300)


class TestAutoscalerProperties:
    @given(trace=latency_traces, seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_workers_always_within_bounds(self, trace, seed):
        rng = np.random.default_rng(seed)
        scaler = _scaler(min_workers=int(rng.integers(1, 4)),
                         max_workers=int(rng.integers(4, 12)))
        for i, latency in enumerate(trace):
            scaler.observe(latency, deadline_ms=200.0)
            if i % 4 == 0:
                scaler.decide()
        scaler.decide()
        assert scaler.min_workers <= scaler.workers <= scaler.max_workers
        for decision in scaler.decisions:
            assert scaler.min_workers <= decision.workers_after <= scaler.max_workers

    @given(trace=latency_traces,
           grow_patience=st.integers(1, 4), shrink_patience=st.integers(1, 4),
           cooldown=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_resizes_respect_cooldown_plus_patience(self, trace, grow_patience,
                                                    shrink_patience, cooldown):
        """Hysteresis: consecutive resizes are >= cooldown + patience apart.

        After a resize the scaler holds for ``cooldown`` evaluations, then
        needs a full patience streak of fresh breaches — so the decision log
        can never oscillate faster than that, whatever the traffic does.
        """
        scaler = _scaler(grow_patience=grow_patience,
                         shrink_patience=shrink_patience, cooldown=cooldown)
        for latency in trace:
            scaler.observe(latency, deadline_ms=100.0)
            scaler.decide()
        resizes = [d for d in scaler.decisions if d.resized]
        for previous, current in zip(resizes, resizes[1:]):
            patience = grow_patience if current.action == "grow" else shrink_patience
            assert current.tick - previous.tick >= cooldown + patience

    @given(trace=st.lists(st.floats(min_value=500.0, max_value=5000.0,
                                    allow_nan=False), min_size=5, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_saturated_traffic_never_shrinks(self, trace):
        scaler = _scaler()
        for latency in trace:
            scaler.observe(latency, deadline_ms=100.0)  # pressure >= 5
            scaler.decide()
        assert all(d.action != "shrink" for d in scaler.decisions)
        assert scaler.workers >= 1

    @given(trace=st.lists(st.floats(min_value=0.0, max_value=5.0,
                                    allow_nan=False), min_size=5, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_idle_traffic_never_grows(self, trace):
        scaler = _scaler(initial_workers=8)
        for latency in trace:
            scaler.observe(latency, deadline_ms=1000.0)  # pressure <= 0.005
            scaler.decide()
        assert all(d.action != "grow" for d in scaler.decisions)

    @given(latencies=st.lists(st.floats(min_value=0.0, max_value=2000.0,
                                        allow_nan=False), min_size=1, max_size=60),
           gaps=st.lists(st.integers(min_value=0, max_value=3),
                         min_size=1, max_size=60),
           best_effort_ms=st.floats(min_value=0.0, max_value=10_000.0,
                                    allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_best_effort_interleave_does_not_dilute_pressure(self, latencies,
                                                             gaps, best_effort_ms):
        """Pressure over a deadlined subsequence is invariant under
        best-effort interleaving (as long as the deadlined samples stay
        within one observation window): a best-effort frame has no
        latency/deadline ratio, so it must contribute *nothing* to the
        signal — neither diluting it toward its own latency nor zeroing it.
        """
        pure = _scaler()
        mixed = _scaler()
        total = 0
        for latency, gap in zip(latencies, gaps):
            pure.observe(latency, deadline_ms=200.0)
            for _ in range(gap):
                mixed.observe(best_effort_ms, deadline_ms=None)
                total += 1
            mixed.observe(latency, deadline_ms=200.0)
            total += 1
        if total <= 256:  # every deadlined sample still inside the window
            assert mixed.pressure() == pure.pressure()

    def test_sparse_deadlined_traffic_is_not_zeroed_by_best_effort(self):
        """One saturated deadlined frame among fifteen idle best-effort
        frames per round must still grow the pool."""
        scaler = _scaler()
        for _ in range(12):
            for _ in range(15):
                scaler.observe(1.0, deadline_ms=None)
            scaler.observe(1000.0, deadline_ms=100.0)  # pressure 10
            scaler.decide()
        assert any(d.action == "grow" for d in scaler.decisions)
        assert scaler.workers > scaler.min_workers

    def test_sparse_live_deadlined_traffic_keeps_its_window(self):
        """While deadlined traffic continues — however sparsely interleaved
        with best-effort frames — every pressure sample is retained: expiry
        must not shrink a sparse fleet's effective window to the last
        handful of samples (a single spike would then read as sustained
        pressure)."""
        scaler = _scaler()
        for _ in range(40):
            for _ in range(100):
                scaler.observe(1.0, deadline_ms=None)
            scaler.observe(10.0, deadline_ms=100.0)  # healthy: pressure 0.1
        # One spike in otherwise-healthy sparse traffic...
        scaler.observe(500.0, deadline_ms=100.0)
        assert scaler.pressure() > 0.0
        # ...is judged against the full retained history (41 samples, even
        # though ~4000 observations passed), not the 2-3 newest — so the
        # p95 stays at the healthy level and the pool does not grow.
        assert len(scaler._pressure) == 41
        for _ in range(3):
            scaler.decide()
        assert all(d.action != "grow" for d in scaler.decisions)

    def test_stale_deadlined_evidence_expires(self):
        """A deadlined burst that *ended* must stop exerting pressure once a
        full observation window of best-effort-only traffic has passed —
        the scaler must not keep resizing on traffic that no longer exists.
        """
        scaler = _scaler(cooldown=0, grow_patience=2)
        for _ in range(4):
            scaler.observe(1000.0, deadline_ms=100.0)
        assert scaler.pressure() > scaler.grow_pressure
        # The deadlined session disconnects; best-effort traffic continues.
        for _ in range(256):
            scaler.observe(5.0, deadline_ms=None)
        assert scaler.pressure() == 0.0
        decision = scaler.decide()
        assert decision.action == "hold"
        assert decision.reason == "no deadline traffic"

    def test_no_deadline_traffic_exerts_no_pressure(self):
        scaler = _scaler()
        for _ in range(50):
            scaler.observe(10_000.0, deadline_ms=None)
            decision = scaler.decide()
        assert decision.action == "hold"
        assert scaler.workers == scaler.min_workers
        assert scaler.pressure() == 0.0

    def test_decision_log_is_complete(self):
        scaler = _scaler()
        for _ in range(10):
            scaler.observe(1000.0, deadline_ms=100.0)
            scaler.decide()
        assert len(scaler.decisions) == 10
        assert [d.tick for d in scaler.decisions] == list(range(1, 11))
        assert any(d.action == "grow" for d in scaler.decisions)

    def test_decision_log_is_bounded(self):
        """A long-running deployment must not grow the log without limit."""
        scaler = _scaler()
        limit = LatencyAutoscaler.DECISION_LOG_LIMIT
        for _ in range(limit + 64):
            scaler.decide()
        assert len(scaler.decisions) == limit
        assert scaler.decisions[-1].tick == limit + 64  # newest retained

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            LatencyAutoscaler(min_workers=0)
        with pytest.raises(ValueError):
            LatencyAutoscaler(min_workers=4, max_workers=2)
        with pytest.raises(ValueError):
            LatencyAutoscaler(grow_pressure=0.3, shrink_pressure=0.5)

    @pytest.mark.parametrize("evaluations, shrinks", [(3, True), (2, False)])
    def test_shrinks_exactly_at_patience(self, evaluations, shrinks):
        """``shrink_patience`` under-target evaluations shrink; one fewer holds."""
        scaler = _scaler(initial_workers=4, shrink_patience=3, cooldown=0)
        for _ in range(evaluations):
            scaler.observe(10.0, deadline_ms=200.0)  # pressure 0.05 < shrink_pressure
            scaler.decide()
        assert [d.action for d in scaler.decisions] == (
            ["hold"] * (evaluations - 1) + ["shrink" if shrinks else "hold"])
        assert scaler.workers == (3 if shrinks else 4)


class TestAutoscalerSaturation:
    """Regression: pinned-at-cap overload must surface, not loop silently.

    Before the fix, pressure above ``grow_pressure`` with the pool already
    at ``max_workers`` grew ``_over_streak`` without bound and the log
    emitted ``pressure ... (n/patience)`` holds forever — no caller could
    distinguish "warming up to grow" from "pinned and drowning".  The
    saturated signal is what the service front door sheds on.
    """

    def _saturate(self, scaler, rounds):
        for _ in range(rounds):
            scaler.observe(1000.0, deadline_ms=100.0)  # pressure 10
            scaler.decide()

    def test_pinned_overload_reports_saturated(self):
        scaler = _scaler(min_workers=1, max_workers=1, grow_patience=2)
        self._saturate(scaler, 6)
        assert scaler.saturated
        last = scaler.decisions[-1]
        assert last.action == "hold"
        assert last.saturated
        assert last.reason.startswith("saturated")

    def test_over_streak_is_clamped_at_patience(self):
        scaler = _scaler(min_workers=1, max_workers=1, grow_patience=3)
        self._saturate(scaler, 50)
        assert scaler._over_streak == scaler.grow_patience

    def test_saturation_requires_full_patience_streak(self):
        """At cap but only briefly over-pressure: not saturated yet."""
        scaler = _scaler(min_workers=1, max_workers=1, grow_patience=3)
        self._saturate(scaler, 2)
        assert not scaler.saturated
        assert not scaler.decisions[-1].saturated
        self._saturate(scaler, 1)
        assert scaler.saturated

    def test_saturation_clears_when_pressure_recedes(self):
        scaler = _scaler(min_workers=1, max_workers=1, grow_patience=2,
                         window=16)
        self._saturate(scaler, 5)
        assert scaler.saturated
        for _ in range(16):  # a full window of healthy samples
            scaler.observe(10.0, deadline_ms=100.0)  # pressure decays
        scaler.decide()
        assert not scaler.saturated
        assert not scaler.decisions[-1].saturated

    def test_growable_pool_never_saturates(self):
        """Headroom means grow, never saturate, whatever the pressure."""
        scaler = _scaler(min_workers=1, max_workers=8)
        self._saturate(scaler, 40)
        assert scaler.workers == scaler.max_workers  # it did grow to cap...
        grow_ticks = [d.tick for d in scaler.decisions if d.action == "grow"]
        saturated_ticks = [d.tick for d in scaler.decisions if d.saturated]
        assert saturated_ticks  # ...then saturated at the cap
        assert min(saturated_ticks) > max(grow_ticks)

    def test_prime_resets_saturation(self):
        scaler = _scaler(min_workers=1, max_workers=1, grow_patience=2)
        self._saturate(scaler, 5)
        assert scaler.saturated
        scaler.prime(1)
        assert not scaler.saturated

    @given(trace=latency_traces, max_workers=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_over_streak_never_exceeds_patience(self, trace, max_workers):
        """The unbounded-streak bug, as an any-traffic invariant."""
        scaler = _scaler(min_workers=1, max_workers=max_workers)
        for latency in trace:
            scaler.observe(latency, deadline_ms=100.0)
            scaler.decide()
            assert scaler._over_streak <= scaler.grow_patience
            # The flag only ever rises with the pool pinned at the cap.
            if scaler.saturated:
                assert scaler.workers == scaler.max_workers


class TestPrimeClock:
    """Regression: prime() used to log every decision at clock=0.0."""

    def test_prime_logs_the_callers_clock(self):
        scaler = _scaler()
        decision = scaler.prime(4, clock=17.5)
        assert decision.action == "prime"
        assert decision.clock == 17.5

    def test_prime_default_clock_is_zero(self):
        scaler = _scaler()
        assert scaler.prime(2).clock == 0.0

    def test_primes_across_serve_calls_stay_monotonic(self):
        """Two serve calls' worth of prime+decide at offset clocks must
        yield a log that sorts by clock — the metrics endpoint's contract."""
        scaler = _scaler(cooldown=0)
        clock = 0.0
        for base in (0.0, 40.0):  # two consecutive serve calls
            scaler.prime(2, clock=base)
            for step in range(1, 6):
                scaler.observe(500.0, deadline_ms=100.0)
                scaler.decide(base + step)
        clocks = [d.clock for d in scaler.decisions]
        assert clocks == sorted(clocks)
        ticks = [d.tick for d in scaler.decisions]
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)
