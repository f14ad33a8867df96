"""Failure-signature triage for finished serving sessions.

Every session a serve call finishes is classified into exactly one
**failure signature** — a small closed vocabulary that turns a wall of
per-session telemetry into something an operator (or the flight recorder)
can aggregate, dedupe and alert on:

* ``ok`` — nothing below applies.
* ``divergence`` — the estimated trajectory blew up against ground truth
  (RMSE above :data:`DIVERGENCE_RMSE_M`).
* ``map_stale_thrash`` — the session demoted fleet maps for staleness
  repeatedly (:data:`MAP_STALE_THRASH_MIN` or more ``map_stale``
  switches): the world drifted out from under the canonical map and the
  session kept paying SLAM for segments it was promised registration for.
* ``wrong_winner`` — a GPS-denied segment's dominant served mode
  contradicts the Fig. 2 expectation given the session's fleet-map
  assignment (registration expected but SLAM served, or vice versa),
  with no staleness demotion to explain it.
* ``deadline_miss`` — at least one frame breached the stream's QoS
  deadline on the virtual schedule.
* ``shed`` — refused at the front door; the engine never saw it (the
  service stamps this one, since shed sessions produce no result).

Classification is a pure function of data the serve call already
produced (the :class:`~repro.serving.session.SessionResult`, the
per-stream deadline-miss count, the resolved fleet-map assignment), so
it runs post-serve on every wave, costs nothing on the hot path, and is deterministic: the same fleet yields the same signatures on
every run.  Precedence is severity order — a diverged session that also
missed deadlines is ``divergence``; the misses are a symptom.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping

__all__ = [
    "DIVERGENCE_RMSE_M",
    "MAP_STALE_THRASH_MIN",
    "SIGNATURES",
    "SIG_DEADLINE_MISS",
    "SIG_DIVERGENCE",
    "SIG_MAP_STALE_THRASH",
    "SIG_OK",
    "SIG_SHED",
    "SIG_WRONG_WINNER",
    "classify_session",
    "signature_census",
]

SIG_OK = "ok"
SIG_DIVERGENCE = "divergence"
SIG_DEADLINE_MISS = "deadline_miss"
SIG_MAP_STALE_THRASH = "map_stale_thrash"
SIG_WRONG_WINNER = "wrong_winner"
SIG_SHED = "shed"

#: The closed signature vocabulary, in classification precedence order
#: (``shed`` is stamped by the front door, never by the classifier).
SIGNATURES = (SIG_OK, SIG_DIVERGENCE, SIG_MAP_STALE_THRASH, SIG_WRONG_WINNER,
              SIG_DEADLINE_MISS, SIG_SHED)

#: Trajectory RMSE (metres) above which a session counts as diverged —
#: an order of magnitude past the accuracy band the serving tests pin
#: (healthy sessions land under ~2 m), so noise cannot trip it.
DIVERGENCE_RMSE_M = 5.0

#: ``map_stale`` demotions at or above this count are a thrash: one
#: demotion is the staleness lifecycle working as designed, repeats mean
#: the session kept being handed a map the world had drifted away from.
MAP_STALE_THRASH_MIN = 2


def _dominant_segment_modes(result) -> List[str]:
    """The most-served backend mode per segment ('' for empty segments)."""
    starts = list(result.segment_starts)
    bounds = starts + [float("inf")]
    modes: List[str] = []
    for index in range(len(starts)):
        census = Counter(
            estimate.mode for estimate in result.trajectory.estimates
            if bounds[index] <= estimate.frame_index < bounds[index + 1])
        modes.append(census.most_common(1)[0][0] if census else "")
    return modes


def classify_session(result, deadline_misses: int = 0,
                     mapped_environments: Iterable[str] = (),
                     divergence_rmse_m: float = DIVERGENCE_RMSE_M,
                     stale_thrash_min: int = MAP_STALE_THRASH_MIN) -> str:
    """Classify one finished session into its failure signature.

    ``mapped_environments`` is the session's resolved fleet-map
    assignment (the environment ids the engine handed it maps for) — the
    ground truth for which segments were *expected* to serve
    registration.  ``deadline_misses`` is the stream's virtual-schedule
    miss count; a session run straight through has no virtual schedule
    and passes 0.
    """
    # Local import: obs must stay importable without the serving layer
    # (and serving.engine imports this module at startup).
    from repro.serving.streams import StreamSpec, expected_segment_mode

    if result.trajectory.rmse_error() > divergence_rmse_m:
        return SIG_DIVERGENCE

    stale_switches = [switch for switch in result.mode_switches
                      if switch.reason == "map_stale"]
    if len(stale_switches) >= stale_thrash_min:
        return SIG_MAP_STALE_THRASH

    spec = StreamSpec.from_payload(result.spec_payload)
    mapped = frozenset(mapped_environments)
    stale_segments = {switch.segment_index for switch in stale_switches}
    dominant = _dominant_segment_modes(result)
    for index in range(min(len(spec.segments), len(dominant))):
        if index in stale_segments:
            continue  # a staleness demotion explains the deviation
        expected = expected_segment_mode(spec, index, mapped)
        served = dominant[index]
        # Only the SLAM-vs-registration contest has a "winner" to get
        # wrong; VIO dominance near GPS transitions is expected jitter.
        if ({expected, served} == {"slam", "registration"}
                and expected != served):
            return SIG_WRONG_WINNER

    if deadline_misses > 0:
        return SIG_DEADLINE_MISS
    return SIG_OK


def signature_census(signatures: Mapping[str, str]) -> Dict[str, int]:
    """Aggregate per-stream signatures into sorted signature -> count."""
    census: Counter = Counter(signatures.values())
    return {signature: census[signature] for signature in sorted(census)}
