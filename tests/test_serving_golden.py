"""Golden-signature regression suite for the serving layer.

``tests/data/serving_signatures.json`` pins the
:meth:`~repro.serving.session.SessionResult.signature` of a small canonical
fleet, served through the arrival-time streaming event loop, of a
three-wave fleet-map lifecycle served both by the plain engine and by a
2-shard cluster whose shards run in worker processes, and of one long SLAM
session whose keyframe window fills, so window bundle adjustment
marginalizes its oldest keyframes.  All must reproduce those exact
digests.

The ``control_plane`` section pins what the signatures leave out by design:
the virtual-clock schedule of a throttled plain engine and of a 2-shard
cluster over three waves each (scale decisions, ticks, batch sizes,
per-stream deadline misses and a digest of the serving latencies).  The
cluster must produce the same schedule in-process and with worker
processes.  This catches *silent determinism drift*: a
change that perturbs
poses or mode switches without failing any behavioral test (a reordered
reduction, an RNG stream that moved, a segment rebuilt with different
stitching) shows up here as a signature mismatch.

When a change intentionally alters the served results (new noise model,
different backend math), regenerate the pins and review the diff:

    EUDOXUS_REGEN_GOLDEN=1 python -m pytest tests/test_serving_golden.py
"""

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.backend.mapping import KeyframeMapper
from repro.cluster import ShardedServingEngine
from repro.maps import MapStore
from repro.scheduler import LatencyAutoscaler
from repro.serving import ServingEngine, cold_start_fleet, mixed_fleet

GOLDEN_PATH = Path(__file__).parent / "data" / "serving_signatures.json"
REGEN_ENV = "EUDOXUS_REGEN_GOLDEN"

FLEET_SIZE = 3
SEGMENT_DURATION = 1.0
RATE_HZ = 5.0

# Fleet-map canonical world: a cold wave publishes into a fresh map store, a
# warm wave acquires the merged map (and hands back MapUpdate deltas that
# refresh the canonical), and an *updated* wave acquires the refreshed
# version.  All three waves' signatures are pinned — publication,
# acquisition AND update provenance are part of the signature — as are the
# canonical versions before and after the update application.
MAP_ENVIRONMENT = "golden-atrium"
MAP_GATE = 0.05  # permissive: the 1 s segments build small but real maps
COLD_SEED = 100
WARM_SEED = 9100
UPDATED_SEED = 17100

# One session whose 6 s SLAM segments outlast the 8-keyframe BA window, so
# the oldest keyframes are marginalized (the 1 s fleets above never fill it).
MARGINALIZATION_ENVIRONMENT = "golden-cloister"
MARGINALIZATION_SEED = 300
MARGINALIZATION_SEGMENT_DURATION = 6.0

# Control plane: three deadlined mixed-fleet waves sharing one indoor world
# (so later waves register against earlier waves' maps and the map-aware
# prior moves), served one frame per worker per tick so backlog, misses,
# grows, shrinks and saturation all occur on both engines.
CONTROL_ENVIRONMENT = "golden-hall"
CONTROL_SEEDS = (500, 9500, 17500)
CONTROL_SESSIONS = 8
CONTROL_DEADLINE_MS = 250.0


def canonical_fleet():
    return mixed_fleet(FLEET_SIZE, segment_duration=SEGMENT_DURATION,
                       camera_rate_hz=RATE_HZ)


def cold_wave():
    return cold_start_fleet(2, environment=MAP_ENVIRONMENT, base_seed=COLD_SEED,
                            segment_duration=SEGMENT_DURATION,
                            camera_rate_hz=RATE_HZ, prefix="cold")


def warm_wave():
    return cold_start_fleet(2, environment=MAP_ENVIRONMENT, base_seed=WARM_SEED,
                            segment_duration=SEGMENT_DURATION,
                            camera_rate_hz=RATE_HZ, prefix="warm")


def updated_wave():
    return cold_start_fleet(2, environment=MAP_ENVIRONMENT, base_seed=UPDATED_SEED,
                            segment_duration=SEGMENT_DURATION,
                            camera_rate_hz=RATE_HZ, prefix="upd")


def marginalization_fleet():
    return cold_start_fleet(1, environment=MARGINALIZATION_ENVIRONMENT,
                            base_seed=MARGINALIZATION_SEED,
                            segment_duration=MARGINALIZATION_SEGMENT_DURATION,
                            camera_rate_hz=RATE_HZ)


def control_waves():
    return [mixed_fleet(CONTROL_SESSIONS, base_seed=seed,
                        segment_duration=SEGMENT_DURATION, camera_rate_hz=RATE_HZ,
                        deadline_ms=CONTROL_DEADLINE_MS,
                        indoor_environment=CONTROL_ENVIRONMENT)
            for seed in CONTROL_SEEDS]


def _control_scaler(shard=0):
    return LatencyAutoscaler(min_workers=1, max_workers=2)


def _map_engine(store):
    return ServingEngine(store=None, map_store=store,
                         min_map_quality=MAP_GATE)


def _seed_map_store(root):
    """Serve the cold wave into a fresh map store; returns (store, report)."""
    store = MapStore(root, max_bytes=-1, max_age_s=-1)
    report = _map_engine(store).serve(cold_wave())
    return store, report


def _lifecycle_reports(root, serve):
    """The three-wave lifecycle against one fresh store, via one engine.

    cold (publish) -> warm (acquire + hand back updates; the engine folds
    them into a new canonical version post-serve) -> updated (acquire the
    refreshed version).  ``serve`` serves one wave through one engine; the
    store is rebuilt from scratch so every engine sees the exact same store
    evolution.
    """
    store = MapStore(root, max_bytes=-1, max_age_s=-1)
    cold = serve(store, cold_wave())
    warm = serve(store, warm_wave())
    updated = serve(store, updated_wave())
    return cold, warm, updated


def _streaming_serve(store, fleet):
    return _map_engine(store).serve(fleet)


def _sharded_serve(store, fleet):
    # Three hash slots put each wave's two streams on different shards, so
    # every wave fans two shard payloads out.
    report = ShardedServingEngine(2, map_store=store, min_map_quality=MAP_GATE,
                                  slot_count=3).serve(fleet)
    assert sorted(report.shard_of.values()) == [0, 1]
    return report


def _control_plane_reports(root, engine):
    """Serve the control waves through ``engine`` built on a fresh store."""
    store = MapStore(root, max_bytes=-1, max_age_s=-1)
    served = engine(store)
    return [served.serve(wave) for wave in control_waves()]


def _plain_control_engine(store):
    return ServingEngine(store=None, map_store=store, min_map_quality=MAP_GATE,
                         autoscaler=_control_scaler(), frames_per_worker_tick=1)


def _cluster_control_engine(store):
    return ShardedServingEngine(2, map_store=store, min_map_quality=MAP_GATE,
                                autoscaler_factory=_control_scaler,
                                frames_per_worker_tick=1)


def _control_plane(reports):
    """Each wave's schedule: one JSON line per scale decision, batch sizes
    as one string, exact per-stream misses and a latency digest."""
    return [{
        "decisions": [json.dumps(list(asdict(decision).values()))
                      for decision in report.scale_decisions],
        "ticks": report.ticks,
        "batch_sizes": " ".join(str(size) for size in report.batch_sizes),
        "misses": dict(sorted(report.deadline_misses_by_stream.items())),
        "virtual_latency_sha256": hashlib.sha256(
            json.dumps(report.virtual_latency_ms).encode()).hexdigest(),
    } for report in reports]


def _signatures(report):
    return {stream_id: result.signature()
            for stream_id, result in sorted(report.results.items())}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    if os.environ.get(REGEN_ENV, "").strip():
        fleet = canonical_fleet()
        report = ServingEngine(store=None).serve(fleet)
        cold_report, warm_report, updated_report = _lifecycle_reports(
            tmp_path_factory.mktemp("golden-maps"), _streaming_serve)
        assert warm_report.map_acquisition_count > 0, (
            "golden warm wave acquired no fleet map — pins would be vacuous")
        assert warm_report.map_update_count > 0 and warm_report.maps_updated, (
            "golden warm wave produced/applied no map updates — the updated-"
            "wave pins would be vacuous")
        assert (dict(sorted(updated_report.fleet_maps.items()))
                == dict(sorted(warm_report.maps_updated.items()))), (
            "the updated wave must acquire exactly the canonical the warm "
            "wave's updates produced")
        marginalization_report = ServingEngine(store=None).serve(
            marginalization_fleet())
        plain_control = _control_plane(_control_plane_reports(
            tmp_path_factory.mktemp("golden-control-plain"), _plain_control_engine))
        cluster_control = _control_plane(_control_plane_reports(
            tmp_path_factory.mktemp("golden-control-cluster"),
            _cluster_control_engine))
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps({
            "fleet": {"size": FLEET_SIZE, "segment_duration": SEGMENT_DURATION,
                      "camera_rate_hz": RATE_HZ},
            "signatures": _signatures(report),
            "fleet_map": {"environment": MAP_ENVIRONMENT, "gate": MAP_GATE,
                          "cold_seed": COLD_SEED, "warm_seed": WARM_SEED,
                          "updated_seed": UPDATED_SEED,
                          "versions": dict(sorted(warm_report.fleet_maps.items())),
                          "updated_versions": dict(sorted(updated_report.fleet_maps.items()))},
            "fleet_map_signatures": {"cold": _signatures(cold_report),
                                     "warm": _signatures(warm_report),
                                     "updated": _signatures(updated_report)},
            "marginalization": {"environment": MARGINALIZATION_ENVIRONMENT,
                                "base_seed": MARGINALIZATION_SEED,
                                "segment_duration": MARGINALIZATION_SEGMENT_DURATION,
                                "camera_rate_hz": RATE_HZ},
            "marginalization_signatures": _signatures(marginalization_report),
            "control_plane": {
                "environment": CONTROL_ENVIRONMENT, "seeds": list(CONTROL_SEEDS),
                "sessions": CONTROL_SESSIONS,
                "deadline_ms": CONTROL_DEADLINE_MS,
                "plain": plain_control, "cluster": cluster_control},
        }, indent=2) + "\n")
    if not GOLDEN_PATH.is_file():
        pytest.fail(f"golden file missing; regenerate with {REGEN_ENV}=1")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fleet():
    return canonical_fleet()


def _assert_matches(report, golden, path):
    produced = _signatures(report)
    assert produced == golden, (
        f"{path} serving drifted from the pinned signatures — if the change "
        f"is intentional, regenerate with {REGEN_ENV}=1 and review the diff")


def test_streaming_path_matches_golden(fleet, golden):
    report = ServingEngine(store=None).serve(fleet)
    _assert_matches(report, golden["signatures"], "streaming")


# ------------------------------------------------------ fleet-map golden pins


def test_cold_wave_publication_matches_golden(golden, tmp_path):
    """The publishing wave's signatures (which include published-map
    provenance) are pinned: a snapshot whose content drifted would change
    every downstream warm result too."""
    _, cold_report = _seed_map_store(tmp_path)
    _assert_matches(cold_report, golden["fleet_map_signatures"]["cold"],
                    "fleet-map cold wave")


@pytest.mark.parametrize("label,serve", [
    ("streaming", _streaming_serve),
    ("sharded", _sharded_serve),
])
def test_map_lifecycle_matches_golden_on_all_paths(golden, tmp_path, label, serve):
    """publish -> resolve -> update -> re-resolve, pinned on both engines.

    Each engine replays the full three-wave lifecycle against its own fresh
    store (the 2-shard cluster serves its shards in worker processes and
    publishes and applies for them): the cold wave's publishes, the warm
    wave's acquisitions *and* the MapUpdate deltas it hands back, and the
    updated wave's acquisition of the refreshed canonical must all be
    bit-identical to the pins — including the canonical versions before
    and after the update application."""
    cold_report, warm_report, updated_report = _lifecycle_reports(tmp_path, serve)
    _assert_matches(cold_report, golden["fleet_map_signatures"]["cold"],
                    f"fleet-map cold {label}")
    assert warm_report.map_acquisition_count > 0, f"{label}: nothing acquired"
    assert warm_report.map_update_count > 0, f"{label}: no updates produced"
    assert (dict(sorted(warm_report.fleet_maps.items()))
            == golden["fleet_map"]["versions"]), (
        f"{label}: canonical map version drifted from the pinned one")
    _assert_matches(warm_report, golden["fleet_map_signatures"]["warm"],
                    f"fleet-map warm {label}")
    assert (dict(sorted(updated_report.fleet_maps.items()))
            == golden["fleet_map"]["updated_versions"]), (
        f"{label}: post-update canonical version drifted from the pinned one")
    _assert_matches(updated_report, golden["fleet_map_signatures"]["updated"],
                    f"fleet-map updated {label}")


# ------------------------------------------------ window marginalization pin


def test_window_marginalization_matches_golden(golden, monkeypatch):
    """Window BA with marginalization, pinned through a served session.

    The wrapper counts ``KeyframeMapper._marginalize_oldest`` calls, so the
    pin cannot silently stop covering the marginalization path."""
    calls = []
    marginalize = KeyframeMapper._marginalize_oldest

    def counted(self, workload):
        calls.append(workload)
        return marginalize(self, workload)

    monkeypatch.setattr(KeyframeMapper, "_marginalize_oldest", counted)
    report = ServingEngine(store=None).serve(marginalization_fleet())
    assert calls, "no keyframe was marginalized — the pin would be vacuous"
    _assert_matches(report, golden["marginalization_signatures"],
                    "window marginalization")


# ------------------------------------------------------- control-plane pins


def _assert_control_plane(produced, pinned, label):
    assert len(produced) == len(pinned) == len(CONTROL_SEEDS)
    for wave, (got, expected) in enumerate(zip(produced, pinned)):
        assert got == expected, (
            f"{label} wave {wave}: the virtual-clock schedule drifted from the "
            f"pinned control plane")


def test_plain_control_plane_matches_golden(golden, tmp_path):
    """Throttled plain engine, three waves on one autoscaler: the schedule
    (not just the results) is pinned."""
    reports = _control_plane_reports(tmp_path, _plain_control_engine)
    assert all(report.deadline_misses for report in reports), \
        "a wave missed no deadline — its miss pins would be vacuous"
    assert any(decision.saturated for report in reports
               for decision in report.scale_decisions)
    _assert_control_plane(_control_plane(reports),
                          golden["control_plane"]["plain"], "plain")


@pytest.mark.parametrize("max_workers", ["1", "2"])
def test_cluster_control_plane_matches_golden(golden, tmp_path, monkeypatch,
                                              max_workers):
    """A 2-shard cluster's schedule is the same in-process and across
    worker processes."""
    monkeypatch.setenv("EUDOXUS_MAX_WORKERS", max_workers)
    reports = _control_plane_reports(tmp_path, _cluster_control_engine)
    assert all(sorted(set(report.shard_of.values())) == [0, 1]
               for report in reports), "a wave left one shard idle"
    assert all(report.deadline_misses for report in reports), \
        "a wave missed no deadline — its miss pins would be vacuous"
    _assert_control_plane(_control_plane(reports),
                          golden["control_plane"]["cluster"],
                          f"cluster (EUDOXUS_MAX_WORKERS={max_workers})")
