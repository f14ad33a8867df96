"""Golden-signature regression suite for the serving layer.

``tests/data/serving_signatures.json`` pins the
:meth:`~repro.serving.session.SessionResult.signature` of a small canonical
fleet, served through the arrival-time streaming event loop, and of a
three-wave fleet-map lifecycle served both by the plain engine and by a
2-shard cluster whose shards run in worker processes.  Both must
reproduce those exact digests.  This catches *silent determinism drift*: a
change that perturbs
poses or mode switches without failing any behavioral test (a reordered
reduction, an RNG stream that moved, a segment rebuilt with different
stitching) shows up here as a signature mismatch.

When a change intentionally alters the served results (new noise model,
different backend math), regenerate the pins and review the diff:

    EUDOXUS_REGEN_GOLDEN=1 python -m pytest tests/test_serving_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.cluster import ShardedServingEngine
from repro.maps import MapStore
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
    # every wave goes through the worker-process payload path.
    report = ShardedServingEngine(2, map_store=store, min_map_quality=MAP_GATE,
                                  slot_count=3, shard_parallel=True).serve(fleet)
    assert sorted(report.shard_of.values()) == [0, 1]
    return report


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
