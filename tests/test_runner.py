"""Tests for the parallel experiment engine and its persistent run store."""

import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.modes import BackendMode
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    ExperimentCell,
    ExperimentGrid,
    ExperimentRunner,
    RunStore,
    code_fingerprint,
    execute_cell,
    fan_out,
)
from repro.sensors.scenarios import ScenarioKind


def _double_payload(payload):
    """Module-level so it can cross the process boundary in pool tests."""
    return {"doubled": payload["x"] * 2}


def _marked_payload(payload):
    """Leave one marker file per run, naming the process; then exit the
    worker, raise, or double, as the payload asks."""
    pid = os.getpid()
    with open(os.path.join(payload["marks"], f"{payload['x']}-{pid}"), "w"):
        pass
    if payload.get("exit_in_worker") and pid != payload["parent"]:
        os._exit(1)
    if payload.get("fail"):
        raise RuntimeError(f"payload {payload['x']} failed")
    return {"doubled": payload["x"] * 2, "pid": pid}


def _marks(tmp_path, x):
    """The pids that ran payload ``x``, one per run."""
    return [int(name.split("-")[1]) for name in os.listdir(tmp_path)
            if name.split("-")[0] == str(x)]


def _cell(seed: int = 0, **overrides) -> ExperimentCell:
    defaults = dict(
        scenario=ScenarioKind.OUTDOOR_UNKNOWN,
        mode=BackendMode.VIO,
        platform_kind="drone",
        duration=2.0,
        camera_rate_hz=10.0,
        landmark_count=100,
        seed=seed,
    )
    defaults.update(overrides)
    return ExperimentCell(**defaults)


class TestGridExpansion:
    def test_full_grid_size_and_determinism(self):
        grid = ExperimentGrid(
            scenarios=(ScenarioKind.INDOOR_KNOWN, ScenarioKind.OUTDOOR_KNOWN),
            modes=(BackendMode.VIO, BackendMode.SLAM),
            platform_kinds=("car", "drone"),
            frame_rates=(5.0, 10.0),
            seeds=(0, 1),
        )
        cells = grid.expand()
        assert len(cells) == 2 * 2 * 2 * 2 * 2
        assert cells == grid.expand()  # deterministic order

    def test_registration_dropped_without_map(self):
        grid = ExperimentGrid(
            scenarios=tuple(ScenarioKind),
            modes=(BackendMode.REGISTRATION, BackendMode.VIO),
        )
        cells = grid.expand()
        registration_scenarios = {
            c.scenario for c in cells if c.mode is BackendMode.REGISTRATION
        }
        assert registration_scenarios == {ScenarioKind.INDOOR_KNOWN, ScenarioKind.OUTDOOR_KNOWN}
        # VIO applies everywhere.
        assert {c.scenario for c in cells if c.mode is BackendMode.VIO} == set(ScenarioKind)

    def test_skip_inapplicable_can_be_disabled(self):
        grid = ExperimentGrid(
            scenarios=(ScenarioKind.INDOOR_UNKNOWN,),
            modes=(BackendMode.REGISTRATION,),
            skip_inapplicable=False,
        )
        assert len(grid.expand()) == 1

    def test_auto_mode_cells(self):
        grid = ExperimentGrid(scenarios=(ScenarioKind.OUTDOOR_UNKNOWN,), modes=(None,))
        cells = grid.expand()
        assert len(cells) == 1 and cells[0].mode is None

    def test_cell_payload_roundtrip(self):
        cell = _cell(seed=3, mode=None)
        assert ExperimentCell.from_payload(cell.payload()) == cell


class TestSerialParallelEquivalence:
    def test_results_identical(self):
        cells = [_cell(seed=0), _cell(seed=1)]
        serial = ExperimentRunner(store=None, max_workers=1).run_cells(cells)
        parallel_runner = ExperimentRunner(store=None, max_workers=2)
        parallel = parallel_runner.run_cells(cells)
        for cell in cells:
            a, b = serial[cell], parallel[cell]
            assert abs(a.rmse_error() - b.rmse_error()) < 1e-9
            for ea, eb in zip(a.estimates, b.estimates):
                assert np.array_equal(ea.pose.translation, eb.pose.translation)
                assert np.array_equal(ea.pose.rotation, eb.pose.rotation)
                assert ea.mode == eb.mode

    def test_memo_returns_same_object(self):
        runner = ExperimentRunner(store=None, max_workers=1)
        cell = _cell()
        assert runner.run_cell(cell) is runner.run_cell(cell)

    def test_memo_invalidated_on_config_change(self, monkeypatch):
        """A config change mid-session must bypass the in-process memo too."""
        runner = ExperimentRunner(store=None, max_workers=1)
        cell = _cell()
        first = runner.run_cell(cell)

        original_factory = runner_module.localizer_config_for

        def modified_config(platform_kind):
            config = original_factory(platform_kind)
            config.backend.msckf.window_size = 7
            return config

        monkeypatch.setattr(runner_module, "localizer_config_for", modified_config)
        second = runner.run_cell(cell)
        assert second is not first
        assert runner.stats.computed == 2

    def test_duplicate_cells_computed_once(self):
        runner = ExperimentRunner(store=None, max_workers=1)
        cell = _cell()
        results = runner.run_cells([cell, cell])
        assert len(results) == 1
        assert runner.stats.computed == 1


class TestRunStore:
    def test_disk_hit_skips_recomputation(self, tmp_path):
        store = RunStore(tmp_path)
        cell = _cell()
        first_runner = ExperimentRunner(store=store, max_workers=1)
        first = first_runner.run_cell(cell)
        assert first_runner.stats.computed == 1
        assert len(store) == 1

        # A fresh runner (fresh process in real life) resolves from disk.
        second_runner = ExperimentRunner(store=RunStore(tmp_path), max_workers=1)
        second = second_runner.run_cell(cell)
        assert second_runner.stats.computed == 0
        assert second_runner.stats.disk_hits == 1
        assert abs(first.rmse_error() - second.rmse_error()) < 1e-9

    def test_miss_on_different_cell(self, tmp_path):
        store = RunStore(tmp_path)
        runner = ExperimentRunner(store=store, max_workers=1)
        runner.run_cell(_cell(seed=0))
        fresh = ExperimentRunner(store=RunStore(tmp_path), max_workers=1)
        fresh.run_cell(_cell(seed=1))
        assert fresh.stats.computed == 1
        assert len(store) == 2

    def test_key_invalidated_on_config_change(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        cell = _cell()
        original_key = store.key_for(cell)
        ExperimentRunner(store=store, max_workers=1).run_cell(cell)

        original_factory = runner_module.localizer_config_for

        def modified_config(platform_kind):
            config = original_factory(platform_kind)
            config.backend.msckf.window_size = 7  # a config default changed
            return config

        monkeypatch.setattr(runner_module, "localizer_config_for", modified_config)
        assert store.key_for(cell) != original_key
        assert store.load(cell) is None  # the old entry no longer matches

        fresh = ExperimentRunner(store=store, max_workers=1)
        fresh.run_cell(cell)
        assert fresh.stats.computed == 1

    def test_corrupted_entry_recovered(self, tmp_path):
        store = RunStore(tmp_path)
        cell = _cell()
        runner = ExperimentRunner(store=store, max_workers=1)
        expected = runner.run_cell(cell)

        store.path_for(cell).write_bytes(b"not a pickle at all")
        fresh_store = RunStore(tmp_path)
        fresh = ExperimentRunner(store=fresh_store, max_workers=1)
        result = fresh.run_cell(cell)
        assert fresh_store.dropped == 1
        assert fresh.stats.computed == 1
        assert abs(result.rmse_error() - expected.rmse_error()) < 1e-9
        # The recomputed entry was re-persisted and is loadable again.
        assert RunStore(tmp_path).load(cell) is not None

    def test_wrong_payload_type_treated_as_corruption(self, tmp_path):
        store = RunStore(tmp_path)
        cell = _cell()
        store.root.mkdir(parents=True, exist_ok=True)
        store.path_for(cell).write_bytes(pickle.dumps({"not": "a result"}))
        assert store.load(cell) is None
        assert store.dropped == 1

    def test_unwritable_store_degrades_to_computation(self):
        """A bad cache root (e.g. misconfigured EUDOXUS_RUN_CACHE) must not
        crash the run — the result is computed and simply not persisted."""
        store = RunStore("/proc/nonexistent-run-store")
        runner = ExperimentRunner(store=store, max_workers=1)
        result = runner.run_cell(_cell())
        assert runner.stats.computed == 1
        assert result.rmse_error() > 0.0
        assert len(store) == 0

    def test_clear_removes_entries(self, tmp_path):
        store = RunStore(tmp_path)
        ExperimentRunner(store=store, max_workers=1).run_cell(_cell())
        assert len(store) == 1
        store.clear()
        assert len(store) == 0

    def test_stale_tmp_swept_but_live_writers_spared(self, tmp_path):
        stale = tmp_path / "abc.tmp.123"
        stale.write_bytes(b"orphan from a crashed writer")
        two_hours_ago = time.time() - 7200
        os.utime(stale, (two_hours_ago, two_hours_ago))
        in_flight = tmp_path / "def.tmp.456"
        in_flight.write_bytes(b"another process mid-save")

        store = RunStore(tmp_path)
        assert not stale.exists()     # old orphan removed on init
        assert in_flight.exists()     # recent (possibly live) write untouched
        store.clear()
        assert not in_flight.exists()  # clear removes temp files regardless of age

    def test_failed_pickle_leaves_no_temp_file(self, tmp_path):
        """A payload that cannot be pickled raises, and its half-written
        temp file is removed at once, not left for the stale sweep."""
        store = RunStore(tmp_path)

        def local_function():
            pass

        with pytest.raises((pickle.PicklingError, AttributeError)):
            store.save_key("unpicklable", {"result": local_function})
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert store.load_key("unpicklable") is None

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestExecuteCell:
    def test_mode_override_respected(self):
        result = execute_cell(_cell(mode=BackendMode.SLAM, scenario=ScenarioKind.INDOOR_UNKNOWN))
        assert all(estimate.mode == "slam" for estimate in result.estimates)

    def test_auto_mode_follows_scenario(self):
        result = execute_cell(_cell(mode=None, scenario=ScenarioKind.OUTDOOR_UNKNOWN))
        assert all(estimate.mode == "vio" for estimate in result.estimates)


class TestStoreEviction:
    """The run store is a bounded LRU: size and age limits, hits refresh."""

    def _fill(self, store, keys, size=64):
        for i, key in enumerate(keys):
            store.save_key(key, b"x" * size)
            # Space the mtimes out so LRU order is unambiguous.
            entry = store.path_for(key)
            stamp = time.time() - 1000.0 + 10.0 * i
            os.utime(entry, (stamp, stamp))

    def test_size_bound_evicts_least_recently_used(self, tmp_path):
        store = RunStore(tmp_path, max_bytes=-1, max_age_s=-1)
        self._fill(store, ["a", "b", "c", "d"])
        sizes = [store.path_for(k).stat().st_size for k in ("a", "b", "c", "d")]
        removed = store.evict(max_bytes=sum(sizes[2:]) + 1)
        assert removed == 2
        assert not store.path_for("a").exists() and not store.path_for("b").exists()
        assert store.path_for("c").exists() and store.path_for("d").exists()

    def test_age_bound_evicts_expired_entries(self, tmp_path):
        store = RunStore(tmp_path, max_bytes=-1, max_age_s=-1)
        self._fill(store, ["old", "new"])
        old = store.path_for("old")
        stamp = time.time() - 7200.0
        os.utime(old, (stamp, stamp))
        removed = store.evict(max_age_s=3600.0)
        assert removed == 1
        assert not old.exists() and store.path_for("new").exists()

    def test_hit_refreshes_recency(self, tmp_path):
        store = RunStore(tmp_path, max_bytes=-1, max_age_s=-1)
        self._fill(store, ["cold", "hot"])
        # Make "hot" the older entry, then touch it via a load.
        stamp = time.time() - 5000.0
        os.utime(store.path_for("hot"), (stamp, stamp))
        assert store.load_key("hot") == b"x" * 64
        removed = store.evict(max_bytes=store.path_for("cold").stat().st_size + 1)
        assert removed == 1
        assert store.path_for("hot").exists() and not store.path_for("cold").exists()

    def test_eviction_applied_on_construction(self, tmp_path):
        store = RunStore(tmp_path, max_bytes=-1, max_age_s=-1)
        self._fill(store, ["stale"])
        stamp = time.time() - 10 * 86400.0
        os.utime(store.path_for("stale"), (stamp, stamp))
        rebuilt = RunStore(tmp_path, max_age_s=5 * 86400.0, max_bytes=-1)
        assert rebuilt.evicted == 1
        assert len(rebuilt) == 0

    def test_bounds_disabled_with_nonpositive_values(self, tmp_path):
        store = RunStore(tmp_path, max_bytes=-1, max_age_s=-1)
        assert store.max_bytes is None and store.max_age_s is None
        self._fill(store, ["keep"])
        assert store.evict() == 0
        assert store.path_for("keep").exists()

    def test_env_bounds_parsed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(runner_module.STORE_MAX_MB_ENV, "2")
        monkeypatch.setenv(runner_module.STORE_MAX_AGE_DAYS_ENV, "1.5")
        store = RunStore(tmp_path)
        assert store.max_bytes == 2 * 1024 * 1024
        assert store.max_age_s == 1.5 * 86400.0
        monkeypatch.setenv(runner_module.STORE_MAX_MB_ENV, "not-a-number")
        monkeypatch.setenv(runner_module.STORE_MAX_AGE_DAYS_ENV, "0")
        fallback = RunStore(tmp_path)
        assert fallback.max_bytes == runner_module.DEFAULT_STORE_MAX_MB * 1024 * 1024
        assert fallback.max_age_s is None


class TestStoreEdgeCases:
    """Races and degenerate configurations the store must absorb quietly."""

    def test_eviction_under_concurrent_writers(self, tmp_path):
        """Writers and an evictor hammering one root never corrupt the store.

        Saves are atomic (temp + rename) and eviction tolerates entries
        appearing or vanishing between its directory scan and its unlinks,
        so interleaving them arbitrarily must neither raise nor leave a
        half-written entry behind.
        """
        store = RunStore(tmp_path, max_bytes=-1, max_age_s=-1)
        errors = []
        stop = threading.Event()

        def writer(worker):
            try:
                i = 0
                while not stop.is_set():
                    store.save_key(f"w{worker}-{i % 25}", b"x" * 256)
                    i += 1
            except Exception as exc:  # pragma: no cover - the failure signal
                errors.append(exc)

        def evictor():
            try:
                while not stop.is_set():
                    store.evict(max_bytes=4 * 256)
            except Exception as exc:  # pragma: no cover - the failure signal
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
        threads.append(threading.Thread(target=evictor))
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        # Every surviving entry is whole: loadable or a clean miss, never a
        # crash; and the store still accepts new work.
        for path in list(store.root.glob("*.pkl")):
            store.load_key(path.stem)
        assert store.save_key("after-the-storm", b"y" * 16) is not None
        assert store.load_key("after-the-storm") == b"y" * 16

    def test_corrupted_entry_recovery_mid_eviction(self, tmp_path):
        """A concurrently-evicted or corrupted entry degrades to a miss."""
        store = RunStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.save_key("corrupt", b"payload")
        store.save_key("vanishing", b"payload")
        # Corruption lands mid-life (another writer died partway through).
        store.path_for("corrupt").write_bytes(b"\x80\x04 truncated garbage")
        # Eviction ranks by mtime/size only — it must not choke on the
        # unreadable entry, and unlinking it is legitimate LRU work.
        assert store.evict(max_bytes=0.5) >= 1
        # A reader that raced the evictor sees clean misses either way.
        racing = RunStore(tmp_path, max_bytes=-1, max_age_s=-1)
        assert racing.load_key("corrupt") is None
        assert racing.load_key("vanishing") is None
        # And the keys are immediately writable again.
        store.save_key("corrupt", b"recomputed")
        assert store.load_key("corrupt") == b"recomputed"

    def test_eviction_tolerates_vanishing_files(self, tmp_path, monkeypatch):
        """An entry unlinked between the scan and the unlink is not an error."""
        store = RunStore(tmp_path, max_bytes=-1, max_age_s=-1)
        store.save_key("mine", b"x" * 64)
        store.save_key("theirs", b"x" * 64)
        original_unlink = runner_module.Path.unlink

        def racing_unlink(self, *args, **kwargs):
            # Another evictor got there first: the file is already gone.
            original_unlink(self, *args, **kwargs)
            raise FileNotFoundError(self)

        monkeypatch.setattr(runner_module.Path, "unlink", racing_unlink)
        removed = store.evict(max_bytes=1)
        monkeypatch.undo()
        assert removed == 0  # both unlinks "lost the race"...
        assert len(store) == 0  # ...but the files are gone regardless

    def test_zero_max_mb_env_disables_size_bound(self, tmp_path, monkeypatch):
        """EUDOXUS_RUN_CACHE_MAX_MB=0 means unbounded, not evict-everything."""
        monkeypatch.setenv(runner_module.STORE_MAX_MB_ENV, "0")
        monkeypatch.setenv(runner_module.STORE_MAX_AGE_DAYS_ENV, "0")
        store = RunStore(tmp_path)
        assert store.max_bytes is None and store.max_age_s is None
        for i in range(8):
            store.save_key(f"entry-{i}", b"x" * 1024)
        assert store.evict() == 0
        assert len(store) == 8
        rebuilt = RunStore(tmp_path)  # construction-time sweep is a no-op too
        assert rebuilt.evicted == 0
        assert len(rebuilt) == 8


class TestFanOut:
    """The process fan-out the runner and the sharded coordinator share."""

    def test_fan_out_spawns_a_pool_and_yields_every_payload(self):
        payloads = [{"x": i} for i in range(5)]
        spawned = []
        results = dict(fan_out(_double_payload, payloads, 2,
                               on_pool=lambda: spawned.append(True)))
        assert {i: r["doubled"] for i, r in results.items()} == \
            {i: 2 * i for i in range(5)}
        assert spawned == [True]  # reported once, after a worker answered

    def test_width_one_runs_in_process(self):
        payloads = [{"x": i} for i in range(3)]
        spawned = []
        results = dict(fan_out(_double_payload, payloads, 1,
                               on_pool=lambda: spawned.append(True)))
        assert not spawned
        assert results[2]["doubled"] == 4

    def test_payload_error_propagates_after_one_worker_run(self, tmp_path):
        payloads = [{"x": i, "marks": str(tmp_path), "parent": os.getpid(),
                     "fail": i == 1} for i in range(3)]
        with pytest.raises(RuntimeError, match="payload 1 failed"):
            list(fan_out(_marked_payload, payloads, 2))
        # The payload's own error is not a pool failure: it is never rerun,
        # least of all in the parent.
        runs = _marks(tmp_path, 1)
        assert len(runs) == 1 and runs[0] != os.getpid()

    def test_dead_worker_payloads_rerun_in_process(self, tmp_path):
        payloads = [{"x": i, "marks": str(tmp_path), "parent": os.getpid(),
                     "exit_in_worker": i == 1} for i in range(4)]
        yielded = list(fan_out(_marked_payload, payloads, 2))
        assert sorted(index for index, _ in yielded) == [0, 1, 2, 3]
        results = dict(yielded)
        assert {i: r["doubled"] for i, r in results.items()} == \
            {i: 2 * i for i in range(4)}
        # The payload that killed its worker was computed in-process.
        assert results[1]["pid"] == os.getpid()

    def test_pool_creation_failure_runs_in_process(self, tmp_path,
                                                   monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_pool)
        payloads = [{"x": i, "marks": str(tmp_path), "parent": os.getpid()}
                    for i in range(3)]
        spawned = []
        results = dict(fan_out(_marked_payload, payloads, 2,
                               on_pool=lambda: spawned.append(True)))
        assert not spawned
        assert all(result["pid"] == os.getpid() for result in results.values())
        assert sorted(results) == [0, 1, 2]
