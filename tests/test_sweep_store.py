"""Content-addressed checkpoint store (ISSUE 6): scenario hashing, exact
row round-trips through both backends, and store-backed sweep resume that
recomputes only the missing/failed cells."""

import json
import sqlite3
from fractions import Fraction

import pytest

from repro import (
    FaultPlan,
    MemorySweepStore,
    ScenarioMatrix,
    SqliteSweepStore,
    run_sweep,
)
from repro.apps import fig1_scenario
from repro.errors import CheckpointError
from repro.experiment import scenario_hash
from repro.experiment.store import metrics_key, store_key
from repro.io import sweep_result_from_dict, sweep_result_to_dict

METRICS = ("executed_jobs", "makespan")


def fig1_matrix():
    return ScenarioMatrix(
        fig1_scenario(n_frames=1),
        {"processors": [2, 3], "jitter_seed": [0, 1]},
    )


@pytest.fixture(scope="module")
def clean():
    return run_sweep(fig1_matrix(), metrics=METRICS)


# ---------------------------------------------------------------------------
# content keys
# ---------------------------------------------------------------------------
class TestContentKeys:
    def test_hash_is_deterministic_and_content_addressed(self):
        a = fig1_scenario(n_frames=1)
        b = fig1_scenario(n_frames=1)
        assert scenario_hash(a) == scenario_hash(b)
        assert len(scenario_hash(a)) == 64  # sha256 hex
        # Any field change changes the key.
        assert scenario_hash(a) != scenario_hash(a.replace(processors=3))
        assert scenario_hash(a) != scenario_hash(a.replace(jitter_seed=1))

    def test_code_bearing_scenario_has_no_key(self):
        base = fig1_scenario(n_frames=1)
        bare = base.replace(workload=base.build_network)
        assert store_key(bare) is None
        assert store_key(base) == scenario_hash(base)

    def test_metrics_key_is_order_insensitive(self):
        assert metrics_key(("b", "a")) == metrics_key(("a", "b")) == "a,b"
        assert metrics_key(("a",)) != metrics_key(("a", "b"))


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------
class TestBackends:
    @pytest.fixture(params=["memory", "sqlite"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MemorySweepStore()
        return SqliteSweepStore(str(tmp_path / "sweep.db"))

    def test_round_trip_is_exact(self, store):
        row = {
            "makespan": Fraction(24967, 200),
            "executed_jobs": 8,
            "label": "x",
        }
        store.put("k" * 64, "a,b", row)
        restored = store.get("k" * 64, "a,b")
        assert restored == row
        assert isinstance(restored["makespan"], Fraction)
        assert ("k" * 64, "a,b") in store
        assert store.get("k" * 64, "other") is None
        assert len(store) == 1
        store.put("k" * 64, "a,b", {"executed_jobs": 9})  # last write wins
        assert store.get("k" * 64, "a,b") == {"executed_jobs": 9}
        assert len(store) == 1

    def test_context_manager_closes(self, store):
        with store as s:
            s.put("a", "m", {"v": 1})
        if isinstance(store, SqliteSweepStore):
            with pytest.raises(Exception):
                store._load("a", "m")

    def test_corrupt_payload_raises_checkpoint_error(self):
        store = MemorySweepStore()
        store._save("a", "m", "{not json")
        with pytest.raises(CheckpointError):
            store.get("a", "m")

    def test_sqlite_survives_reopen(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        with SqliteSweepStore(path) as store:
            run_sweep(fig1_matrix(), metrics=METRICS, store=store)
            assert len(store) == 4
        with SqliteSweepStore(path) as store:
            resumed = run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        assert resumed.stats.store_hits == 4
        assert resumed.stats.runs == 0

    def test_sqlite_bad_path_raises(self):
        with pytest.raises(CheckpointError):
            SqliteSweepStore("/no-such-directory/sweep.db")

    def test_sqlite_uses_wal_with_busy_timeout(self, tmp_path):
        with SqliteSweepStore(str(tmp_path / "sweep.db")) as store:
            assert store._conn.execute(
                "PRAGMA journal_mode"
            ).fetchone()[0] == "wal"
            assert store._conn.execute(
                "PRAGMA busy_timeout"
            ).fetchone()[0] == int(SqliteSweepStore.BUSY_TIMEOUT * 1000)
        # :memory: still works — no WAL (single-connection), no error.
        with SqliteSweepStore(":memory:") as store:
            store.put("a", "m", {"v": 1})
            assert store.get("a", "m") == {"v": 1}

    @staticmethod
    def _user_version(path):
        conn = sqlite3.connect(path)
        try:
            return conn.execute("PRAGMA user_version").fetchone()[0]
        finally:
            conn.close()

    def test_sqlite_stamps_a_fresh_file(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        with SqliteSweepStore(path):
            pass
        assert self._user_version(path) == SqliteSweepStore.SCHEMA_VERSION
        with SqliteSweepStore(":memory:") as store:
            assert store._conn.execute(
                "PRAGMA user_version"
            ).fetchone()[0] == SqliteSweepStore.SCHEMA_VERSION

    def test_sqlite_reopens_a_current_file_with_rows(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        with SqliteSweepStore(path) as store:
            store.put("a", "m", {"v": Fraction(1, 3)})
        with SqliteSweepStore(path) as store:
            assert store.get("a", "m") == {"v": Fraction(1, 3)}
        assert self._user_version(path) == SqliteSweepStore.SCHEMA_VERSION

    def _version0_file(self, path, rows):
        # The table layout of a store written before the version stamp.
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE sweep_rows ("
            " scenario_hash TEXT NOT NULL,"
            " metrics_key TEXT NOT NULL,"
            " payload TEXT NOT NULL,"
            " PRIMARY KEY (scenario_hash, metrics_key))"
        )
        conn.executemany("INSERT INTO sweep_rows VALUES (?, ?, ?)", rows)
        conn.commit()
        conn.close()

    def test_sqlite_refuses_an_unversioned_file_with_rows(self, tmp_path):
        path = str(tmp_path / "old.db")
        self._version0_file(path, [("a", "m", json.dumps({"v": 1}))])
        with pytest.raises(CheckpointError) as info:
            SqliteSweepStore(path)
        message = str(info.value)
        assert path in message
        assert "version 0" in message
        assert f"version {SqliteSweepStore.SCHEMA_VERSION}" in message
        # The refused file is left as it was: unstamped, its row intact.
        assert self._user_version(path) == 0
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM sweep_rows").fetchone() == (1,)
        conn.close()

    def test_sqlite_stamps_an_unversioned_empty_file(self, tmp_path):
        path = str(tmp_path / "old.db")
        self._version0_file(path, [])
        with SqliteSweepStore(path) as store:
            assert len(store) == 0
        assert self._user_version(path) == SqliteSweepStore.SCHEMA_VERSION

    def test_sqlite_refuses_a_newer_file(self, tmp_path):
        path = str(tmp_path / "new.db")
        conn = sqlite3.connect(path)
        conn.execute(
            f"PRAGMA user_version = {SqliteSweepStore.SCHEMA_VERSION + 1}"
        )
        conn.close()
        with pytest.raises(CheckpointError, match="schema version"):
            SqliteSweepStore(path)

    def test_sqlite_two_connections_read_write_concurrently(self, tmp_path):
        # A resident sweep service and an interactive session sharing one
        # checkpoint DB: interleaved reads and writes on two connections
        # must never raise 'database is locked' (WAL + busy_timeout).
        path = str(tmp_path / "sweep.db")
        with SqliteSweepStore(path) as writer, SqliteSweepStore(path) as reader:
            for i in range(50):
                writer.put(f"k{i}", "m", {"v": i})
                # The second connection reads rows the first just wrote,
                # while also writing its own interleaved rows.
                assert reader.get(f"k{i}", "m") == {"v": i}
                reader.put(f"r{i}", "m", {"v": -i})
                assert writer.get(f"r{i}", "m") == {"v": -i}
            assert len(writer) == len(reader) == 100


# ---------------------------------------------------------------------------
# store-backed sweeps: populate, hit, resume
# ---------------------------------------------------------------------------
class TestStoreBackedSweeps:
    def test_populate_then_full_hit(self, clean):
        store = MemorySweepStore()
        first = run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        assert first.rows == clean.rows
        assert first.stats.store_hits == 0
        assert first.stats.store_misses == 4
        assert first.stats.runs == 4
        assert len(store) == 4
        second = run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        # Bit-identical rows straight from the store: zero executions.
        assert second.rows == clean.rows
        assert second.stats.store_hits == 4
        assert second.stats.store_misses == 0
        assert second.stats.runs == 0
        assert second.stats.schedules_computed == 0

    def test_resume_recomputes_only_failed_cell(self, clean):
        store = MemorySweepStore()
        faulted = run_sweep(
            fig1_matrix(), metrics=METRICS, store=store,
            faults=FaultPlan(raise_at=(2,)),
        )
        assert faulted.stats.failed_cells == 1
        assert len(store) == 3  # failed cells are never persisted
        resumed = run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        assert resumed.rows == clean.rows
        assert resumed.stats.store_hits == 3
        assert resumed.stats.store_misses == 1
        assert resumed.stats.runs == 1
        assert resumed.stats.failed_cells == 0
        assert len(store) == 4

    def test_resume_after_interrupt(self, clean):
        store = MemorySweepStore()
        partial = run_sweep(
            fig1_matrix(), metrics=METRICS, store=store,
            faults=FaultPlan(interrupt_at=(2,)),
        )
        assert partial.stats.interrupted
        assert len(store) == 2
        resumed = run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        assert resumed.rows == clean.rows
        assert resumed.stats.store_hits == 2
        assert resumed.stats.store_misses == 2
        assert resumed.stats.runs == 2

    def test_metric_sets_are_isolated(self):
        store = MemorySweepStore()
        run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        other = run_sweep(
            fig1_matrix(), metrics=("executed_jobs",), store=store
        )
        # Same scenarios, different metric set: all misses, new entries.
        assert other.stats.store_hits == 0
        assert other.stats.store_misses == 4
        assert len(store) == 8

    def test_unhashable_cells_bypass_the_store(self):
        base = fig1_scenario(n_frames=1)
        matrix = ScenarioMatrix(
            base.replace(workload=base.build_network),
            {"processors": [2, 3]},
        )
        store = MemorySweepStore()
        result = run_sweep(matrix, metrics=METRICS, store=store)
        assert len(result.rows) == 2
        assert result.stats.store_hits == 0
        assert result.stats.store_misses == 0
        assert len(store) == 0

    def test_keep_results_bypasses_reads_not_writes(self, clean):
        store = MemorySweepStore()
        run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        kept = run_sweep(
            fig1_matrix(), metrics=METRICS, store=store, keep_results=True
        )
        # Retained sweeps need live runs: no hits, but rows match and the
        # fresh rows were (re)persisted.
        assert kept.stats.store_hits == 0
        assert kept.stats.runs == 4
        assert all(row.result is not None for row in kept.rows)
        assert [r.metrics for r in kept.rows] == [r.metrics for r in clean.rows]
        assert len(store) == 4

    def test_store_stats_round_trip(self):
        store = MemorySweepStore()
        run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        result = run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        restored = sweep_result_from_dict(
            json.loads(json.dumps(sweep_result_to_dict(result)))
        )
        assert restored.stats == result.stats
        assert restored.stats.store_hits == 4


# ---------------------------------------------------------------------------
# parallel sweeps use the store from the parent
# ---------------------------------------------------------------------------
class TestParallelStore:
    def test_parallel_populate_and_full_hit(self, clean):
        store = MemorySweepStore()
        first = run_sweep(
            fig1_matrix(), metrics=METRICS, store=store, workers=2
        )
        assert first.rows == clean.rows
        assert first.stats.store_misses == 4
        assert len(store) == 4
        # All hits: nothing to dispatch, no pool is spawned.
        second = run_sweep(
            fig1_matrix(), metrics=METRICS, store=store, workers=2
        )
        assert second.rows == clean.rows
        assert second.stats.store_hits == 4
        assert second.stats.runs == 0
        assert second.stats.workers == 1

    def test_parallel_resume_recomputes_only_missing(self, clean):
        store = MemorySweepStore()
        faulted = run_sweep(
            fig1_matrix(), metrics=METRICS, store=store, workers=2,
            faults=FaultPlan(raise_at=(2,)),
        )
        assert faulted.stats.failed_cells == 1
        assert len(store) == 3
        resumed = run_sweep(
            fig1_matrix(), metrics=METRICS, store=store, workers=2
        )
        assert resumed.rows == clean.rows
        assert resumed.stats.store_hits == 3
        assert resumed.stats.store_misses == 1
        assert resumed.stats.runs == 1
        assert len(store) == 4
