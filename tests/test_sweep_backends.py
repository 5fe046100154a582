"""Cross-backend differential suite: a serial sweep, ``run_sweep(workers=2)``
and a resident :class:`SweepPool` must agree on everything a sweep reports
— rows, failed rows, the streamed rows and the bookkeeping counters —
including checkpoint-store hits, repeated cells and injected faults."""

import json

import pytest

from repro import FaultPlan, MemorySweepStore, ScenarioMatrix, run_sweep
from repro.apps import fig1_scenario
from repro.experiment import Scenario, SweepPool
from repro.experiment.store import metrics_key, store_key
from repro.io.json_io import sweep_result_to_dict

METRICS = ("executed_jobs", "makespan")
STATS_FIELDS = ("cells", "runs", "failed_cells", "store_hits", "store_misses")

BACKENDS = ("serial", "workers2", "pool")


def mixed_matrix():
    """Two schedule keys; ``jitter_seed=0`` repeats within each key.

    Cell indices: 0 (p2, j0), 1 (p2, j1), 2 (p2, j0), 3 (p3, j0),
    4 (p3, j1), 5 (p3, j0).
    """
    return ScenarioMatrix(
        fig1_scenario(n_frames=1),
        {"processors": [2, 3], "jitter_seed": [0, 1, 0]},
    )


@pytest.fixture(scope="module")
def pool():
    with SweepPool(workers=2) as resident:
        yield resident


def sweep_on(backend, pool, matrix, **kwargs):
    """Run *matrix* on *backend*; the result plus every row streamed."""
    streamed = []
    kwargs["on_row"] = streamed.append
    if backend == "serial":
        result = run_sweep(matrix, METRICS, **kwargs)
    elif backend == "workers2":
        result = run_sweep(matrix, METRICS, workers=2, **kwargs)
        assert result.stats.parallel_fallback is None
    else:
        result = pool.submit(matrix, METRICS, **kwargs).result()
    return result, streamed


def prepopulated_store(matrix, indices):
    """A fresh store holding the clean rows of the cells at *indices*."""
    clean = run_sweep(matrix, METRICS)
    store = MemorySweepStore()
    mkey = metrics_key(METRICS)
    for cell, row in zip(matrix.cells(), clean.rows):
        if cell.index in indices:
            store.put(store_key(cell.scenario), mkey, row.metrics)
    return store


def row_key(row):
    return (
        tuple(sorted(row.cell.items())),
        tuple(sorted(row.metrics.items())),
    )


def summary(result, streamed):
    return {
        "rows": result.rows,
        "failed_rows": [(row.cell, row.error) for row in result.failed_rows],
        "streamed": sorted(map(row_key, streamed)),
        "stats": {
            name: getattr(result.stats, name) for name in STATS_FIELDS
        },
    }


@pytest.fixture(scope="module")
def serial_mixed():
    matrix = mixed_matrix()
    return summary(*sweep_on(
        "serial", None, matrix,
        store=prepopulated_store(matrix, {1, 3}),
        faults=FaultPlan(raise_at=(2,)),
    ))


@pytest.mark.parametrize("backend", BACKENDS)
def test_store_repeat_and_fault_agree(backend, pool, serial_mixed):
    matrix = mixed_matrix()
    got = summary(*sweep_on(
        backend, pool, matrix,
        store=prepopulated_store(matrix, {1, 3}),
        faults=FaultPlan(raise_at=(2,)),
    ))
    assert got == serial_mixed
    # Hits resolve once at submission: (p2, j1) and both (p3, j0) copies
    # hit; the repeated (p2, j0) copy is a miss, runs, and takes the fault.
    assert got["stats"] == {
        "cells": 6, "runs": 2, "failed_cells": 1,
        "store_hits": 3, "store_misses": 3,
    }
    assert [cell for cell, _ in got["failed_rows"]] == [
        {"processors": 2, "jitter_seed": 0}
    ]
    error = got["failed_rows"][0][1]
    assert (error.error_type, error.stage, error.retries) == (
        "InjectedFault", "run", 0
    )
    assert len(got["rows"]) == len(got["streamed"]) == 5


@pytest.mark.parametrize("backend", BACKENDS)
def test_repeated_cells_all_run_against_fresh_store(backend, pool):
    matrix = ScenarioMatrix(
        fig1_scenario(n_frames=1),
        {"processors": [2, 3], "jitter_seed": [0, 0]},
    )
    result, streamed = sweep_on(
        backend, pool, matrix, store=MemorySweepStore()
    )
    assert len(result.rows) == len(streamed) == 4
    assert (result.stats.runs, result.stats.store_hits,
            result.stats.store_misses) == (4, 0, 4)


def test_dispatch_plan_inspects_each_cell_once(monkeypatch):
    # An all-hit matrix plans the fan-out but dispatches nothing, so every
    # call counted below comes from the parent's dispatch planning.
    matrix = mixed_matrix()
    store = prepopulated_store(matrix, set(range(len(matrix))))
    calls = {"dispatch_blocker": 0, "schedule_key": 0}
    for name in calls:
        original = getattr(Scenario, name)

        def counted(self, _original=original, _name=name):
            calls[_name] += 1
            return _original(self)

        monkeypatch.setattr(Scenario, name, counted)
    result = run_sweep(matrix, METRICS, workers=2, store=store)
    assert result.stats.parallel_fallback is None
    assert result.stats.store_hits == len(matrix)
    assert calls == {"dispatch_blocker": 6, "schedule_key": 6}


@pytest.mark.parametrize("backend", BACKENDS)
def test_resumed_sweep_document_matches_fresh(backend, pool):
    # Requested metric order is not sorted order: a row served from the
    # store must list its metrics as a computed row does, so the resumed
    # table serialises byte for byte like the fresh one.
    metrics = ("makespan", "executed_jobs")
    matrix = ScenarioMatrix(
        fig1_scenario(n_frames=1), {"processors": [2, 3]}
    )
    store = MemorySweepStore()

    def document(result):
        doc = sweep_result_to_dict(result)
        del doc["stats"]
        return json.dumps(doc)

    def sweep():
        if backend == "serial":
            return run_sweep(matrix, metrics, store=store)
        if backend == "workers2":
            return run_sweep(matrix, metrics, workers=2, store=store)
        return pool.submit(matrix, metrics, store=store).result()

    fresh = sweep()
    resumed = sweep()
    assert (fresh.stats.runs, resumed.stats.store_hits) == (2, 2)
    assert [list(row.metrics) for row in resumed.rows] == [list(metrics)] * 2
    assert document(resumed) == document(fresh)
