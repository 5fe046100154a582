"""One data phase per data key: sweep cells share channel-write counts.

By Prop. 2.1 the channel values of a run depend only on the network, its
job set, the stimulus and the frame count, so lean sweep cells (no
retained result, no data-consuming extra observer) that share those read
one data phase's write counts and run timing only.  ``keep_results=True``
is the full per-cell path and never shares, so every default sweep here
is checked against it row for row — over random workloads, fig1 and fft
under jitter x overheads x processors and a big/little platform, an
overloaded matrix whose frames overlap (the guard then makes every cell
run its own data phase), ``workers=2`` and a warm pool resubmission.
"""

import functools
import json
import random
from fractions import Fraction

import pytest

from repro import ScenarioMatrix, run_sweep
from repro.apps import fft, fig1_scenario, random_network, random_wcets
from repro.core.invocations import random_stimulus
from repro.core.platform import Platform
from repro.experiment import (
    DEFAULT_METRICS,
    Experiment,
    PipelineCache,
    Scenario,
    SweepPool,
)
from repro.experiment import pool as pool_mod
from repro.experiment.sweep import _frames_fit
from repro.runtime.observers import MetricsObserver
from repro.runtime.overheads import OverheadModel
from repro.taskgraph import derive_task_graph

OVERHEADS = [OverheadModel.none(), OverheadModel.mppa_like()]
#: Frames run past the next frame's start under these overheads.
OVERLOAD = OverheadModel.create(100, 100, 30)
BIG_LITTLE = Platform.of(("big", 2), ("little", 1, Fraction(1, 2)))


def assert_rows_match_full(matrix, metrics=DEFAULT_METRICS, **kwargs):
    """The default sweep of *matrix* against its ``keep_results`` twin."""
    lean = run_sweep(matrix, metrics, **kwargs)
    full = run_sweep(matrix, metrics, keep_results=True)
    assert lean.rows == full.rows
    assert [(r.cell, r.error.error_type) for r in lean.failed_rows] == [
        (r.cell, r.error.error_type) for r in full.failed_rows
    ]
    assert full.stats.data_phases == full.stats.runs
    return lean


def fig1_8cell():
    return ScenarioMatrix(
        fig1_scenario(n_frames=10),
        {"jitter_seed": [0, 1, 2, 3], "overheads": OVERHEADS},
    )


def random_scenario(seed):
    rng = random.Random(seed)
    factory = functools.partial(
        random_network, seed=seed, n_periodic=rng.randint(2, 4),
        n_sporadic=rng.randint(0, 1),
    )
    net = factory()
    wcets = random_wcets(net, seed=seed, utilization_target=0.4)
    frames = 3
    horizon = derive_task_graph(net, wcets).hyperperiod * frames
    return Scenario(
        workload=factory, wcet=wcets, processors=2, n_frames=frames,
        stimulus=random_stimulus(net, horizon, seed=seed),
    )


# ---------------------------------------------------------------------------
# default rows equal the full per-cell path
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_random_workloads(seed):
    matrix = ScenarioMatrix(random_scenario(seed), {
        "jitter_seed": [seed, seed + 1],
        "overheads": OVERHEADS + [OVERLOAD],
        "processors": [1, 2],
    })
    result = assert_rows_match_full(matrix)
    assert not result.failed_rows


@pytest.mark.parametrize("make", [fig1_scenario, fft.scenario])
def test_apps_over_jitter_overheads_and_processors(make):
    matrix = ScenarioMatrix(make(n_frames=8), {
        "jitter_seed": [0, 5],
        "overheads": OVERHEADS,
        "processors": [2, 3],
    })
    result = assert_rows_match_full(matrix)
    # One derivation, so one data key: one data phase for 8 cells.
    assert result.stats.data_phases == 1
    assert result.stats.runs == 8


@pytest.mark.parametrize("make", [fig1_scenario, fft.scenario])
def test_apps_over_platforms(make):
    matrix = ScenarioMatrix(make(n_frames=6), {
        "platform": [Platform.homogeneous(2), BIG_LITTLE],
        "jitter_seed": [0, 1],
    })
    result = assert_rows_match_full(matrix)
    assert result.stats.data_phases == 1


def test_cells_of_other_data_keys_run_their_own_data_phase():
    base = fig1_scenario(n_frames=6)
    other = random_stimulus(Experiment(base).network(), 1200, seed=3)
    matrix = ScenarioMatrix(base, {
        "stimulus": [base.stimulus, other],
        "n_frames": [4, 6],
        "jitter_seed": [0, 1],
    })
    result = assert_rows_match_full(matrix)
    assert result.stats.data_phases == 4


# ---------------------------------------------------------------------------
# the frame-overlap guard
# ---------------------------------------------------------------------------
def overloaded(make):
    return ScenarioMatrix(make(n_frames=5), {
        "jitter_seed": [0, 1, 2],
        "overheads": [OVERLOAD],
        "processors": [2, 3],
    })


@pytest.mark.parametrize("make", [fig1_scenario, fft.scenario])
def test_overlapping_cells_run_their_own_data_phase(make):
    matrix = overloaded(make)
    result = assert_rows_match_full(matrix)
    assert result.stats.data_phases == result.stats.runs == len(matrix)


def cell_frames_fit(scenario):
    observer = MetricsObserver()
    Experiment(scenario).run(observers=[observer])
    return _frames_fit(observer)


def test_overlapping_cells_neither_read_nor_fill_the_memo():
    matrix = overloaded(fig1_scenario)
    scenarios = matrix.scenarios()
    assert not any(map(cell_frames_fit, scenarios))
    full = run_sweep(matrix, ("channel_writes",), keep_results=True)

    cache = PipelineCache()
    assert run_sweep(matrix, ("channel_writes",), cache=cache).rows == full.rows
    assert cache.channel_writes(scenarios[0]) is None  # never filled

    cache.keep_channel_writes(scenarios[0], {"planted": 10 ** 9})
    after = run_sweep(matrix, ("channel_writes",), cache=cache)
    assert after.rows == full.rows  # never read
    assert after.stats.data_phases == len(matrix)
    assert cache.channel_writes(scenarios[0]) == {"planted": 10 ** 9}


def test_fitting_cells_read_the_memo():
    # The planted-count check above is sensitive: cells that pass the
    # guard do take their counts from the memo.
    matrix = fig1_8cell()
    scenarios = matrix.scenarios()
    assert all(map(cell_frames_fit, scenarios))
    cache = PipelineCache()
    cache.keep_channel_writes(scenarios[0], {"planted": 7})
    result = run_sweep(matrix, ("channel_writes",), cache=cache)
    assert result.column("channel_writes") == [7] * len(matrix)
    assert result.stats.data_phases == 0


# ---------------------------------------------------------------------------
# data phases counted per cache
# ---------------------------------------------------------------------------
def test_eight_cell_matrix_runs_one_data_phase():
    result = run_sweep(fig1_8cell(), DEFAULT_METRICS)
    assert (result.stats.runs, result.stats.data_phases) == (8, 1)


def test_kernel_busy_needs_no_data_phase():
    matrix = fig1_8cell()
    result = run_sweep(matrix, ("kernel_busy",))
    assert result.stats.data_phases == 0
    full = run_sweep(matrix, ("kernel_busy",), keep_results=True)
    assert result.rows == full.rows
    assert full.stats.data_phases == 8


def test_records_only_cells_may_ask_for_kernel_busy():
    matrix = ScenarioMatrix(
        fig1_scenario(n_frames=2, records_only=True), {"jitter_seed": [0]}
    )
    (row,) = run_sweep(matrix, ("kernel_busy",)).rows
    (full,) = run_sweep(
        ScenarioMatrix(fig1_scenario(n_frames=2), {"jitter_seed": [0]}),
        ("kernel_busy",), keep_results=True,
    ).rows
    assert row.metrics == full.metrics


def test_data_consuming_extra_observers_never_share():
    class Spans(MetricsObserver):
        def on_job_data_end(self, process, k, frame, end):
            super().on_job_data_end(process, k, frame, end)

    matrix = fig1_8cell()
    result = run_sweep(
        matrix, DEFAULT_METRICS, observer_factory=lambda cell: [Spans()]
    )
    assert result.stats.data_phases == len(matrix)
    assert result.rows == run_sweep(matrix, DEFAULT_METRICS).rows


@pytest.mark.parametrize("seed", range(4))
def test_kernel_busy_is_the_kernel_span_total(seed):
    scenario = random_scenario(seed).replace(
        jitter_seed=seed, overheads=OVERHEADS[seed % 2]
    )
    for s in (scenario, fig1_scenario(n_frames=3, jitter_seed=seed)):
        observer = MetricsObserver()
        Experiment(s).run(observers=[observer])
        spans = observer.kernel_span_stats()
        assert sum(observer.busy_times(), Fraction(0)) == sum(
            (stat.total_busy for stat in spans.values()), Fraction(0)
        )


# ---------------------------------------------------------------------------
# pooled backends
# ---------------------------------------------------------------------------
def test_workers2_rows_and_data_phases():
    matrix = ScenarioMatrix(fig1_scenario(n_frames=6), {
        "processors": [2, 3],
        "jitter_seed": [0, 1],
        "overheads": OVERHEADS + [OVERLOAD],
    })
    result = assert_rows_match_full(matrix, workers=2)
    assert result.stats.parallel_fallback is None
    # One data phase per worker group for the fitting cells, one per
    # overlapping cell.
    assert result.stats.data_phases == 2 + 4


def test_warm_pool_resubmission_runs_no_data_phase():
    matrix = fig1_8cell()
    serial = run_sweep(matrix, DEFAULT_METRICS, keep_results=True)
    with SweepPool(workers=1) as pool:
        cold = pool.submit(matrix, DEFAULT_METRICS).result()
        warm = pool.submit(matrix, DEFAULT_METRICS).result()
    assert cold.rows == warm.rows == serial.rows
    assert (cold.stats.data_phases, warm.stats.data_phases) == (1, 0)


def test_warm_worker_keeps_one_entry_per_cached_group():
    base = fig1_scenario(n_frames=4)
    caches = pool_mod._WorkerCaches(4, 4)

    def serve(stimulus, seeds):
        cells = list(ScenarioMatrix(
            base.replace(stimulus=stimulus),
            {"processors": [2], "jitter_seed": seeds},
        ).cells())
        payload = pool_mod._encode_service_group(cells, DEFAULT_METRICS)
        reply = json.loads(pool_mod._service_run_group(payload, caches))
        return sum(item["stages"][3] for item in reply["outcomes"])

    assert serve(base.stimulus, [0, 1]) == 1
    for seed in range(2, 12, 2):
        assert serve(base.stimulus, [seed, seed + 1]) == 0
    (cache,) = caches.pipelines.values()
    assert len(cache._writes) == 1
    # A new stimulus replaces the old one's entry.
    other = random_stimulus(Experiment(base).network(), 800, seed=9)
    assert serve(other, [0]) == 1
    assert len(cache._writes) == 1
