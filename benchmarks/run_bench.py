#!/usr/bin/env python
"""Perf-trajectory runner for the E1-E10 benchmark suite.

Runs the same workloads the ``test_bench_e*`` modules exercise — task-graph
derivation, list scheduling, priority search, runtime simulation and the
determinism matrix — and writes a ``BENCH_<date>.json`` file with wall
times and problem sizes.  Committing one such file per perf-relevant PR
gives the repository a perf trajectory: future changes can be compared
against any past baseline with plain ``diff``/``jq``.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                # full run
    PYTHONPATH=src python benchmarks/run_bench.py --fast         # smoke lane
    PYTHONPATH=src python benchmarks/run_bench.py --label seed \
        --output benchmarks/BENCH_2026-07-28_seed.json
    PYTHONPATH=src python benchmarks/run_bench.py --ab ../parent \
        e9_schedule_40s --rounds 15                           # A/B

``--ab PARENT_TREE CASE...`` compares this checkout with another one
(``PARENT_TREE`` holds its ``src/``): one resident process per tree runs
this file's case definitions against that tree's ``repro``, the two
alternate call by call for ``--rounds`` rounds (which side goes first
flips every round), and the report gives each side's median and
interquartile range per case, the speedup of the medians and how many
rounds the change won.

The two headline cases for the tick-domain optimisation are
``e9_schedule_40s`` (list scheduling of the ~2.8k-job 40 s-hyperperiod FMS
graph) and ``fms_sim_100`` (100 frames of ``run_static_order`` on the
reduced FMS network).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.analysis import check_determinism
from repro.apps import (
    build_fft_network,
    build_fig1_network,
    build_fms_network,
    fig1_stimulus,
    fig1_wcets,
    fft,
    fft_stimulus,
    fft_wcets,
    fms_scenario,
    fms_stimulus,
    fms_wcets,
)
from repro.experiment import (
    DEFAULT_METRICS,
    TIMING_METRICS,
    PipelineCache,
    ScenarioMatrix,
    run_sweep,
)
from repro.io import runtime_result_to_vcd
from repro.runtime import (
    OverheadModel,
    jittered_execution,
    kernel_span_stats,
    run_static_order,
)
from repro.scheduling import (
    find_feasible_schedule,
    list_schedule,
    schedule_quality,
    search_priorities,
)
from repro.taskgraph import derive_task_graph

Case = Tuple[str, Callable[[bool], Tuple[Callable[[], object], Dict[str, object]]]]


# ----------------------------------------------------------------------
# Case definitions.  Each builder does the untimed setup and returns
# ``(timed_callable, metadata)``; only the callable is measured.
# ----------------------------------------------------------------------

def _case_e1_fig1_derivation(fast: bool):
    net = build_fig1_network()
    return lambda: derive_task_graph(net, 25), {"experiment": "E1"}


def _case_e2_fig4_schedule(fast: bool):
    graph = derive_task_graph(build_fig1_network(), 25)
    return lambda: find_feasible_schedule(graph, 2), {
        "experiment": "E2",
        "jobs": len(graph),
    }


def _case_e3_fft_schedule(fast: bool):
    graph = derive_task_graph(build_fft_network(), fft_wcets())
    return lambda: find_feasible_schedule(graph, 2), {
        "experiment": "E3",
        "jobs": len(graph),
    }


def _case_e4_fms_derivation(fast: bool):
    net = build_fms_network()
    wcets = fms_wcets()
    return lambda: derive_task_graph(net, wcets), {"experiment": "E4"}


def _case_e4_fms_schedule(fast: bool):
    graph = derive_task_graph(build_fms_network(), fms_wcets())
    return lambda: find_feasible_schedule(graph, 1), {
        "experiment": "E4",
        "jobs": len(graph),
    }


def _case_e6_determinism_fig1(fast: bool):
    net = build_fig1_network()
    frames = 2 if fast else 4
    stim = fig1_stimulus(frames)
    return (
        lambda: check_determinism(
            net, fig1_wcets(), frames, stim, (2, 3), ("alap", "arrival"), (0, 1)
        ),
        {"experiment": "E6", "frames": frames},
    )


def _case_e7_overhead_sim(fast: bool):
    net = build_fft_network()
    graph = derive_task_graph(net, fft_wcets())
    schedule = find_feasible_schedule(graph, 2)
    overheads = OverheadModel.mppa_like()
    frames = 4 if fast else 16
    stim = fft_stimulus([[k, k + 1j, -k, 0.5 * k] for k in range(frames)])
    return (
        lambda: run_static_order(net, schedule, frames, stim, overheads=overheads),
        {"experiment": "E7", "frames": frames, "jobs": len(graph)},
    )


def _case_e8_heuristics(fast: bool):
    graph = derive_task_graph(build_fms_network(), fms_wcets())

    def sweep():
        return [
            schedule_quality(graph, 1, name)
            for name in ("alap", "blevel", "deadline", "arrival")
        ]

    return sweep, {"experiment": "E8", "jobs": len(graph)}


def _case_e8_search(fast: bool):
    graph = derive_task_graph(build_fig1_network(), 25)
    iters = 200 if fast else 600
    return (
        lambda: search_priorities(graph, 1, seed=0, max_iterations=iters, restarts=2),
        {"experiment": "E8", "jobs": len(graph), "iterations": iters},
    )


def _case_e9_derive_40s(fast: bool):
    net = build_fms_network(reduced_hyperperiod=False)
    wcets = fms_wcets()
    return lambda: derive_task_graph(net, wcets), {"experiment": "E9"}


def _case_e9_graph_build_40s(fast: bool):
    """``TaskGraph(jobs, edges, H)`` alone on the fms-40s graph: the
    constructor's edge checks and sorted adjacency tuples, with the
    derivation that produced the jobs and edges untimed."""
    from repro.taskgraph.graph import TaskGraph

    graph = derive_task_graph(build_fms_network(reduced_hyperperiod=False), fms_wcets())
    jobs, edges, hyperperiod = graph.jobs, graph.edges(), graph.hyperperiod
    return lambda: TaskGraph(jobs, edges, hyperperiod), {
        "experiment": "E9",
        "jobs": len(jobs),
        "edges": len(edges),
    }


def _case_e9_schedule_40s(fast: bool):
    graph = derive_task_graph(build_fms_network(reduced_hyperperiod=False), fms_wcets())
    return lambda: find_feasible_schedule(graph, 1), {
        "experiment": "E9",
        "jobs": len(graph),
    }


def _case_e9_schedule_loop_40s(fast: bool):
    """The list-scheduling event loop alone on the same graph: the duration
    table and the ``alap`` ranks are built untimed, so every call measures
    what one priority-search candidate pays."""
    from repro.core.platform import Platform
    from repro.scheduling.list_scheduler import _schedule_ticks
    from repro.scheduling.priorities import alap_priority

    graph = derive_task_graph(build_fms_network(reduced_hyperperiod=False), fms_wcets())
    table = graph.platform_ticks(Platform.homogeneous(1))
    ranks = alap_priority(graph)
    return lambda: _schedule_ticks(graph, table, ranks), {
        "experiment": "E9",
        "jobs": len(graph),
    }


def _case_e9_check_40s(fast: bool):
    """The Definition 3.2 check and the run plan's check on the same
    graph: each call wraps the ``alap`` schedule's arrays (computed once,
    untimed) in a fresh schedule through the trusted constructor, an
    O(1) build, then reads ``violation_count()`` and builds the run plan,
    as a sweep cell with a new schedule key does."""
    from repro.runtime.static_order import RunPlan
    from repro.scheduling.schedule import StaticSchedule

    graph = derive_task_graph(build_fms_network(reduced_hyperperiod=False), fms_wcets())
    schedule = list_schedule(graph, 1, "alap")
    start_t, proc_of = schedule.tick_view()[1], schedule.mapping_table()

    def check():
        fresh = StaticSchedule._from_ticks(graph, schedule.platform, start_t, proc_of)
        fresh.violation_count()
        return RunPlan.of(fresh)

    return check, {"experiment": "E9", "jobs": len(graph)}


def _case_e10_derive_fig1_40s(fast: bool):
    net = build_fig1_network()
    wcets = fig1_wcets()
    jobs = len(derive_task_graph(net, wcets, horizon=40_000))
    return lambda: derive_task_graph(net, wcets, horizon=40_000), {
        "experiment": "E10",
        "jobs": jobs,
    }


def _case_fms_sim_100(fast: bool):
    net = build_fms_network()
    graph = derive_task_graph(net, fms_wcets())
    schedule = find_feasible_schedule(graph, 1)
    frames = 10 if fast else 100
    return (
        lambda: run_static_order(net, schedule, frames),
        {"experiment": "E4/E9", "frames": frames, "jobs": len(graph)},
    )


def _case_fms_sim_jitter(fast: bool):
    net = build_fms_network()
    graph = derive_task_graph(net, fms_wcets())
    schedule = find_feasible_schedule(graph, 1)
    frames = 5 if fast else 25
    stim = fms_stimulus(net, graph.hyperperiod * frames)
    return (
        lambda: run_static_order(
            net, schedule, frames, stim, execution_time=jittered_execution(7)
        ),
        {"experiment": "E6", "frames": frames, "jobs": len(graph)},
    )


def _case_jitter_draws_cold(fast: bool):
    """The jitter draws of ``fms_sim_jitter`` alone: every instance of a
    25-frame FMS run drawn by a fresh sampler, no simulation around it."""
    graph = derive_task_graph(build_fms_network(), fms_wcets())
    frames = 5 if fast else 25
    keys = [(job.process, job.k) for job in graph.jobs]

    def draw():
        sampler = jittered_execution(7)
        for frame in range(frames):
            sampler.draws(frame, keys)

    return draw, {"experiment": "E6", "frames": frames,
                  "draws": frames * len(keys)}


def _case_fms_sim_timing_100(fast: bool):
    """The records-only fast mode: identical JobRecord timing, no kernels."""
    net = build_fms_network()
    graph = derive_task_graph(net, fms_wcets())
    schedule = find_feasible_schedule(graph, 1)
    frames = 10 if fast else 100
    return (
        lambda: run_static_order(net, schedule, frames, records_only=True),
        {"experiment": "E4/E9", "frames": frames, "jobs": len(graph),
         "mode": "records_only"},
    )


def _case_fms_data_phase_100(fast: bool):
    """The data-phase fast path in its leanest full-pipeline form:
    timing + kernels with no record retention and no action trace —
    what observable-only sweeps (determinism matrices, scenario
    backends) pay per run."""
    net = build_fms_network()
    graph = derive_task_graph(net, fms_wcets())
    schedule = find_feasible_schedule(graph, 1)
    frames = 10 if fast else 100
    return (
        lambda: run_static_order(
            net, schedule, frames,
            collect_records=False, collect_trace=False,
        ),
        {"experiment": "E4/E9", "frames": frames, "jobs": len(graph),
         "mode": "collect_records=False collect_trace=False"},
    )


def _case_replay_fms10(fast: bool):
    """Post-hoc consumers of one stored run: ``kernel_span_stats`` and
    the VCD dump of a 10-frame FMS result, both replaying its records
    and its action trace's data events.  The result is built once, so
    every call after the first replays an already-read trace."""
    net = build_fms_network()
    graph = derive_task_graph(net, fms_wcets())
    schedule = find_feasible_schedule(graph, 1)
    frames = 2 if fast else 10
    result = run_static_order(net, schedule, frames)

    def consume():
        kernel_span_stats(result)
        runtime_result_to_vcd(result)

    return consume, {"experiment": "E4/E9", "frames": frames,
                     "jobs": len(graph), "actions": len(result.trace)}


#: The 3x3 runtime-only FMS sweep: jitter seeds x overhead models.  The
#: sweep runner derives the 812-job graph and schedules it exactly once,
#: then runs every cell in the lean observer-streaming mode; the _naive
#: twin below re-derives, re-schedules and fully simulates per cell — the
#: per-cell loop a user would hand-write without the experiment layer.
_SWEEP_SEEDS = (0, 1, 2)
_SWEEP_OVERHEADS = (
    OverheadModel.none(),
    OverheadModel.mppa_like(),
    OverheadModel.create(5, 5),
)


def _complete(result, cells: int, rows=None):
    """*result*, refused unless every one of its *cells* ran or was served.

    A sweep that captured failures still returns a table, so a timing
    case must check: no failed row, and each cell either executed or
    came from the checkpoint store.  Pooled cases also pass the serial
    *rows* of the same matrix, which their rows must equal.
    """
    assert not result.failed_rows, result.table()
    assert result.stats.runs + result.stats.store_hits == cells, result.stats
    assert rows is None or result.rows == rows
    return result


def _case_fms_sweep_3x3(fast: bool):
    frames = 2 if fast else 10
    base = fms_scenario(n_frames=frames)
    matrix = ScenarioMatrix(
        base,
        {"jitter_seed": list(_SWEEP_SEEDS),
         "overheads": list(_SWEEP_OVERHEADS)},
    )
    # The schedulability-robustness question (misses/makespans under
    # jitter x overheads) needs only timing metrics, so the runner skips
    # the data phase per cell on top of the shared derivation + schedule.
    metrics = (
        "executed_jobs", "missed_jobs", "worst_lateness",
        "makespan", "frame_makespan_max",
    )

    def sweep():
        # Each sweep draws with jitter samplers of its own, so every
        # repeat pays cold sampling, exactly like the naive twin
        # constructing fresh samplers — the comparison then measures the
        # stage-reuse design, not warm samplers.
        return _complete(run_sweep(matrix, metrics=metrics), len(matrix))

    return sweep, {
        "experiment": "sweep", "frames": frames, "cells": len(matrix),
    }


def _case_fms_resweep(fast: bool):
    """A later sweep over a stimulus an earlier sweep already ran: each
    call is a fresh 8-cell ``run_sweep`` (its own network, two jitter
    seeds no earlier call drew) x {no overheads, MPPA-like} x processors
    {1, 2} over one 25-frame FMS scenario, as on perfbench's
    ``fms_sweep``.  Beyond its cells it pays whatever the stimulus does
    not share across sweeps: trace validation and the arrival binding."""
    frames = 2 if fast else 25
    base = fms_scenario(n_frames=frames)
    seeds = itertools.count(1)

    def matrix():
        return ScenarioMatrix(base, {
            "jitter_seed": [next(seeds), next(seeds)],
            "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
            "processors": [1, 2],
        })

    def resweep():
        return _complete(run_sweep(matrix(), metrics=TIMING_METRICS), 8)

    resweep()  # the first sweep over the stimulus, untimed
    return resweep, {
        "experiment": "sweep", "frames": frames, "cells": 8,
        "mode": "repeat sweep, fresh network and seeds",
    }


def _case_fft_sweep_data(fast: bool):
    """The data phase inside a sweep: each call is a fresh 8-cell
    ``DEFAULT_METRICS`` ``run_sweep`` (four jitter seeds no earlier call
    drew x {no overheads, MPPA-like}) over one 50-frame FFT scenario on a
    warm pipeline cache — an ``fft`` ticket of perfbench's ``served_mix``
    as a warm worker runs it.  The cache holds the data key's
    channel-write counts from the untimed first call, so every cell
    runs timing only (``fft_sweep_data_8`` times the data phase)."""
    frames = 5 if fast else 50
    base = fft.scenario(n_frames=frames)
    cache = PipelineCache()
    seeds = itertools.count(1)

    def sweep():
        matrix = ScenarioMatrix(base, {
            "jitter_seed": [next(seeds) for _ in range(4)],
            "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
        })
        return _complete(
            run_sweep(matrix, metrics=DEFAULT_METRICS, cache=cache), 8
        )

    sweep()  # derivation and schedule, untimed
    return sweep, {
        "experiment": "sweep", "frames": frames, "cells": 8,
        "mode": "DEFAULT_METRICS, fresh seeds, warm cache",
    }


def _case_fft_sweep_data_8(fast: bool):
    """The data layer of an 8-cell sweep: each call is a fresh
    ``DEFAULT_METRICS`` ``run_sweep`` (four jitter seeds x {no overheads,
    MPPA-like}) over one 50-frame FFT scenario on a fresh cache, so it
    pays the derivation, the schedule and the data phases of its data
    key — one, where every cell ran its own before cells shared their
    channel-write counts."""
    frames = 5 if fast else 50
    base = fft.scenario(n_frames=frames)
    matrix = ScenarioMatrix(base, {
        "jitter_seed": [1, 2, 3, 4],
        "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
    })

    def sweep():
        return _complete(run_sweep(matrix, metrics=DEFAULT_METRICS), 8)

    return sweep, {
        "experiment": "sweep", "frames": frames, "cells": 8,
        "mode": "DEFAULT_METRICS, fresh cache",
    }


#: The multi-schedule-key FMS sweep for the parallel backend: processor
#: counts x jitter seeds.  Two processor counts mean two schedule-key
#: groups, the parallel dispatch unit — ``workers=2`` hands one group to
#: each spawned worker; the serial twin runs the identical matrix in
#: process (rows are bit-identical, pinned by tests/test_sweep_parallel).
#: On a single-CPU host the parallel lane measures pure dispatch overhead
#: (spawn + reimport + wire format); with >= 2 cores the cell phase
#: overlaps and the case shows the speedup.
_PAR_SWEEP_AXES = {
    "processors": [1, 2],
    "jitter_seed": [0, 1, 2],
}
_PAR_SWEEP_METRICS = (
    "executed_jobs", "missed_jobs", "worst_lateness", "makespan",
)


@functools.lru_cache(maxsize=None)
def _par_sweep_serial_rows(frames: int):
    """The serial rows every pooled run of the 2x3 matrix must equal."""
    matrix = ScenarioMatrix(
        fms_scenario(n_frames=frames), dict(_PAR_SWEEP_AXES)
    )
    return run_sweep(matrix, metrics=_PAR_SWEEP_METRICS).rows


def _parallel_sweep_case(workers: int):
    def build(fast: bool):
        frames = 2 if fast else 25
        matrix = ScenarioMatrix(
            fms_scenario(n_frames=frames), dict(_PAR_SWEEP_AXES)
        )
        rows = _par_sweep_serial_rows(frames) if workers > 1 else None

        def sweep():
            result = _complete(
                run_sweep(
                    matrix, metrics=_PAR_SWEEP_METRICS, workers=workers
                ),
                len(matrix), rows,
            )
            assert result.stats.parallel_fallback is None
            assert result.stats.workers == min(
                workers, len(_PAR_SWEEP_AXES["processors"])
            )
            return result

        return sweep, {
            "experiment": "sweep", "frames": frames, "cells": len(matrix),
            "workers": workers,
        }

    return build


def _pool_sweep_case(warm: bool):
    """Resident SweepPool service, cold vs warm (ISSUE 7 headline).

    Cold times a full one-shot service cycle — open a pool, spawn the
    workers, submit, close — i.e. what ``run_sweep(workers=2)`` pays per
    sweep.  Warm holds one resident pool open (built and pre-warmed
    outside the timing loop) and times only the resubmission: no spawn,
    and the workers' warm per-schedule-key caches make the sweep pay
    zero new derivations/scheduling passes, which the case asserts via
    the ``SweepStats`` counters.  Warm beats cold even on a single-CPU
    host — the win is skipped spawn + skipped stage work, not core
    parallelism.
    """

    def build(fast: bool):
        from repro.experiment import SweepPool

        frames = 2 if fast else 25
        matrix = ScenarioMatrix(
            fms_scenario(n_frames=frames), dict(_PAR_SWEEP_AXES)
        )
        rows = _par_sweep_serial_rows(frames)

        if warm:
            pool = SweepPool(workers=2)
            _complete(  # pre-warm
                pool.submit(matrix, _PAR_SWEEP_METRICS).result(),
                len(matrix), rows,
            )

            def sweep():
                result = _complete(
                    pool.submit(matrix, _PAR_SWEEP_METRICS).result(),
                    len(matrix), rows,
                )
                assert result.stats.pool_reused
                assert result.stats.derivations_computed == 0
                assert result.stats.schedules_computed == 0
                assert result.stats.warm_group_hits == 2
                return result

            sweep.cleanup = pool.close
        else:

            def sweep():
                with SweepPool(workers=2) as pool:
                    result = _complete(
                        pool.submit(matrix, _PAR_SWEEP_METRICS).result(),
                        len(matrix), rows,
                    )
                assert not result.stats.pool_reused
                assert result.stats.derivations_computed == 2
                return result

        return sweep, {
            "experiment": "sweep", "frames": frames, "cells": len(matrix),
            "workers": 2, "mode": "warm resident pool" if warm
            else "cold pool per sweep",
        }

    return build


def _case_fms_sweep_resume(fast: bool):
    """Checkpoint-store resume: the matrix is prepopulated (untimed) into
    a content-addressed store, then the timed sweep resolves every cell
    as a store hit — measuring the read path (scenario hashing + row
    decode) a resumed or chained sweep pays instead of the simulator."""
    from repro.experiment import MemorySweepStore

    frames = 2 if fast else 10
    matrix = ScenarioMatrix(
        fms_scenario(n_frames=frames),
        {"jitter_seed": list(_SWEEP_SEEDS)},
    )
    store = MemorySweepStore()
    _complete(
        run_sweep(matrix, metrics=_PAR_SWEEP_METRICS, store=store),
        len(matrix),
    )

    def resume():
        result = _complete(
            run_sweep(matrix, metrics=_PAR_SWEEP_METRICS, store=store),
            len(matrix),
        )
        assert result.stats.store_hits == len(matrix)
        assert result.stats.runs == 0
        return result

    return resume, {
        "experiment": "sweep", "frames": frames, "cells": len(matrix),
        "mode": "all-hit store resume",
    }


def _case_store_keys_fms3(fast: bool):
    """A served replay's store lookup: ``resolve_hits`` of an 8-cell
    3-frame FMS matrix (4 jitter seeds x processors {1, 2}, the
    ``fms3`` ticket of perfbench's ``served_mix``) against a
    ``MemorySweepStore`` that holds every row, on a fresh bookkeeper per
    call, as each submission gets one.  It pays every cell's content key
    (the scenario's canonical JSON, stimulus included) and row decode."""
    from repro.experiment import MemorySweepStore
    from repro.experiment.sweep import SweepStats, _SweepBook

    frames = 1 if fast else 3
    matrix = ScenarioMatrix(
        fms_scenario(n_frames=frames),
        {"jitter_seed": [1, 2, 3, 4], "processors": [1, 2]},
    )
    cells = list(matrix.cells())
    store = MemorySweepStore()
    _complete(
        run_sweep(matrix, metrics=TIMING_METRICS, store=store), len(cells)
    )

    def resolve():
        book = _SweepBook(
            dict(matrix.axes), cells, TIMING_METRICS, False,
            SweepStats(cells=len(cells)), store=store,
        )
        assert not book.resolve_hits()
        assert book.stats.store_hits == len(cells)

    return resolve, {
        "experiment": "store", "frames": frames, "cells": len(cells),
        "mode": "all-hit resolve_hits, fresh bookkeeper",
    }


def _served_fms3_case(hits: bool):
    """A served ``fms3`` ticket: the 8-cell 3-frame FMS matrix (4 jitter
    seeds x processors {1, 2}) of perfbench's ``served_mix``, submitted
    and streamed over one ``ServiceClient`` connection to an in-process
    ``SweepServer``, the connection and server kept open across calls.

    ``hits`` resubmits one matrix over a store that holds every row:
    every cell is a store hit and no worker runs, so the call times the
    request, the server's decode and store keys, and the row stream.
    Otherwise each call submits fresh jitter seeds to a warm 2-worker
    server: both schedule-key groups run, one per worker, on workers
    that hold the stimulus from the warm-up ticket.
    """

    def build(fast: bool):
        from repro.experiment import MemorySweepStore
        from repro.service import ServiceClient, SweepServer

        base = fms_scenario(n_frames=1 if fast else 3)
        seeds = itertools.count(1)

        def fresh_matrix():
            return ScenarioMatrix(base, {
                "jitter_seed": [next(seeds) for _ in range(4)],
                "processors": [1, 2],
            })

        first = fresh_matrix()
        if hits:
            store = MemorySweepStore()
            _complete(
                run_sweep(first, metrics=TIMING_METRICS, store=store),
                len(first),
            )
            server = SweepServer(workers=1, store=store)
        else:
            server = SweepServer(workers=2)
        server.start()
        client = ServiceClient(*server.address)
        _complete(client.run_sweep(first, TIMING_METRICS), len(first))

        def ticket():
            matrix = first if hits else fresh_matrix()
            result = _complete(
                client.run_sweep(matrix, TIMING_METRICS), len(matrix)
            )
            assert result.stats.store_hits == (len(matrix) if hits else 0)
            return result

        def cleanup():
            client.close()
            server.close()

        ticket.cleanup = cleanup
        return ticket, {
            "experiment": "service", "frames": base.n_frames,
            "cells": len(first), "workers": 1 if hits else 2,
            "mode": "all-hit resubmit" if hits
            else "fresh jitter seeds, warm workers",
        }

    return build


def _case_fms_hetero_sweep(fast: bool):
    """Heterogeneous-platform sweep (ISSUE 10): a 2-class platform axis
    over the FMS case study.  WCET tables key on processor-class *names*,
    so the derivation is platform-independent — both platform cells share
    one derivation and the axis only pays per-platform scheduling passes,
    which the case asserts via the ``SweepStats`` counters.  Cells run in
    the lean timing-only mode, so the case isolates what heterogeneity
    adds to the schedule stage."""
    from repro.core.platform import Platform

    frames = 2 if fast else 10
    platforms = [
        Platform.homogeneous(2),
        Platform.of(("big", 1), ("little", 1, "1/2")),
    ]
    matrix = ScenarioMatrix(
        fms_scenario(n_frames=frames),
        {"platform": platforms, "jitter_seed": [0, 1]},
    )

    def sweep():
        result = _complete(
            run_sweep(matrix, metrics=_PAR_SWEEP_METRICS), len(matrix)
        )
        assert result.stats.derivations_computed == 1
        assert result.stats.schedules_computed == len(platforms)
        return result

    return sweep, {
        "experiment": "sweep", "frames": frames, "cells": len(matrix),
        "mode": "2-class platform axis, shared derivation",
    }


def _case_fms_sweep_3x3_naive(fast: bool):
    frames = 2 if fast else 10
    net = build_fms_network()
    wcets = fms_wcets()
    stim = fms_stimulus(net, 10_000 * frames)

    def naive():
        out = []
        for seed in _SWEEP_SEEDS:
            for ov in _SWEEP_OVERHEADS:
                graph = derive_task_graph(net, wcets)
                schedule = find_feasible_schedule(graph, 1)
                result = run_static_order(
                    net, schedule, frames, stim,
                    execution_time=jittered_execution(seed), overheads=ov,
                )
                out.append(result.makespan())
        return out

    return naive, {
        "experiment": "sweep", "frames": frames,
        "cells": len(_SWEEP_SEEDS) * len(_SWEEP_OVERHEADS),
        "mode": "per-cell derive+schedule+run",
    }


CASES: List[Case] = [
    ("e1_fig1_derivation", _case_e1_fig1_derivation),
    ("e2_fig4_schedule", _case_e2_fig4_schedule),
    ("e3_fft_schedule", _case_e3_fft_schedule),
    ("e4_fms_derivation", _case_e4_fms_derivation),
    ("e4_fms_schedule", _case_e4_fms_schedule),
    ("e6_determinism_fig1", _case_e6_determinism_fig1),
    ("e7_overhead_sim", _case_e7_overhead_sim),
    ("e8_heuristics", _case_e8_heuristics),
    ("e8_search", _case_e8_search),
    ("e9_derive_40s", _case_e9_derive_40s),
    ("e9_graph_build_40s", _case_e9_graph_build_40s),
    ("e9_schedule_40s", _case_e9_schedule_40s),
    ("e9_schedule_loop_40s", _case_e9_schedule_loop_40s),
    ("e9_check_40s", _case_e9_check_40s),
    ("e10_derive_fig1_40s", _case_e10_derive_fig1_40s),
    ("fms_sim_100", _case_fms_sim_100),
    ("fms_sim_jitter", _case_fms_sim_jitter),
    ("jitter_draws_cold", _case_jitter_draws_cold),
    ("fms_sim_timing_100", _case_fms_sim_timing_100),
    ("fms_data_phase_100", _case_fms_data_phase_100),
    ("replay_fms10", _case_replay_fms10),
    ("fms_sweep_3x3", _case_fms_sweep_3x3),
    ("fms_sweep_3x3_naive", _case_fms_sweep_3x3_naive),
    ("fms_resweep", _case_fms_resweep),
    ("fft_sweep_data", _case_fft_sweep_data),
    ("fft_sweep_data_8", _case_fft_sweep_data_8),
    ("fms_sweep_resume", _case_fms_sweep_resume),
    ("store_keys_fms3", _case_store_keys_fms3),
    ("served_fms3_hits", _served_fms3_case(hits=True)),
    ("served_fms3_fresh", _served_fms3_case(hits=False)),
    ("fms_hetero_sweep", _case_fms_hetero_sweep),
    ("fms_sweep_2x3_serial", _parallel_sweep_case(workers=1)),
    ("fms_sweep_2x3_workers2", _parallel_sweep_case(workers=2)),
    ("fms_sweep_pool_cold", _pool_sweep_case(warm=False)),
    ("fms_sweep_pool_warm", _pool_sweep_case(warm=True)),
]


def run_suite(fast: bool, repeats: int) -> Dict[str, Dict[str, object]]:
    results: Dict[str, Dict[str, object]] = {}
    for name, builder in CASES:
        fn, meta = builder(fast)
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0)
        entry = {"wall_s": round(min(walls), 6), "repeats": repeats, **meta}
        results[name] = entry
        print(f"{name:24s} {entry['wall_s']*1000:10.2f} ms  {meta}")
        # Cases holding live resources across repeats (a warm resident
        # pool, say) attach a cleanup hook to the timed callable.
        cleanup = getattr(fn, "cleanup", None)
        if cleanup is not None:
            cleanup()
    return results


def diff_snapshots(
    path_a: str, path_b: str, tolerance: "float | None" = None
) -> int:
    """Per-case wall-time comparison of two BENCH_*.json snapshots.

    Delegates to the shared comparison engine
    (:mod:`repro.analysis.compare`) — the same one behind
    ``python -m repro diff``.  With *tolerance* ``None`` (the default,
    and the historical behaviour) the table is report-only; with a
    tolerance set, a case slowing down past it fails with exit 1.
    Snapshots from hosts with different CPU counts refuse to compare
    (exit 2): the parallel/pool lanes measure core overlap, so a 1-CPU
    number against a multi-core number is noise presented as a trend.
    """
    from repro.analysis.compare import compare_files

    comparison = compare_files(path_a, path_b, tolerance=tolerance)
    for warning in comparison.warnings:
        print(warning, file=sys.stderr)
    if comparison.refusal is not None:
        print(comparison.refusal, file=sys.stderr)
        return comparison.exit_code
    for line in comparison.lines:
        print(line)
    for line in comparison.regressions:
        print(f"! regression: {line}", file=sys.stderr)
    return comparison.exit_code


class _AbSide:
    """A resident process running the cases against one tree's ``src/``."""

    def __init__(self, tree: Path, fast: bool) -> None:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--ab-serve"]
            + (["--fast"] if fast else []),
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def call(self, case: str) -> float:
        """Seconds one call of *case* took in this tree."""
        self.proc.stdin.write(case + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"A/B worker died running {case!r}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _ab_serve(fast: bool) -> int:
    """Worker side of ``--ab``: time one call per case name read from stdin."""
    builders, timed = dict(CASES), {}
    out = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):
        for line in sys.stdin:
            name = line.strip()
            if name not in timed:
                timed[name] = builders[name](fast)[0]
            t0 = time.perf_counter()
            timed[name]()
            out.write(json.dumps(time.perf_counter() - t0) + "\n")
            out.flush()
        for fn in timed.values():
            getattr(fn, "cleanup", lambda: None)()
    return 0


def _quartiles(walls: List[float]) -> Tuple[float, float, float]:
    if len(walls) < 2:
        return walls[0], walls[0], walls[0]
    q1, med, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return q1, med, q3


def ab_compare(parent: str, cases: List[str], rounds: int, fast: bool) -> int:
    """Alternate *parent* and this checkout on *cases*; print the report."""
    known = dict(CASES)
    unknown = [c for c in cases if c not in known]
    if unknown:
        print(f"unknown cases {unknown}; known: {list(known)}", file=sys.stderr)
        return 2
    parent_tree = Path(parent).resolve()
    if not (parent_tree / "src" / "repro").is_dir():
        print(f"{parent_tree} has no src/repro", file=sys.stderr)
        return 2
    change_tree = Path(__file__).resolve().parents[1]
    sides = {
        "parent": _AbSide(parent_tree, fast),
        "change": _AbSide(change_tree, fast),
    }
    walls: Dict[str, Dict[str, List[float]]] = {
        case: {"parent": [], "change": []} for case in cases
    }
    try:
        for r in range(rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for case in cases:
                for side in order:
                    walls[case][side].append(sides[side].call(case))
    finally:
        for side in sides.values():
            side.close()
    print(f"A/B over {rounds} rounds: parent {parent_tree} vs change "
          f"{change_tree} (cpus {os.cpu_count()})")
    print(f"{'case':24s} {'parent ms [IQR]':>24s} {'change ms [IQR]':>24s}"
          f" {'speedup':>8s} {'wins':>6s}")
    for case in cases:
        a, b = walls[case]["parent"], walls[case]["change"]
        (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{case:24s} {am*1e3:9.2f} [{a1*1e3:.2f}-{a3*1e3:.2f}]"
              f" {bm*1e3:9.2f} [{b1*1e3:.2f}-{b3*1e3:.2f}]"
              f" {am/bm:7.2f}x {wins:>3d}/{rounds}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="smoke mode: 1 repeat, reduced frame counts")
    parser.add_argument("--label", default="dev",
                        help="tag stored in the JSON (e.g. 'seed', 'pr1')")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per case (best-of); default 3, 1 in --fast")
    parser.add_argument("--output", default=None,
                        help="output path; default benchmarks/BENCH_<date>.json "
                             "(omitted entirely in --fast mode unless given)")
    parser.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                        default=None,
                        help="compare two snapshots instead of running; "
                             "refuses snapshots from hosts with different "
                             "cpu counts")
    parser.add_argument("--ab", nargs="+", metavar=("PARENT_TREE", "CASE"),
                        default=None,
                        help="A/B-compare this checkout with PARENT_TREE on "
                             "the named cases instead of running the suite")
    parser.add_argument("--rounds", type=int, default=15,
                        help="with --ab: alternating rounds (default 15)")
    parser.add_argument("--ab-serve", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tolerance", type=float, default=None,
                        metavar="FRACTION",
                        help="with --diff: relative slowdown allowed before "
                             "exit 1 (default: report only)")
    args = parser.parse_args(argv)

    if args.diff is not None:
        return diff_snapshots(*args.diff, tolerance=args.tolerance)
    if args.ab_serve:
        return _ab_serve(args.fast)
    if args.ab is not None:
        if len(args.ab) < 2:
            parser.error("--ab takes PARENT_TREE and at least one CASE")
        if args.rounds < 1:
            parser.error("--rounds must be >= 1")
        return ab_compare(args.ab[0], args.ab[1:], args.rounds, args.fast)
    if args.tolerance is not None:
        parser.error("--tolerance only makes sense with --diff")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    repeats = args.repeats or (1 if args.fast else 3)
    results = run_suite(args.fast, repeats)

    payload = {
        "date": datetime.date.today().isoformat(),
        "label": args.label,
        "fast": args.fast,
        "python": platform.python_version(),
        # Parallel-sweep cases only overlap their groups when this is > 1;
        # on a single CPU they measure pure dispatch overhead.
        "cpus": os.cpu_count(),
        # cpus alone can't tell two different machines apart; the
        # hostname pins which box a trajectory point came from.
        "host": platform.node(),
        "cases": results,
    }
    out = args.output
    if out is None and not args.fast:
        out = str(
            Path(__file__).parent
            / f"BENCH_{datetime.date.today().isoformat()}.json"
        )
    if out:
        Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
