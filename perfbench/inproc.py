"""The in-process workloads: ``fms_sweep`` and ``design_space``.

Both drive serial :func:`repro.experiment.run_sweep` from this process,
pinned to one CPU, with reference-kernel samples between cells.  A run
is a deterministic stream of batches (one ``run_sweep`` call each) built
from the seed; the measured phase runs whole cycles of batches until
``--seconds`` have passed and at least the batches covered by
``rows_sha256`` are done.

``fms_sweep`` — the ROADMAP's baseline cell, 25-frame FMS (812 jobs per
frame), timing-only metrics.  Two seeded pilot-command stimuli are
built in set-up (one per set-up repetition; each build is the slow
``random_sporadic_trace`` admission filter); batch ``b`` sweeps stimulus
``b % 2`` over two jitter seeds of its own x {no overheads, MPPA-like} x
processors {1, 2}.  Seeds are fresh in every batch, as on a jitter-seed
axis: the first cell of each seed (1 cell in 4) samples every execution
time cold, the other three read the sampler's memo.

``design_space`` — almost every cell is a new schedule key.  Batch ``b``
scales the FMS WCETs by a seeded exact rational in [1, 7/4] (a new
derivation key) and sweeps one workload at one frame, ``records_only``,
over platforms {1, 2, 3 processors, one big + one half-speed little
core} x the four rotations of the default heuristic portfolio (so each
cell tries a different heuristic first).  The workload is ``fms`` on
every third batch and ``fms-40s`` otherwise: with two thirds of the
cells in the slower mode, the median cell latency lies inside that mode
instead of on the edge between the two.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hostclock import HostClock
from replay import replay_cell, runtime_split
from spans import Tracer


class FmsSweep:
    name = "fms_sweep"
    #: One set-up builds one 25-frame stimulus (~15 s on the reference
    #: host), so this workload sets up twice, not three times.
    setup_reps = 2
    #: The measured phase ends on a whole number of cycles of batches.
    cycle = 1
    hash_batches = 2
    trace_batches = 2
    #: (batch offset in the traced phase, cell index) of replayed cells:
    #: one cold cell in four, as in the sweep.
    replay_plan = ((0, 0), (0, 2), (1, 5), (1, 7))

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"fms_sweep:{seed}")
        self.stimulus_seeds = rng.sample(range(1, 1 << 20), self.setup_reps)
        #: Batch ``b`` samples seeds ``jitter_base + 2b`` and ``+ 2b + 1``;
        #: set-up warms up on seeds below ``jitter_base``.
        self.jitter_base = rng.randrange(1 << 10, 1 << 20)
        self.bases: List[Any] = []

    def setup_rep(self, rep: int) -> None:
        from repro.apps import fms
        from repro.experiment import TIMING_METRICS, ScenarioMatrix, run_sweep

        base = fms.scenario(n_frames=25, seed=self.stimulus_seeds[rep])
        self.bases.append(base)
        # Warm-up: one cell on a seed no batch uses, so lazy imports and
        # first-use costs finish before timing.
        run_sweep(ScenarioMatrix(base, {
            "jitter_seed": [self.jitter_base - 1 - rep],
        }), TIMING_METRICS)

    def batch(self, b: int) -> Tuple[Any, Sequence[str]]:
        from repro.experiment import TIMING_METRICS, ScenarioMatrix
        from repro.runtime.overheads import OverheadModel

        matrix = ScenarioMatrix(self.bases[b % len(self.bases)], {
            "jitter_seed": [self.jitter_base + 2 * b,
                            self.jitter_base + 2 * b + 1],
            "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
            "processors": [1, 2],
        })
        return matrix, TIMING_METRICS


class DesignSpace:
    name = "design_space"
    setup_reps = 5
    cycle = 3
    hash_batches = 3
    trace_batches = 6
    replay_plan = ((0, 0), (0, 7), (1, 10), (1, 13), (2, 1), (2, 14))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.wcets: Dict[str, Any] = {}
        self.platforms: List[Any] = []
        self.portfolios: List[Tuple[str, ...]] = []

    def setup_rep(self, rep: int) -> None:
        from repro.apps import fms
        from repro.core.platform import Platform
        from repro.core.timebase import as_time
        from repro.experiment import (
            TIMING_METRICS, Scenario, ScenarioMatrix, resolve_workload,
            run_sweep,
        )
        from repro.scheduling.optimizer import DEFAULT_PORTFOLIO

        for workload in ("fms-40s", "fms"):
            resolve_workload(workload)().validate_taskgraph_subclass()
        self.wcets = {k: as_time(v) for k, v in fms.fms_wcets().items()}
        self.platforms = [
            Platform.homogeneous(1), Platform.homogeneous(2),
            Platform.homogeneous(3),
            Platform.of(("big", 1), ("little", 1, Fraction(1, 2))),
        ]
        p = tuple(DEFAULT_PORTFOLIO)
        self.portfolios = [p[i:] + p[:i] for i in range(len(p))]
        # Warm-up: one cell, so lazy imports finish before timing.
        warm = Scenario(workload="fms", wcet=self.wcets, records_only=True)
        run_sweep(ScenarioMatrix(warm, {}), TIMING_METRICS)

    def batch(self, b: int) -> Tuple[Any, Sequence[str]]:
        from repro.experiment import TIMING_METRICS, Scenario, ScenarioMatrix

        rng = random.Random(f"design_space:{self.seed}:{b}")
        scale = Fraction(rng.randint(400, 700), 400)
        base = Scenario(
            workload="fms" if b % 3 == 2 else "fms-40s",
            wcet={k: v * scale for k, v in self.wcets.items()},
            n_frames=1,
            records_only=True,
        )
        matrix = ScenarioMatrix(base, {
            "platform": self.platforms,
            "heuristics": self.portfolios,
        })
        return matrix, TIMING_METRICS


WORKLOADS = {"fms_sweep": FmsSweep, "design_space": DesignSpace}


def rows_digest(rows: Sequence[Any]) -> List[str]:
    """Canonical JSON lines of sweep rows (cells and exact metrics).

    Metrics are listed by name: a row served from the checkpoint store
    holds the same values as a computed row, in another key order.
    """
    from repro.io.json_io import value_to_jsonable

    return [
        json.dumps(
            {"cell": value_to_jsonable(row.cell),
             "metrics": value_to_jsonable(dict(sorted(row.metrics.items())))},
            sort_keys=True,
        )
        for row in rows
    ]


def import_probe(env: Dict[str, str]) -> None:
    """A fresh interpreter importing what the workload imports."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro.experiment, repro.apps, repro.io.json_io"],
        env=env, check=True,
    )


def run_setup(wl: Any, clock: HostClock, env: Dict[str, str], reps: int,
              tracer: Optional[Tracer] = None) -> Tuple[float, float]:
    """Set up *reps* times; median reference-host and host seconds.

    Kernel samples bracket every set-up.  Untraced, they are also taken
    between the per-process arrival traces of a stimulus build, which is
    long enough for the host's speed to change within it; traced, they
    are not, so ``core.stimulus`` spans hold no sampling.
    """
    from repro.apps import fms
    from repro.core import invocations

    trace_fn = invocations.random_sporadic_trace

    def sampling_trace(*args: Any, **kwargs: Any) -> Any:
        clock.tick()
        return trace_fn(*args, **kwargs)

    if tracer is None:
        invocations.random_sporadic_trace = sampling_trace
    else:
        tracer.wrap(fms, "fms_stimulus", "core.stimulus")
    spans = []
    try:
        for rep in range(reps):
            clock.sample()
            t0 = time.perf_counter()
            import_probe(env)
            wl.setup_rep(rep)
            spans.append((t0, time.perf_counter()))
            clock.sample()
    finally:
        invocations.random_sporadic_trace = trace_fn
        if tracer is not None:
            tracer.restore()
    return (
        statistics.median(clock.ref_seconds(a, b) for a, b in spans),
        statistics.median(clock.host_seconds(a, b) for a, b in spans),
    )


class Measured:
    def __init__(self) -> None:
        self.cells = 0
        self.attempted = 0
        self.failed = 0
        #: ``(start, end)`` of every cell, as its row arrived.
        self.cell_spans: List[Tuple[float, float]] = []
        self.results: List[Any] = []
        self.errors: List[str] = []
        self.span = (0.0, 0.0)
        #: Peak RSS once ``hash_batches`` batches are done.
        self.peak_rss_mb = 0.0


def run_batches(wl: Any, clock: HostClock, *, start: int, seconds: float,
                min_batches: int, max_batches: Optional[int] = None,
                tracer: Optional[Tracer] = None,
                history: Optional[Dict[int, List[str]]] = None) -> Measured:
    """Run batches from *start*; check every result (outside the clock).

    *history* receives the row digest of every batch, by batch index.
    """
    from repro.experiment import run_sweep

    m = Measured()
    history = history if history is not None else {}
    checks: List[Tuple[int, Any, Any]] = []
    clock.sample()
    t_start = time.perf_counter()
    t_end = t_start + seconds
    b = start
    while True:
        matrix, metrics = wl.batch(b)
        prev = [time.perf_counter()]

        def on_row(row: Any) -> None:
            m.cell_spans.append((prev[0], time.perf_counter()))
            clock.tick()
            prev[0] = time.perf_counter()

        if tracer is None:
            result = run_sweep(matrix, metrics, on_row=on_row)
        else:
            result = tracer.span(
                "experiment.run_sweep", run_sweep, matrix, metrics,
                on_row=on_row,
            )
        checks.append((b, matrix, result))
        m.attempted += len(matrix)
        b += 1
        done = b - start
        if done == wl.hash_batches:
            m.peak_rss_mb = peak_rss_mb()
        if max_batches is not None and done >= max_batches:
            break
        if max_batches is None and done >= min_batches and (
            done % wl.cycle == 0 and time.perf_counter() >= t_end
        ):
            break
    m.span = (t_start, time.perf_counter())
    clock.sample()
    for b, matrix, result in checks:
        stats = result.stats
        m.failed += len(result.failed_rows)
        healthy = len(result.rows)
        if result.failed_rows or stats.failed_cells:
            m.errors.append(
                f"batch {b}: {len(result.failed_rows)} failed cells: "
                + "; ".join(r.error.describe() for r in result.failed_rows[:3])
            )
        if stats.runs + stats.store_hits != len(matrix) or healthy != len(
            matrix
        ):
            m.errors.append(
                f"batch {b}: runs {stats.runs} + store hits "
                f"{stats.store_hits} / rows {healthy} != {len(matrix)} cells"
            )
        m.cells += healthy
        history[b] = rows_digest(result.rows)
        m.results.append(result)
    return m


def rows_sha256(history: Dict[int, List[str]], n: int) -> str:
    h = hashlib.sha256()
    for b in range(n):
        for line in history[b]:
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def run(workload: str, seed: int, seconds: float, trace: bool,
        env: Dict[str, str], out_dir: Any) -> Dict[str, Any]:
    """One run of an in-process workload; the result dict for ``run.py``."""
    wl = WORKLOADS[workload](seed)
    clock = HostClock()
    try:
        if trace:
            return _traced(wl, clock, seed, env, out_dir)
        return _timed(wl, clock, seconds, env)
    finally:
        clock.close()


def _timed(wl: Any, clock: HostClock, seconds: float,
           env: Dict[str, str]) -> Dict[str, Any]:
    setup_s, raw_setup_s = run_setup(wl, clock, env, reps=wl.setup_reps)
    history: Dict[int, List[str]] = {}
    m = run_batches(wl, clock, start=0, seconds=seconds,
                    min_batches=wl.hash_batches, history=history)
    lat_ms = [clock.ref_seconds(a, b) * 1e3 for a, b in m.cell_spans]
    busy_s = clock.host_seconds(*m.span)
    metrics = {
        "setup_s": setup_s,
        "cells_per_s": m.cells / clock.ref_seconds(*m.span),
        "peak_rss_mb": m.peak_rss_mb,
        "ticket_p50_ms": statistics.median(lat_ms),
        "ticket_p90_ms": p90(lat_ms),
    }
    detail = {
        "rows_sha256": rows_sha256(history, wl.hash_batches),
        "hashed_cells": sum(len(history[b]) for b in range(wl.hash_batches)),
        "host.raw_setup_s": raw_setup_s,
        "host.raw_cells_per_s": m.cells / busy_s,
        "host.ref_kernel_ms": statistics.median(clock.kernel_ms()),
        "kernel_samples": len(clock.samples),
        "batches": len(m.results),
        "measured_busy_s": busy_s,
    }
    return {"metrics": metrics, "detail": detail, "attempted": m.attempted,
            "failed": m.failed, "errors": m.errors}


def _traced(wl: Any, clock: HostClock, seed: int, env: Dict[str, str],
            out_dir: Any) -> Dict[str, Any]:
    import repro.experiment.experiment as exp_mod
    import repro.scheduling.optimizer as opt_mod

    tracer = Tracer()
    _, raw_setup_s = run_setup(wl, clock, env, reps=wl.setup_reps,
                               tracer=tracer)
    history: Dict[int, List[str]] = {}
    n = wl.trace_batches
    # A warm-up of the same size first, so that the untraced and traced
    # phases both run warm (jitter samplers memoised, lazy imports done).
    warm = run_batches(wl, clock, start=0, seconds=0, min_batches=n,
                       max_batches=n, history=history)
    plain = run_batches(wl, clock, start=n, seconds=0, min_batches=n,
                        max_batches=n, history=history)
    tracer.wrap(exp_mod, "derive_task_graph", "taskgraph.derive",
                after=lambda g, *_: tracer.add("taskgraph.jobs_derived", len(g)))
    tracer.wrap(exp_mod, "find_feasible_schedule", "scheduling.schedule")
    tracer.wrap(opt_mod, "list_schedule", "scheduling.list_schedule")
    tracer.wrap(exp_mod, "run_static_order", "runtime.run")
    try:
        traced = run_batches(wl, clock, start=2 * n, seconds=0,
                             min_batches=n, max_batches=n, tracer=tracer,
                             history=history)
    finally:
        tracer.restore()
    replays = []
    for b_off, i in wl.replay_plan:
        matrix, metrics = wl.batch(2 * n + b_off)
        cells = [c.scenario for c in matrix.cells()]
        # Seeds are fresh per batch: a cell is cold if it is the first
        # of its batch to sample its seed.
        cold = all(c.jitter_seed != cells[i].jitter_seed for c in cells[:i])
        replays.append(replay_cell(cells[i], metrics, cold))
    run_s = tracer.total("runtime.run")
    split = runtime_split(replays, run_s)
    derive_s = tracer.total("taskgraph.derive")
    schedule_s = tracer.total("scheduling.schedule")
    sweep_s = tracer.total("experiment.run_sweep")
    schedules = tracer.calls("scheduling.schedule")
    sim_jobs = sum(
        row.metrics["total_jobs"] for r in traced.results for row in r.rows
    )
    stats = [r.stats for r in traced.results]
    plain_cps = plain.cells / clock.host_seconds(*plain.span)
    # Reference-host rates, so a change of host speed between the two
    # phases does not read as tracing overhead.
    overhead = 1.0 - (
        traced.cells / clock.ref_seconds(*traced.span)
    ) / (plain.cells / clock.ref_seconds(*plain.span))
    stim = tracer.durations("core.stimulus")
    metrics = {
        "core.stimulus_s": statistics.median(stim) if stim else 0.0,
        "taskgraph.derive_calls": tracer.calls("taskgraph.derive"),
        "taskgraph.derive_s": derive_s,
        "taskgraph.jobs_derived": tracer.counts.get(
            "taskgraph.jobs_derived", 0),
        "scheduling.schedule_calls": schedules,
        "scheduling.schedule_s": schedule_s,
        "scheduling.attempts_per_schedule": (
            tracer.calls("scheduling.list_schedule") / schedules
            if schedules else 0.0
        ),
        **{f"runtime.{k}_s": v for k, v in split.items()},
        "runtime.sim_jobs_per_s": sim_jobs / run_s,
        "experiment.derivations": sum(s.derivations_computed for s in stats),
        "experiment.schedules": sum(s.schedules_computed for s in stats),
        "experiment.runs": sum(s.runs for s in stats),
        "experiment.bookkeeping_s": sweep_s - derive_s - schedule_s - run_s,
        # No pool, store, wire or service in process: these read 0.
        **{name: 0.0 for name in (
            "pool.queue_wait_ms", "pool.group_ms", "pool.warm_group_hits",
            "pool.payload_cache_hits", "pool.retries", "store.hits",
            "store.misses", "store.hit_ticket_ms", "io.encode_ms",
            "io.decode_ms", "io.request_kb", "io.reply_kb",
            "service.submit_ms", "service.first_row_ms",
        )},
        "host.ref_kernel_ms": statistics.median(clock.kernel_ms()),
        "host.raw_cells_per_s": plain_cps,
        "host.raw_setup_s": raw_setup_s,
        "trace.overhead_frac": overhead,
    }
    tracer.dump(out_dir / f"trace-{wl.name}-{seed}.json")
    detail = {
        "rows_sha256": rows_sha256(history, wl.hash_batches),
        "traced_busy_s": clock.host_seconds(*traced.span),
        "traced_sweep_s": sweep_s,
        "replayed_cells": len(replays),
    }
    phases = (warm, plain, traced)
    return {"metrics": metrics, "detail": detail,
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.failed for p in phases),
            "errors": [e for p in phases for e in p.errors]}
