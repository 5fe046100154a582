"""Pure-Fraction reference implementations for tick-domain equivalence tests.

These are faithful copies of the library's *pre-tick-domain* algorithms
(the seed implementations): every timestamp is computed with
:class:`fractions.Fraction` arithmetic end to end.  The equivalence suite
(``test_tick_equivalence.py``) asserts that the optimised integer-tick
implementations in ``repro`` produce *exactly* the same schedules, job
records and determinism observables.

Deliberately unoptimised — do not "improve" these; their value is being a
direct transliteration of the rational-domain definitions.

The scheduling and runtime oracles take a platform: a job's duration on
flat processor ``p`` is ``job.wcet_on(platform.class_of(p))``, the
WCET-consuming heuristics rank on the exact rational ``min`` / ``max`` /
``mean`` of those durations over the platform's classes, and sampled
execution times scale by ``wcet_on(cls) / wcet``.  A processor count is
the homogeneous platform of that many speed-1 processors.

The jitter samplers are the one oracle that is not a seed copy: the draw
rule itself changed (string-seeded ``random.Random`` draws gave way to a
per-instance integer mix), so they transliterate the current rule with
their own digest and mix code, step by step, without caching.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.channels import ChannelState, ExternalOutputState
from repro.core.invocations import Stimulus
from repro.core.network import Network
from repro.core.platform import Platform, PlatformLike, as_platform
from repro.core.process import JobContext
from repro.core.timebase import (
    Time,
    TimeLike,
    as_positive_time,
    as_time,
    hyperperiod as lcm_periods,
    time_str,
)
from repro.core.trace import JobEnd, JobStart, Trace
from repro.errors import ModelError
from repro.runtime.executor import JobRecord, RuntimeResult
from repro.runtime.overheads import OverheadModel
from repro.runtime.static_order import ArrivalBinding
from repro.scheduling.priorities import available_heuristics, get_heuristic
from repro.scheduling.schedule import ScheduledJob, StaticSchedule
from repro.taskgraph.derivation import WcetMap
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.jobs import Job
from repro.taskgraph.servers import TransformedNetwork, transform


# ----------------------------------------------------------------------
# Reference task-graph derivation (Section III-A steps 2-5, Fraction
# arithmetic end to end: Fraction invocation times, Fraction job
# parameters, graph-level transitive reduction over a second TaskGraph).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _RefInvocation:
    time: Time
    rank: int
    process: str
    k: int


def reference_simulate_invocations(
    pn: TransformedNetwork, H: Time
) -> List[_RefInvocation]:
    rank = {name: i for i, name in enumerate(pn.priority_order())}
    entries: List[_RefInvocation] = []
    for name, (period, burst) in pn.effective.items():
        count = 0
        n_periods = H / period
        if n_periods.denominator != 1:
            raise ModelError(
                f"frame {H} is not a multiple of period {period} of {name!r}"
            )
        for slot in range(int(n_periods)):
            t = slot * period
            for _ in range(burst):
                count += 1
                entries.append(_RefInvocation(t, rank[name], name, count))
    entries.sort(key=lambda e: (e.time, e.rank, e.process, e.k))
    return entries


def _reference_wcet_resolver(network: Network, wcet: WcetMap):
    if isinstance(wcet, Mapping):
        table = dict(wcet)
        missing = sorted(set(network.processes) - set(table))
        if missing:
            raise ModelError(f"missing WCET for processes {missing!r}")

        def resolve(process: str, k: int) -> Time:
            entry = table[process]
            if callable(entry):
                return as_positive_time(entry(process, k), f"WCET of {process}[{k}]")
            return as_positive_time(entry, f"WCET of {process!r}")

        return resolve

    uniform = as_positive_time(wcet, "WCET")
    return lambda process, k: uniform


def _reference_make_jobs(
    pn: TransformedNetwork,
    sequence: Sequence[_RefInvocation],
    wcet: WcetMap,
    H: Time,
) -> List[Job]:
    wcet_of = _reference_wcet_resolver(pn.network, wcet)
    jobs: List[Job] = []
    for inv in sequence:
        proc = pn.network.processes[inv.process]
        period, burst = pn.effective[inv.process]
        arrival = period * ((inv.k - 1) // burst)
        if proc.is_sporadic:
            spec = pn.servers[inv.process]
            deadline = arrival + proc.deadline - spec.period
            jobs.append(
                Job(
                    process=inv.process,
                    k=inv.k,
                    arrival=arrival,
                    deadline=min(H, deadline),
                    wcet=wcet_of(inv.process, inv.k),
                    is_server=True,
                    subset_index=(inv.k - 1) // burst + 1,
                    slot=(inv.k - 1) % burst + 1,
                )
            )
        else:
            deadline = arrival + proc.deadline
            jobs.append(
                Job(
                    process=inv.process,
                    k=inv.k,
                    arrival=arrival,
                    deadline=min(H, deadline),
                    wcet=wcet_of(inv.process, inv.k),
                )
            )
    return jobs


def _reference_generating_edges(
    pn: TransformedNetwork, sequence: Sequence[_RefInvocation]
) -> List[Tuple[int, int]]:
    by_process: Dict[str, List[int]] = {}
    for idx, inv in enumerate(sequence):
        by_process.setdefault(inv.process, []).append(idx)

    edges: List[Tuple[int, int]] = []
    for indices in by_process.values():
        edges.extend(zip(indices, indices[1:]))

    def next_of_partner(from_indices, to_indices):
        out = []
        j = 0
        for i in from_indices:
            while j < len(to_indices) and to_indices[j] < i:
                j += 1
            if j == len(to_indices):
                break
            out.append((i, to_indices[j]))
        return out

    names = sorted(by_process)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if not pn.fp_related(a, b):
                continue
            edges.extend(next_of_partner(by_process[a], by_process[b]))
            edges.extend(next_of_partner(by_process[b], by_process[a]))
    return sorted(set(edges))


def reference_transitive_reduction(graph: TaskGraph) -> TaskGraph:
    """Seed's graph-level reduction: bitset sweep over a built TaskGraph."""
    n = len(graph)
    succ_sets: List[Set[int]] = [set(graph.successors(i)) for i in range(n)]
    reach: List[int] = [0] * n
    for v in range(n - 1, -1, -1):
        acc = 0
        for w in succ_sets[v]:
            acc |= (1 << w) | reach[w]
        reach[v] = acc

    kept: List[Tuple[int, int]] = []
    for u in range(n):
        succs = succ_sets[u]
        indirect = 0
        for w in succs:
            indirect |= reach[w]
        for v in succs:
            if not (indirect >> v) & 1:
                kept.append((u, v))
    return TaskGraph(graph.jobs, kept, graph.hyperperiod)


def reference_derive_task_graph(
    network: Network,
    wcet: WcetMap,
    horizon: Optional[TimeLike] = None,
    reduce_edges: bool = True,
) -> TaskGraph:
    """The seed's Fraction-domain derivation: two TaskGraph constructions,
    Fraction job parameters, graph-level reduction."""
    pn = transform(network)
    H = lcm_periods([period for period, _ in pn.effective.values()])
    if horizon is not None:
        h = as_positive_time(horizon, "horizon")
        for name, (period, _) in pn.effective.items():
            if (h / period).denominator != 1:
                raise ModelError(
                    f"horizon {h} is not a multiple of the effective period "
                    f"{period} of process {name!r}"
                )
        H = h
    sequence = reference_simulate_invocations(pn, H)
    jobs = _reference_make_jobs(pn, sequence, wcet, H)
    edges = _reference_generating_edges(pn, sequence)
    graph = TaskGraph(jobs, edges, H)
    if reduce_edges:
        graph = reference_transitive_reduction(graph)
    return graph


# ----------------------------------------------------------------------
# Reference SP heuristics (Fraction sort keys, platform-aware WCETs).
# ----------------------------------------------------------------------

def reference_duration(job: Job, platform: Platform, processor: int) -> Time:
    """A job's execution time on flat processor *processor*."""
    return job.wcet_on(platform.class_of(processor))


def reference_aggregate_wcets(
    graph: TaskGraph, platform: PlatformLike, aggregate: str = "mean"
) -> List[Time]:
    """Per-job ``min`` / ``max`` / exact rational ``mean`` over the classes."""
    classes = as_platform(platform).classes
    out: List[Time] = []
    for job in graph.jobs:
        values = [job.wcet_on(cls) for cls in classes]
        if aggregate == "min":
            out.append(min(values))
        elif aggregate == "max":
            out.append(max(values))
        elif aggregate == "mean":
            out.append(sum(values, Time(0)) / len(values))
        else:
            raise ValueError(f"unknown WCET aggregate {aggregate!r}")
    return out


def _reference_ranks(keys: Sequence) -> List[int]:
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    ranks = [0] * len(keys)
    for pos, i in enumerate(order):
        ranks[i] = pos
    return ranks


def reference_priority(
    graph: TaskGraph,
    heuristic: str,
    platform: PlatformLike = 1,
    wcet_aggregate: str = "mean",
) -> List[int]:
    """Rank list of a built-in SP heuristic, from exact rational keys.

    ``alap`` and ``blevel`` weigh jobs by their aggregated WCET on
    *platform*; ``deadline`` and ``arrival`` never read a WCET.  Other
    registered names fall back to the library heuristic on the graph.
    """
    jobs = graph.jobs
    n = len(jobs)
    if heuristic == "deadline":
        return _reference_ranks(
            [(jobs[i].deadline, jobs[i].arrival, i) for i in range(n)]
        )
    if heuristic == "arrival":
        return _reference_ranks(
            [(jobs[i].arrival, jobs[i].deadline, i) for i in range(n)]
        )
    if heuristic not in ("alap", "blevel"):
        return list(get_heuristic(heuristic)(graph))
    wcet = reference_aggregate_wcets(graph, platform, wcet_aggregate)
    if heuristic == "blevel":
        blevel: List[Time] = [Time(0)] * n
        for i in range(n - 1, -1, -1):
            tail = max((blevel[s] for s in graph.successors(i)), default=0)
            blevel[i] = wcet[i] + tail
        return _reference_ranks(
            [(-blevel[i], jobs[i].deadline, i) for i in range(n)]
        )
    asap: List[Time] = [Time(0)] * n
    for i in range(n):
        asap[i] = max(
            [jobs[i].arrival]
            + [asap[p] + wcet[p] for p in graph.predecessors(i)]
        )
    alap: List[Time] = [Time(0)] * n
    for i in range(n - 1, -1, -1):
        alap[i] = min(
            [jobs[i].deadline]
            + [alap[s] - wcet[s] for s in graph.successors(i)]
        )
    return _reference_ranks([(alap[i], asap[i], i) for i in range(n)])


# ----------------------------------------------------------------------
# Reference list scheduler (Fraction event loop, list-based blocked set).
# ----------------------------------------------------------------------

def reference_list_schedule(
    graph: TaskGraph,
    processors: PlatformLike,
    priority="alap",
    wcet_aggregate: str = "mean",
) -> StaticSchedule:
    platform = as_platform(processors)
    if isinstance(priority, str):
        ranks = reference_priority(graph, priority, platform, wcet_aggregate)
    else:
        ranks = list(priority)
    n = len(graph)
    remaining_preds = [len(graph.predecessors(i)) for i in range(n)]
    entries: List[ScheduledJob] = []

    arrivals = [(graph.jobs[i].arrival, ranks[i], i) for i in range(n)]
    heapq.heapify(arrivals)
    ready: List = []
    running: List = []
    free = list(range(platform.processors))
    heapq.heapify(free)
    blocked: List[int] = []

    now = Time(0)
    scheduled = 0
    while scheduled < n:
        while arrivals and arrivals[0][0] <= now:
            _, rank, i = heapq.heappop(arrivals)
            if remaining_preds[i] == 0:
                heapq.heappush(ready, (rank, i))
            else:
                blocked.append(i)
        while ready and free:
            rank, i = heapq.heappop(ready)
            proc = heapq.heappop(free)
            entries.append(ScheduledJob(i, proc, now))
            finish = now + reference_duration(graph.jobs[i], platform, proc)
            heapq.heappush(running, (finish, proc, i))
            scheduled += 1
        if scheduled >= n:
            break
        candidates: List[Time] = []
        if running:
            candidates.append(running[0][0])
        if arrivals:
            candidates.append(arrivals[0][0])
        assert candidates, "reference scheduler deadlocked"
        now = max(now, min(candidates))
        while running and running[0][0] <= now:
            finish, proc, i = heapq.heappop(running)
            heapq.heappush(free, proc)
            for s in graph.successors(i):
                remaining_preds[s] -= 1
                if remaining_preds[s] == 0 and s in blocked:
                    blocked.remove(s)
                    if graph.jobs[s].arrival <= now:
                        heapq.heappush(ready, (ranks[s], s))
                    else:
                        heapq.heappush(
                            arrivals, (graph.jobs[s].arrival, ranks[s], s)
                        )
    return StaticSchedule(graph, platform, entries)


# ----------------------------------------------------------------------
# Reference feasibility check and objective (Definition 3.2 in Fractions).
# ----------------------------------------------------------------------

def _reference_placement(
    graph: TaskGraph,
    platform: Platform,
    entries: Sequence[ScheduledJob],
) -> Dict[int, Tuple[int, Time, Time]]:
    """``job -> (processor, start, end)`` of every scheduled job."""
    return {
        e.job_index: (
            e.processor,
            e.start,
            e.start + reference_duration(graph.jobs[e.job_index], platform,
                                         e.processor),
        )
        for e in entries
    }


def reference_violations(schedule: StaticSchedule) -> List[Tuple[str, str]]:
    """``(kind, detail)`` of every violation, in the library's report order."""
    graph, jobs = schedule.graph, schedule.graph.jobs
    entries = sorted(
        schedule.entries, key=lambda e: (e.start, e.processor, e.job_index)
    )
    placed = _reference_placement(graph, schedule.platform, entries)
    out: List[Tuple[str, str]] = []
    for i, job in enumerate(jobs):
        if i not in placed:
            out.append(("missing", f"job {job.name} unscheduled"))
    for e in entries:
        job = jobs[e.job_index]
        _, start, end = placed[e.job_index]
        if start < job.arrival:
            out.append(("arrival",
                        f"{job.name} starts at {time_str(start)} before "
                        f"arrival {time_str(job.arrival)}"))
        if end > job.deadline:
            out.append(("deadline",
                        f"{job.name} ends at {time_str(end)} "
                        f"after deadline {time_str(job.deadline)}"))
    for i, j in graph.edges():
        if i in placed and j in placed and placed[i][2] > placed[j][1]:
            out.append(("precedence",
                        f"{jobs[i].name} -> {jobs[j].name}: predecessor ends "
                        f"{time_str(placed[i][2])} after successor start "
                        f"{time_str(placed[j][1])}"))
    for m in range(schedule.processors):
        order = [e.job_index for e in entries if e.processor == m]
        for a, b in zip(order, order[1:]):
            if placed[a][2] > placed[b][1]:
                out.append(("mutex",
                            f"jobs {jobs[a].name} and {jobs[b].name} overlap "
                            f"on processor {m}"))
    return out


def reference_makespan(schedule: StaticSchedule) -> Time:
    placed = _reference_placement(
        schedule.graph, schedule.platform, schedule.entries
    )
    return max((end for _, _, end in placed.values()), default=Time(0))


def reference_objective(
    schedule: StaticSchedule,
) -> Tuple[Tuple[int, Time, Time], List[int]]:
    """``(misses, total lateness, makespan)`` plus the late jobs in entry
    order (start, processor, index)."""
    graph = schedule.graph
    entries = sorted(
        schedule.entries, key=lambda e: (e.start, e.processor, e.job_index)
    )
    placed = _reference_placement(graph, schedule.platform, entries)
    misses, lateness, late = 0, Time(0), []
    for e in entries:
        end = placed[e.job_index][2]
        deadline = graph.jobs[e.job_index].deadline
        if end > deadline:
            misses += 1
            lateness += end - deadline
            late.append(e.job_index)
    return (misses, lateness, reference_makespan(schedule)), late


# ----------------------------------------------------------------------
# Reference priority search (the hill climber over Fraction schedules).
# ----------------------------------------------------------------------

def reference_search_priorities(
    graph: TaskGraph,
    processors: PlatformLike,
    seed: int = 0,
    max_iterations: int = 2000,
    restarts: int = 4,
    seeds_from: Optional[Sequence[str]] = None,
    wcet_aggregate: str = "mean",
):
    """``(schedule, ranks, objective, iterations, restarts)`` of the
    seeded search, every candidate a Fraction list schedule."""
    platform = as_platform(processors)
    n = len(graph)
    rng = random.Random(seed)
    names = list(seeds_from or available_heuristics())

    def evaluate(ranks):
        return reference_objective(
            reference_list_schedule(graph, platform, list(ranks))
        )

    best = None
    total_iters = 0
    for restart in range(max(1, restarts)):
        if restart < len(names):
            ranks = reference_priority(
                graph, names[restart], platform, wcet_aggregate
            )
        else:
            ranks = list(range(n))
            rng.shuffle(ranks)
        objective, late = evaluate(ranks)
        for _ in range(max_iterations // max(1, restarts)):
            total_iters += 1
            if objective[0] == 0:
                break
            if late and rng.random() < 0.8:
                i = rng.choice(late)
            else:
                i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            ranks[i], ranks[j] = ranks[j], ranks[i]
            cand, cand_late = evaluate(ranks)
            if cand <= objective:
                objective, late = cand, cand_late
            else:
                ranks[i], ranks[j] = ranks[j], ranks[i]
        if best is None or objective < best[2]:
            best = (None, list(ranks), objective, total_iters, restart + 1)
        if best[2][0] == 0:
            break
    return (reference_list_schedule(graph, platform, best[1]),) + best[1:]


# ----------------------------------------------------------------------
# Reference execution-time models.
# ----------------------------------------------------------------------

def _reference_jitter_draw(
    seed: int, low_fraction: float, process: str, k: int, frame: int
) -> int:
    """The jitter draw rule, spelled out step by step.

    ``base`` = the first 8 bytes, little-endian, of the BLAKE2b digest of
    ``"<seed>/<process>"``; ``z`` = the splitmix64 finaliser of ``base +
    k * 0x9E3779B97F4A7C15 + frame * 0xD1B54A32D192ED03`` modulo 2**64;
    the draw is ``lo + floor(z * (10000 - lo + 1) / 2**64)`` with
    ``lo = max(1, round(low_fraction * 10000))``.
    """
    modulus = 2 ** 64
    text = "%d/%s" % (seed, process)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    (base,) = struct.unpack("<Q", digest)
    z = (base + k * 0x9E3779B97F4A7C15 + frame * 0xD1B54A32D192ED03) % modulus
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % modulus
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % modulus
    z = z ^ (z >> 31)
    lo = max(1, round(low_fraction * 10_000))
    return lo + (z * (10_000 - lo + 1)) // modulus


def reference_jittered_execution(
    seed: int, low_fraction: float = 0.5
) -> Callable[[Job, int], Time]:
    """Fresh sampler: every sample digests and mixes its key anew."""

    def sample(job: Job, frame: int) -> Time:
        draw = _reference_jitter_draw(
            seed, low_fraction, job.process, job.k, frame
        )
        return job.wcet * draw / 10_000

    return sample


def reference_memo_jittered_execution(
    seed: int, low_fraction: float = 0.5
) -> Callable[[Job, int], Time]:
    """A WCET-checked Fraction memo sampler.

    Each sample is memoised per ``(process, k, frame)`` together with the
    WCET it scaled, and drawn again when a job with another WCET asks for
    the same instance.
    """
    memo: Dict[Tuple[str, int, int], Tuple[Time, Time]] = {}

    def sample(job: Job, frame: int) -> Time:
        key = (job.process, job.k, frame)
        hit = memo.get(key)
        if hit is not None and hit[0] == job.wcet:
            return hit[1]
        draw = _reference_jitter_draw(
            seed, low_fraction, job.process, job.k, frame
        )
        value = job.wcet * draw / 10_000
        memo[key] = (job.wcet, value)
        return value

    return sample


def _resolve_execution_time(graph: TaskGraph, spec) -> Callable[[Job, int], Time]:
    if spec is None:
        return lambda job, frame: job.wcet
    if callable(spec):
        return lambda job, frame: as_time(spec(job, frame))
    table = {
        name: as_positive_time(value, f"execution time of {name!r}")
        for name, value in spec.items()
    }
    return lambda job, frame: table[job.process]


# ----------------------------------------------------------------------
# Reference runtime simulation (Fraction timing phase + data phase).
# ----------------------------------------------------------------------

def reference_run_static_order(
    network: Network,
    schedule: StaticSchedule,
    n_frames: int,
    stimulus: Optional[Stimulus] = None,
    execution_time=None,
    overheads: Optional[OverheadModel] = None,
) -> RuntimeResult:
    network.validate_taskgraph_subclass()
    graph = schedule.graph
    hyperperiod = graph.hyperperiod
    overheads = overheads or OverheadModel.none()
    stimulus = stimulus or Stimulus()
    stimulus.validate(network)
    exec_of = _resolve_execution_time(graph, execution_time)
    binding = ArrivalBinding(network, hyperperiod, n_frames, stimulus)
    per_frame_counts: Dict[str, int] = {}
    for job in graph.jobs:
        per_frame_counts[job.process] = per_frame_counts.get(job.process, 0) + 1

    records: List[JobRecord] = []
    instance_order: List[Tuple[Time, int, int]] = []
    chain_end: List[Time] = [Time(0)] * schedule.processors
    ends: Dict[Tuple[int, int], Time] = {}
    record_at: Dict[Tuple[int, int], JobRecord] = {}
    overhead_intervals: List[Tuple[int, Time, Time]] = []

    topo = sorted(range(len(graph)), key=lambda i: (schedule.start(i), i))

    for frame in range(n_frames):
        base = hyperperiod * frame
        ov = overheads.frame_arrival(frame)
        if ov > 0:
            overhead_intervals.append((frame, base, base + ov))
        floor = base + ov
        for job_idx in topo:
            job = graph.jobs[job_idx]
            proc = schedule.mapping(job_idx)
            process = network.processes[job.process]
            if job.is_server:
                bound = binding.lookup(
                    job.process, frame, job.subset_index, job.slot
                )
                if bound is None:
                    nominal = base + job.arrival
                    visible, release, deadline = (
                        max(nominal, floor),
                        nominal,
                        nominal + process.deadline,
                    )
                    is_false = True
                    global_k = frame * per_frame_counts[job.process] + job.k
                else:
                    visible = max(bound.time, floor, base)
                    release = bound.time
                    deadline = bound.time + process.deadline
                    is_false = False
                    global_k = bound.global_k
            else:
                nominal = base + job.arrival
                visible = max(nominal, floor)
                release = nominal
                deadline = nominal + process.deadline
                is_false = False
                global_k = frame * per_frame_counts[job.process] + job.k
            start = max(visible, chain_end[proc])
            for p in graph.predecessors(job_idx):
                start = max(start, ends[(frame, p)])
            cls = schedule.platform.class_of(proc)
            duration = Time(0)
            if not is_false:
                duration = (
                    exec_of(job, frame) * job.wcet_on(cls) / job.wcet
                    + overheads.per_job
                )
            end = start + duration
            chain_end[proc] = end
            ends[(frame, job_idx)] = end
            rec = JobRecord(
                process=job.process,
                frame=frame,
                k_frame=job.k,
                global_k=global_k,
                processor=proc,
                release=release,
                start=start,
                end=end,
                deadline=deadline,
                is_false=is_false,
                is_server=job.is_server,
                processor_class=cls.name,
            )
            records.append(rec)
            record_at[(frame, job_idx)] = rec
            if not is_false:
                instance_order.append((start, frame, job_idx))

    channel_logs, external_outputs, trace = _reference_data_phase(
        network, sorted(instance_order), record_at, stimulus
    )
    return RuntimeResult(
        network_name=network.name,
        frames=n_frames,
        hyperperiod=hyperperiod,
        processors=schedule.processors,
        records=records,
        channel_logs=channel_logs,
        external_outputs=external_outputs,
        trace=trace,
        overhead_intervals=overhead_intervals,
    )


def reference_data_phase(
    network: Network,
    order: Sequence[Tuple[str, int, Time]],
    stimulus: Optional[Stimulus] = None,
):
    """The seed's naive data phase: one fresh ``JobContext`` per instance.

    *order* is the execution order of the true job instances as
    ``(process, global_k, release)`` tuples.  Every instance allocates a
    fresh context over freshly-built binding dicts, with fresh
    ``samples_for`` copies and an eager action :class:`Trace` — the exact
    unbatched allocation pattern the optimised
    ``MultiprocessorExecutor._data_phase`` replaced.  Returns
    ``(channel_logs, external_outputs, trace)``; the differential suite
    asserts these are bit-identical to the fast path's.
    """
    stimulus = stimulus or Stimulus()
    channel_states: Dict[str, ChannelState] = {
        name: spec.new_state() for name, spec in network.channels.items()
    }
    variables: Dict[str, Dict[str, Any]] = {
        name: proc.fresh_variables() for name, proc in network.processes.items()
    }
    ext_out: Dict[str, ExternalOutputState] = {
        name: ExternalOutputState(spec)
        for name, spec in network.external_outputs.items()
    }
    trace = Trace()
    for pname, global_k, release in order:
        proc = network.processes[pname]
        ctx = JobContext(
            process=pname,
            k=global_k,
            now=release,
            variables=variables[pname],
            inputs={n: channel_states[n] for n in proc.inputs},
            outputs={n: channel_states[n] for n in proc.outputs},
            external_inputs={
                n: stimulus.samples_for(n) for n in proc.external_inputs
            },
            external_outputs={n: ext_out[n] for n in proc.external_outputs},
            trace=trace,
        )
        trace.append(JobStart(pname, global_k))
        proc.behavior.run_job(ctx)
        trace.append(JobEnd(pname, global_k))
    return (
        {n: list(s.write_log) for n, s in channel_states.items()},
        {n: s.as_sequence() for n, s in ext_out.items()},
        trace,
    )


def _reference_data_phase(
    network: Network,
    order: List[Tuple[Time, int, int]],
    record_at: Dict[Tuple[int, int], JobRecord],
    stimulus: Stimulus,
):
    return reference_data_phase(
        network,
        [
            (record_at[(frame, job_idx)].process,
             record_at[(frame, job_idx)].global_k,
             record_at[(frame, job_idx)].release)
            for _start, frame, job_idx in order
        ],
        stimulus,
    )
