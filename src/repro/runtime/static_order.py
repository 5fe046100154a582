"""The online static-order policy: run plan and sporadic-arrival binding.

Section IV: the online policy repeats the static schedule's frame with
period ``H``.  Jobs are bound to processors by the static mapping ``μi``;
on each processor, *only the order* of the static start times ``si`` is kept
(start times themselves are not robust against WCET estimation error).  Each
round on a processor:

1. **Synchronize Invocation** — wait for the invocation corresponding to the
   current job; for a sporadic (server) job the invocation may come at
   ``Ai``, earlier, or never — in which case the job is marked **false** at
   time ``Ai``;
2. **Synchronize Precedence** — wait for all task-graph predecessors mapped
   to other processors;
3. **Execute** — unless marked false.

This module computes the *run plan* (the frame order plus the per-job
constants the executor reads of a schedule) and implements the binding of
real sporadic arrivals to server-job slots, including the boundary rule: a
real job arriving exactly at a window boundary ``b`` belongs to the window
ending at ``b`` iff ``p -> u(p)`` (window ``(a, b]``), else to the next
window (window ``[a, b)``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import RuntimeModelError
from ..core.invocations import Stimulus
from ..core.network import Network
from ..core.ticks import TickDomain
from ..core.timebase import Time
from ..taskgraph.jobs import Job
from ..taskgraph.servers import ServerSpec, transform
from ..scheduling.schedule import StaticSchedule


@dataclass(frozen=True)
class BoundArrival:
    """One real sporadic arrival bound to a server-job slot.

    ``global_k`` is the arrival's 1-based index over the whole run — the
    invocation count the zero-delay semantics would use, so runtime and
    reference executions agree on sample indices.
    """

    process: str
    time: Time
    global_k: int
    frame: int
    subset: int
    slot: int


class ArrivalBinding:
    """Maps every real sporadic arrival to ``(frame, subset, slot)``.

    The binding is a pure function of the arrival trace and the server
    specs — independent of scheduling — which is what makes the policy
    deterministic (Prop. 4.1).  :meth:`of` shares one binding per
    stimulus, server specs, hyperperiod and frame count; ``domain`` is
    the tick domain every bound arrival time converts to exactly.

    Per sporadic process it keeps the sorted arrival times and one flat
    slot index per served arrival; served arrivals are a prefix of the
    trace (a window's frame grows with its arrival time), so position
    ``i`` is ``global_k = i + 1``.  :class:`BoundArrival` values are
    built only when asked for.
    """

    @classmethod
    def of(
        cls,
        network: Network,
        hyperperiod: Time,
        n_frames: int,
        stimulus: Stimulus,
    ) -> "ArrivalBinding":
        """The binding, memoised on the stimulus (:meth:`Stimulus.run_memo`).

        Keyed by what the binding reads of the network, its server specs
        (:meth:`Network.run_memo` keeps them), and by the hyperperiod and
        frame count.  Every run over one stimulus and equal networks —
        sweep cells, and later sweeps that build their network afresh —
        shares one binding and its slot tables; a changed sporadic period
        or burst, user period or boundary rule misses.  The memo lives as
        long as the stimulus.
        """
        memo = stimulus.run_memo(network)
        key = ("arrival-binding", _server_specs(network), hyperperiod, n_frames)
        binding = memo.get(key)
        if binding is None:
            binding = memo[key] = cls(network, hyperperiod, n_frames, stimulus)
        return binding

    def __init__(
        self,
        network: Network,
        hyperperiod: Time,
        n_frames: int,
        stimulus: Stimulus,
    ) -> None:
        if n_frames < 1:
            raise RuntimeModelError("need at least one frame")
        servers = _server_specs(network)
        self.hyperperiod = hyperperiod
        self.n_frames = n_frames
        self._dropped: List[BoundArrival] = []
        self._slot_tables: Dict[Tuple[Any, int], List[Dict[int, Tuple[int, int]]]] = {}
        arrivals_by_name = {
            spec.process: sorted(stimulus.arrivals_for(spec.process))
            for spec in servers
        }
        # One tick domain over every period and arrival: the per-arrival
        # window arithmetic below is pure integer floor division.
        dom = TickDomain.for_values(chain(
            (hyperperiod,),
            (spec.period for spec in servers),
            (t for arr in arrivals_by_name.values() for t in arr),
        ))
        self.domain = dom
        #: process -> (sorted arrival times, the flat slot index of each
        #: served one, subsets per frame, burst)
        self._procs: Dict[str, Tuple[List[Time], List[int], int, int]] = {}
        H_t = dom.to_ticks(hyperperiod)
        for spec in servers:
            name, burst = spec.process, spec.burst
            times = arrivals_by_name[name]
            T_t = dom.to_ticks(spec.period)
            n_sub = -(-H_t // T_t)
            flat: List[int] = []
            for global_k, t in enumerate(times, start=1):
                t_t = dom.to_ticks(t)
                frame, subset = _window_of_ticks(
                    t_t, T_t, H_t, spec.boundary_closed_right
                )
                if frame >= n_frames or t_t >= H_t * n_frames:
                    self._dropped.append(
                        BoundArrival(name, t, global_k, frame, subset, slot=0)
                    )
                    continue
                # Window w's slots are flat indices w * burst + slot - 1,
                # taken in arrival order.
                first = (frame * n_sub + subset - 1) * burst
                f = flat[-1] + 1 if flat and flat[-1] >= first else first
                if f - first >= burst:
                    raise RuntimeModelError(
                        f"more than {burst} arrivals of {name!r} bound to one "
                        "server window — the arrival trace violates the "
                        "sporadic constraint"
                    )
                flat.append(f)
            self._procs[name] = (times, flat, n_sub, burst)

    def _served_of(
        self, process: str
    ) -> Iterator[Tuple[Time, int, int, int, int]]:
        """``(time, global_k, frame, subset, slot)`` of each served arrival."""
        times, flat, n_sub, burst = self._procs[process]
        for i, f in enumerate(flat):
            window, slot = divmod(f, burst)
            frame, subset = divmod(window, n_sub)
            yield times[i], i + 1, frame, subset + 1, slot + 1

    # ------------------------------------------------------------------
    def lookup(
        self, process: str, frame: int, subset: int, slot: int
    ) -> Optional[BoundArrival]:
        """The real arrival served by a server-job slot, or ``None`` (false job)."""
        times, flat, n_sub, burst = self._procs.get(process, ((), (), 0, 0))
        if not (1 <= subset <= n_sub and 1 <= slot <= burst):
            return None
        f = (frame * n_sub + subset - 1) * burst + slot - 1
        i = bisect_left(flat, f)
        if i == len(flat) or flat[i] != f:
            return None
        return BoundArrival(process, times[i], i + 1, frame, subset, slot)

    def slot_ticks(
        self, layout: Tuple[Tuple[int, str, int, int], ...], scale: int
    ) -> List[Dict[int, Tuple[int, int]]]:
        """Per-frame ``{job index: (arrival tick, global_k)}`` slot tables.

        *layout* lists a task graph's server jobs as ``(job index,
        process, subset, slot)``; *scale* is the run's tick scale, a
        multiple of :attr:`domain`'s.  A job index missing from a frame's
        table is a false job in that frame.  Memoised per ``(layout,
        scale)``: callers must not mutate the tables.
        """
        key = (layout, scale)
        table = self._slot_tables.get(key)
        if table is None:
            factor = self.domain.rescale_factor(TickDomain(scale))
            to_ticks = self.domain.to_ticks
            job_of = {(p, subset, slot): i for i, p, subset, slot in layout}
            table = [{} for _ in range(self.n_frames)]
            for process in self._procs:
                for t, global_k, frame, subset, slot in self._served_of(process):
                    i = job_of.get((process, subset, slot))
                    if i is not None:
                        table[frame][i] = (to_ticks(t) * factor, global_k)
            self._slot_tables[key] = table
        return table

    def dropped(self) -> List[BoundArrival]:
        """Arrivals beyond the simulated horizon (not served by any frame)."""
        return list(self._dropped)

    def served(self) -> List[BoundArrival]:
        """All bound arrivals, ordered by ``global_k`` per process."""
        return [
            BoundArrival(p, *served)
            for p in sorted(self._procs) for served in self._served_of(p)
        ]


def _server_specs(network: Network) -> Tuple[ServerSpec, ...]:
    """``transform(network).servers``, memoised on the network."""
    memo = network.run_memo()
    specs = memo.get("server-specs")
    if specs is None:
        specs = memo["server-specs"] = tuple(transform(network).servers.values())
    return specs


def _window_of_ticks(
    t_t: int, T_t: int, H_t: int, closed_right: bool
) -> Tuple[int, int]:
    """The (frame, subset) whose server window contains arrival tick ``t_t``.

    ``closed_right`` selects the boundary rule of Section IV: a window
    ``(b - T, b]`` keeps a boundary arrival (``b`` = smallest multiple of
    ``T`` with ``b >= t``), a window ``[b - T, b)`` defers it (``b`` =
    smallest multiple strictly greater than ``t``).
    """
    if closed_right:
        b_index = -(-t_t // T_t)  # ceil
    else:
        b_index = t_t // T_t + 1
    b_t = b_index * T_t
    frame = b_t // H_t
    subset = (b_t - frame * H_t) // T_t + 1
    return frame, subset


def served_horizon(network: Network, hyperperiod: Time, n_frames: int) -> Time:
    """Latest time up to which every sporadic arrival is served in-frame.

    A finite simulation of ``n_frames`` frames serves, for each sporadic
    process, only the server windows whose subset arrives within the
    simulated frames; the last subset of the last frame arrives at
    ``n_frames*H - T'`` and serves the window ending there.  Arrivals later
    than that are deferred to unsimulated frames (the runtime would handle
    them in frame ``n_frames``), so equivalence comparisons against the
    zero-delay semantics must truncate stimuli at this horizon.

    Returns ``n_frames * H`` when the network has no sporadic processes.
    """
    if n_frames < 1:
        raise RuntimeModelError("need at least one frame")
    servers = _server_specs(network)
    horizon = hyperperiod * n_frames
    if not servers:
        return horizon
    return horizon - max(spec.period for spec in servers)


class RunPlan:
    """What the executor reads of a static schedule, as plain data.

    Section IV's policy consumes only the schedule's mapping and order, so
    every field is a pure function of the schedule: the frame ``order``
    (the start order, accepted by the schedule's Definition 3.2 check);
    the graph's ``pred_table``; per job, indexed like the graph's jobs,
    ``proc_of``, the base duration on that processor in the graph's
    duration-table ticks (``wcet_t``), its process's jobs per frame
    (``counts``), ``is_server``, ``k``, ``process`` and ``keys``
    (``(process, k)``); the ``processes`` in order of first job; the
    server jobs as ``(job index, process, subset, slot)`` (``layout``,
    the arrival binding's slot-table key); per processor ``class_name``.

    :meth:`of` builds it on a schedule's first run and keeps it in the
    schedule's run memo (:meth:`StaticSchedule.run_memo`) for every later
    run; the job columns that depend on the graph alone (``process``
    through ``layout``) are shared by every schedule of the graph
    (:meth:`TaskGraph.run_memo`).  Callers must not mutate it.  It holds
    no reference back to the schedule: the cycle would outlive the
    schedule's last user until the next garbage collection.
    """

    __slots__ = (
        "pred_table", "order", "proc_of", "wcet_t", "counts", "is_server",
        "k", "process", "keys", "processes", "layout", "class_name",
    )

    @classmethod
    def of(cls, schedule: StaticSchedule) -> "RunPlan":
        """The schedule's plan, built on first use."""
        memo = schedule.run_memo()
        plan = memo.get("run-plan")
        if plan is None:
            plan = memo["run-plan"] = cls(schedule)
        return plan

    def __init__(self, schedule: StaticSchedule) -> None:
        graph = schedule.graph
        self.pred_table = graph.predecessor_table()
        _refuse(schedule, schedule._problems())
        self.order = schedule.start_order()
        self.proc_of = proc_of = schedule.mapping_table()
        per_proc = graph.platform_ticks(schedule.platform).per_proc
        self.wcet_t = [per_proc[p][i] for i, p in enumerate(proc_of)]
        self.class_name = [
            c.name for c in schedule.platform.class_per_processor()
        ]
        memo = graph.run_memo()
        columns = memo.get("job-columns")
        if columns is None:
            columns = memo["job-columns"] = _job_columns(graph.jobs)
        (self.process, self.k, self.keys, self.is_server, self.counts,
         self.processes, self.layout) = columns


def _job_columns(jobs: Sequence[Job]) -> Tuple[Any, ...]:
    """The run plan's per-job columns that depend on the jobs alone."""
    process = [j.process for j in jobs]
    k = [j.k for j in jobs]
    per_frame = Counter(process)
    return (
        process,
        k,
        list(zip(process, k)),
        [j.is_server for j in jobs],
        [per_frame[p] for p in process],
        tuple(per_frame),
        tuple(
            (i, j.process, j.subset_index, j.slot)
            for i, j in enumerate(jobs) if j.is_server
        ),
    )


def _refuse(
    schedule: StaticSchedule, problems: List[Tuple[str, int, int]]
) -> None:
    """Raise if the frame order, the schedule's start order, is not
    topological for the precedence edges.

    *problems* is the schedule's memoised Definition 3.2 check.  An
    unscheduled job raises :class:`SchedulingError`; a successor that
    starts before its predecessor (a precedence problem, as no job ends
    before it starts) raises :class:`RuntimeModelError` for the lowest
    successor, then predecessor: the timing recurrence would read
    uncomputed end times.  Overlaps and misses run.
    """
    if problems and problems[0][0] == "missing":
        schedule.mapping(problems[0][1])  # raises SchedulingError
    start = schedule.start
    reversed_edges = [
        (j, i) for kind, i, j in problems
        if kind == "precedence" and start(i) > start(j)
    ]
    if reversed_edges:
        j, i = min(reversed_edges)
        jobs = schedule.graph.jobs
        raise RuntimeModelError(
            f"static schedule starts job {jobs[j].name} before its "
            f"predecessor {jobs[i].name} — precedence-violating "
            "schedules cannot drive the static-order policy"
        )
