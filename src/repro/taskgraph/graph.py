"""The task graph ``TG(J, E)``: a DAG of jobs with precedence edges.

Jobs are stored in the total order ``<J`` produced by the derivation's
hyperperiod simulation, so the node list itself is a topological order —
every edge ``(i, j)`` satisfies ``i < j``.  The class enforces this, which
makes downstream algorithms (ASAP/ALAP, list scheduling, transitive
reduction) single forward/backward passes.

The graph is immutable: the constructor checks every edge and builds one
**sorted tuple** of successors and one of predecessors per job, so the hot
scheduling and simulation loops pay no per-call sorting, and the tables
of them and every memo (ranks, time views, run columns) live as long as
the graph without a staleness check.  Section III-A derives the graph
once; list scheduling and the online policy only read it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ModelError
from ..core.platform import Platform
from ..core.ticks import JobTicks, PlatformTicks
from ..core.timebase import Time
from .jobs import Job

Edge = Tuple[int, int]


class TaskGraph:
    """A directed acyclic graph of jobs with index-based edges.

    Parameters
    ----------
    jobs:
        Jobs in ``<J`` order (arrival-time–major total order from the
        derivation).
    edges:
        Iterable of ``(i, j)`` int index pairs, each with ``i < j``.
    hyperperiod:
        The frame length ``H`` the graph was derived for (kept for the
        online policy and feasibility checks); optional for hand-built
        graphs in tests.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        edges: Iterable[Edge] = (),
        hyperperiod: Optional[Time] = None,
    ) -> None:
        self.jobs: Tuple[Job, ...] = tuple(jobs)
        self.hyperperiod = hyperperiod
        names = [j.name for j in self.jobs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ModelError(f"duplicate job names in task graph: {dupes!r}")
        self._index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        n = len(self.jobs)
        succ: List[Tuple[int, ...]] = [()] * n
        pred: List[Tuple[int, ...]] = [()] * n
        for i, j in edges:
            # bool is an int subclass, but True/False is no job index
            if type(i) is not int or type(j) is not int:
                raise ModelError(
                    f"edge ({i!r}, {j!r}) must join two int job indices"
                )
            if not (0 <= i < n and 0 <= j < n):
                raise ModelError(f"edge ({i}, {j}) out of range for {n} jobs")
            if i >= j:
                if i == j:
                    raise ModelError(f"self-loop on job {self.jobs[i].name}")
                raise ModelError(
                    f"edge ({i}, {j}) violates the <J total order "
                    f"({self.jobs[i].name} comes after {self.jobs[j].name})"
                )
            s = succ[i]
            if j in s:  # a repeated edge is a no-op
                continue
            # Sorted inserts; derivation order makes appends the common case.
            succ[i] = s + (j,) if not s or s[-1] < j else tuple(sorted((*s, j)))
            p = pred[j]
            pred[j] = p + (i,) if not p or p[-1] < i else tuple(sorted((*p, i)))
        self._succ = succ
        self._pred = pred
        self._ranks: Dict[Any, List[int]] = {}
        self._jobs_of_view: Optional[Dict[str, Tuple[int, ...]]] = None
        self._tick_times: Optional[JobTicks] = None
        self._arrival_order: Optional[Tuple[int, ...]] = None
        self._platform_ticks: Dict[tuple, PlatformTicks] = {}
        self._run_memo: Dict[Any, Any] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def index_of(self, name: str) -> int:
        """Index of the job named ``p[k]``."""
        try:
            return self._index[name]
        except KeyError:
            raise ModelError(f"no job named {name!r} in task graph") from None

    def job(self, name: str) -> Job:
        return self.jobs[self.index_of(name)]

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._succ[i]

    def has_edge_named(self, a: str, b: str) -> bool:
        return self.has_edge(self.index_of(a), self.index_of(b))

    def successors(self, i: int) -> Tuple[int, ...]:
        """Direct successors of job *i* as a sorted tuple."""
        return self._succ[i]

    def predecessors(self, i: int) -> Tuple[int, ...]:
        """Direct predecessors of job *i* as a sorted tuple."""
        return self._pred[i]

    def successor_table(self) -> List[Tuple[int, ...]]:
        """The successor tuples, indexed like ``jobs`` (the stored list:
        callers must not mutate it)."""
        return self._succ

    def predecessor_table(self) -> List[Tuple[int, ...]]:
        """The predecessor tuples (the stored list, like :meth:`successor_table`)."""
        return self._pred

    def edges(self) -> List[Edge]:
        """All edges as sorted ``(i, j)`` pairs."""
        return [(i, j) for i, succs in enumerate(self._succ) for j in succs]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._succ)

    def sources(self) -> Tuple[int, ...]:
        """Jobs with no predecessors."""
        return tuple(i for i, preds in enumerate(self._pred) if not preds)

    def sinks(self) -> Tuple[int, ...]:
        """Jobs with no successors."""
        return tuple(i for i, succs in enumerate(self._succ) if not succs)

    # ------------------------------------------------------------------
    def jobs_of(self, process: str) -> Tuple[int, ...]:
        """Indices of all jobs of *process*, in k order (cached tuple)."""
        view = self._jobs_of_view
        if view is None:
            grouped: Dict[str, List[int]] = {}
            for i, j in enumerate(self.jobs):
                grouped.setdefault(j.process, []).append(i)
            view = self._jobs_of_view = {
                name: tuple(sorted(idxs, key=lambda i: self.jobs[i].k))
                for name, idxs in grouped.items()
            }
        return view.get(process, ())

    def tick_times(self) -> JobTicks:
        """The graph's integer-tick time view (cached; see :mod:`repro.core.ticks`).

        Contains every job arrival, deadline and WCET plus the hyperperiod,
        so all list-scheduling and priority arithmetic over this graph can
        run on plain integers and convert back exactly.
        """
        tt = self._tick_times
        if tt is None:
            tt = self._tick_times = JobTicks(self.jobs, self.hyperperiod)
        return tt

    def arrival_order(self) -> Tuple[int, ...]:
        """Job indices by arrival, ties in ``<J`` order (cached; every duration
        table rescales arrivals uniformly, so this one order serves all)."""
        order = self._arrival_order
        if order is None:
            order = self._arrival_order = tuple(sorted(
                range(len(self.jobs)), key=self.tick_times().arrival.__getitem__
            ))
        return order

    def rank_memo(self) -> Dict[Any, List[int]]:
        """This graph's memo of SP heuristic rank lists.

        Callers must not mutate a list they read from it.
        """
        return self._ranks

    def platform_ticks(self, platform: Platform) -> PlatformTicks:
        """The graph's duration table on *platform* (cached per shape).

        Keyed by :meth:`Platform.classes_key`; see
        :class:`~repro.core.ticks.PlatformTicks`.
        """
        key = platform.classes_key()
        table = self._platform_ticks.get(key)
        if table is None:
            table = self._platform_ticks[key] = PlatformTicks(
                self.tick_times(), self.jobs, platform
            )
        return table

    def run_memo(self) -> Dict[Any, Any]:
        """This graph's memo of job-derived run state.

        The runtime keeps per-job views of the frozen job list here, so
        every schedule of one graph shares them.  Values must not refer
        back to the graph.
        """
        return self._run_memo

    def total_wcet(self) -> Time:
        """Sum of all job WCETs (the numerator of utilization over a frame)."""
        total = Time(0)
        for j in self.jobs:
            total += j.wcet
        return total

    def reachable_from(self, i: int) -> Set[int]:
        """All jobs reachable from *i* by a non-empty path."""
        seen: Set[int] = set(self._succ[i])
        for v in range(i + 1, len(self.jobs)):  # <J is topological
            if v in seen:
                seen.update(self._succ[v])
        return seen

    def is_transitively_reduced(self) -> bool:
        """True when no edge is implied by a longer path."""
        from .transitive import reduce_edge_list

        return len(reduce_edge_list(len(self), self.edges())) == self.edge_count

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"TaskGraph(jobs={len(self.jobs)}, edges={self.edge_count}, "
            f"H={self.hyperperiod})"
        )

