"""Task-graph derivation (Section III-A, steps 1–5).

Given a validated subclass FPPN and per-process WCETs, derive the task graph
``TG(J, E)``:

1. build ``PN'`` replacing sporadic processes by ``m``-periodic servers
   (:mod:`repro.taskgraph.servers`);
2. simulate the job invocation order of ``PN'`` over one hyperperiod
   ``[0, H)``, ``H = lcm(T_p in PN')``, yielding the total order ``<J``;
3. add precedence edges ``(Ja, Jb)`` for ``Ja <J Jb`` whenever
   ``pa ⋈ pb  ∨  pa = pb`` (⋈ = directly FP'-related), with job parameters

   * periodic ``p``:  ``Ai = Tp * floor((k-1)/mp)``, ``Di = Ai + dp``;
   * sporadic ``p``:  ``Ai = Tp' * floor((k-1)/mp')``, ``Di = Ai + dp - Tp'``;

4. truncate required times to the hyperperiod: ``Di := min(H, Di)``;
5. remove redundant edges by transitive reduction.

The edge rule of step 3 quantifies over *all* ordered pairs; building that
quadratic edge set only to reduce it away is wasteful, so by default we emit
the **generating subset** — consecutive same-process edges plus, per related
process pair, each job's edge to the next job of the other process — whose
transitive closure provably equals the full rule's (the reduction of step 5
is unique per closure, so the result is identical).  ``dense=True`` forces
the literal quadratic construction; the test suite cross-checks both paths.

**Tick-domain boundary.**  Steps 2–4 run entirely in the integer tick domain
(:mod:`repro.core.ticks`): one :class:`TickDomain` is built per derivation
from the transformed network's periods, deadlines and frame length, the
invocation simulation and all job-parameter arithmetic (``Ai``, ``Di``,
truncation) happen on machine integers, and the results convert back to
exact rationals only at the :class:`~repro.taskgraph.graph.TaskGraph`
boundary, when :class:`~repro.taskgraph.jobs.Job` objects are materialised.
Because the tick map is an exact, strictly monotone linear bijection, the
derived graph is **bit-identical** to a pure-Fraction derivation — jobs,
parameters and edges alike (enforced by ``tests/test_tick_equivalence.py``
against the reference implementation in ``tests/fraction_reference.py``).
Step 5 runs on the raw integer edge list (:func:`~repro.taskgraph.
transitive.reduce_edge_list`) *before* the graph is materialised, so only
one ``TaskGraph`` is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ModelError
from ..core.network import Network
from ..core.ticks import TickDomain
from ..core.timebase import Time, TimeLike, as_positive_time, hyperperiod as lcm_periods
from .graph import TaskGraph
from .jobs import Job, WcetTable, normalize_wcet_table
from .servers import TransformedNetwork, transform
from .transitive import reduce_edge_list

#: A per-process WCET spec entry: a scalar, a per-job callable, or a
#: per-processor-class table (``{class name: value}`` or canonical
#: name-sorted pairs) for heterogeneous platforms.
WcetLike = Union[
    TimeLike,
    Callable[[str, int], TimeLike],
    Mapping[str, TimeLike],
    WcetTable,
]
WcetMap = Union[Mapping[str, WcetLike], TimeLike]

#: One entry of the tick-domain invocation sequence: ``(tick, rank, name, k)``.
#: Tuple order *is* the total order ``<J`` — sorted by invocation tick, then
#: FP' topological rank (higher priority first), then process name (for
#: FP'-unrelated ties — harmless, as unrelated processes get no edges), then
#: invocation count within a burst.
_TickInvocation = Tuple[int, int, str, int]


@dataclass(frozen=True)
class _Invocation:
    """One entry of the simulated invocation sequence of PN' (public,
    Fraction-domain view; the derivation itself stays in ticks)."""

    time: Time
    rank: int       # FP' topological rank of the process
    process: str
    k: int          # 1-based invocation count


def derive_task_graph(
    network: Network,
    wcet: WcetMap,
    horizon: Optional[TimeLike] = None,
    dense: bool = False,
    reduce_edges: bool = True,
) -> TaskGraph:
    """Derive the task graph of a subclass FPPN.

    Parameters
    ----------
    network:
        A network satisfying the Section III-A subclass restrictions.
    wcet:
        Either a single value (uniform WCET, like the 25 ms of Fig. 3), or a
        mapping ``process name -> value`` where each value is a time-like, a
        callable ``(process, k) -> time-like`` for per-job WCETs, or a
        per-processor-class table ``{class name: value}`` for heterogeneous
        platforms.  Table-carrying jobs materialise with ``wcet`` set to the
        conservative maximum over the classes and the resolved table in
        ``wcet_by_class``; a graph's duration table on a platform
        (:meth:`TaskGraph.platform_ticks`) spans every class value, so all
        class-resolved durations stay exactly representable.
    horizon:
        Frame length; defaults to the hyperperiod of ``PN'``.  Must be a
        positive multiple of every effective period when given (the paper
        always uses exactly ``H``).
    dense:
        Build the literal quadratic edge set of step 3 before reduction.
    reduce_edges:
        Apply step 5 (transitive reduction).  Disabled only by tests that
        verify the reduction itself.
    """
    pn = transform(network)
    H = _frame_length(pn, horizon)
    dom = _derivation_domain(pn, H)
    H_t = dom.to_ticks(H)
    sequence = _invocation_ticks(pn, dom, H_t, H)
    jobs = _make_jobs(pn, sequence, wcet, H_t, dom)
    edges = (_dense_edges if dense else _generating_edges)(pn, sequence)
    if reduce_edges:
        edges = reduce_edge_list(len(jobs), edges)
    return TaskGraph(jobs, edges, H)


def _frame_length(pn: TransformedNetwork, horizon: Optional[TimeLike]) -> Time:
    H = lcm_periods([period for period, _ in pn.effective.values()])
    if horizon is None:
        return H
    h = as_positive_time(horizon, "horizon")
    for name, (period, _) in pn.effective.items():
        if (h / period).denominator != 1:
            raise ModelError(
                f"horizon {h} is not a multiple of the effective period "
                f"{period} of process {name!r}"
            )
    return h


def _derivation_domain(pn: TransformedNetwork, H: Time) -> TickDomain:
    """The derivation's tick domain: every effective period, every process
    deadline (server deadlines are differences of these) and the frame
    length convert exactly."""
    values: List[TimeLike] = [H]
    for period, _ in pn.effective.values():
        values.append(period)
    for proc in pn.network.processes.values():
        values.append(proc.deadline)
    return TickDomain.for_values(values)


def _invocation_ticks(
    pn: TransformedNetwork, dom: TickDomain, H_t: int, H: Time
) -> List[_TickInvocation]:
    """Step 2 in ticks: the PN' job invocation order over ``[0, H)``.

    Plain tuple sort — the tick map is strictly monotone, so the resulting
    order is exactly the Fraction-domain total order ``<J``.
    """
    rank = {name: i for i, name in enumerate(pn.priority_order())}
    entries: List[_TickInvocation] = []
    for name, (period, burst) in pn.effective.items():
        T_t = dom.to_ticks(period)
        n_periods, rem = divmod(H_t, T_t)
        if rem:
            raise ModelError(
                f"frame {H} is not a multiple of period {period} of {name!r}"
            )
        r = rank[name]
        count = 0
        for slot in range(n_periods):
            t_t = slot * T_t
            for _ in range(burst):
                count += 1
                entries.append((t_t, r, name, count))
    entries.sort()
    return entries


def simulate_invocations(
    pn: TransformedNetwork, H: TimeLike
) -> List[_Invocation]:
    """Step 2: simulate the PN' job invocation order over ``[0, H)``.

    Public Fraction-domain view of the total order ``<J`` (the derivation
    itself consumes the integer-tick sequence directly).
    """
    H = as_positive_time(H, "frame length")
    dom = _derivation_domain(pn, H)
    from_ticks = dom.from_ticks
    memo: Dict[int, Time] = {}
    out: List[_Invocation] = []
    for t_t, rank, name, k in _invocation_ticks(pn, dom, dom.to_ticks(H), H):
        t = memo.get(t_t)
        if t is None:
            t = memo[t_t] = from_ticks(t_t)
        out.append(_Invocation(t, rank, name, k))
    return out


def _make_jobs(
    pn: TransformedNetwork,
    sequence: Sequence[_TickInvocation],
    wcet: WcetMap,
    H_t: int,
    dom: TickDomain,
) -> List[Job]:
    """Steps 3–4 job parameters, computed on integers.

    ``Ai`` equals the invocation tick (both are ``T' * floor((k-1)/m')``),
    ``Di = min(H, Ai + d)`` with the per-process relative deadline ``d``
    precomputed in ticks (``dp`` for periodic processes, ``dp - Tp'`` for
    servers).  Conversion back to exact rationals happens only here, at the
    graph boundary, memoised per distinct tick value.
    """
    wcet_of, class_tables = _wcet_resolver(pn.network, wcet)
    from_ticks = dom.from_ticks
    memo: Dict[int, Time] = {}

    # Per-process constants: (relative deadline ticks, burst, is_server).
    info: Dict[str, Tuple[int, int, bool]] = {}
    for name, (period, burst) in pn.effective.items():
        proc = pn.network.processes[name]
        dl_t = dom.to_ticks(proc.deadline)
        if proc.is_sporadic:
            dl_t -= dom.to_ticks(pn.servers[name].period)
        info[name] = (dl_t, burst, proc.is_sporadic)

    jobs: List[Job] = []
    append = jobs.append
    make = Job._of
    for arrival_t, _rank, name, k in sequence:
        dl_t, burst, is_server = info[name]
        deadline_t = arrival_t + dl_t
        if deadline_t > H_t:
            deadline_t = H_t
        arrival = memo.get(arrival_t)
        if arrival is None:
            arrival = memo[arrival_t] = from_ticks(arrival_t)
        deadline = memo.get(deadline_t)
        if deadline is None:
            deadline = memo[deadline_t] = from_ticks(deadline_t)
        if is_server:
            append(make(
                name, k, arrival, deadline, wcet_of(name, k),
                True, (k - 1) // burst + 1, (k - 1) % burst + 1,
                class_tables.get(name),
            ))
        else:
            append(make(
                name, k, arrival, deadline, wcet_of(name, k),
                False, None, None, class_tables.get(name),
            ))
    return jobs


def _wcet_resolver(
    network: Network, wcet: WcetMap
) -> Tuple[Callable[[str, int], Time], Dict[str, WcetTable]]:
    """Resolve the WCET spec to a per-job scalar plus per-class tables.

    The returned callable yields each job's scalar ``Ci``; for processes
    whose spec entry is a per-class table this is the maximum over the
    classes (the conservative, platform-blind worst case), and the
    normalised table itself lands in the second return value so the jobs
    can carry it.
    """
    if isinstance(wcet, Mapping):
        table: Dict[str, WcetLike] = dict(wcet)
        missing = sorted(set(network.processes) - set(table))
        if missing:
            raise ModelError(f"missing WCET for processes {missing!r}")
        # Per-class table entries normalise up front (they are data, not
        # code); everything else keeps the scalar/callable fast path.
        class_tables: Dict[str, WcetTable] = {}
        for process, entry in table.items():
            if callable(entry):
                continue
            if isinstance(entry, Mapping) or isinstance(entry, tuple):
                normalized = normalize_wcet_table(
                    entry, f"WCET of {process!r}"
                )
                class_tables[process] = normalized
        # Non-callable entries normalise once per process, not once per job.
        resolved: Dict[str, Time] = {}

        def resolve(process: str, k: int) -> Time:
            value = resolved.get(process)
            if value is not None:
                return value
            entry = class_tables.get(process)
            if entry is not None:
                value = max(v for _, v in entry)
                resolved[process] = value
                return value
            entry = table[process]
            if callable(entry):
                return as_positive_time(entry(process, k), f"WCET of {process}[{k}]")
            value = as_positive_time(entry, f"WCET of {process!r}")
            resolved[process] = value
            return value

        return resolve, class_tables

    uniform = as_positive_time(wcet, "WCET")
    return (lambda process, k: uniform), {}


def _generating_edges(
    pn: TransformedNetwork, sequence: Sequence[_TickInvocation]
) -> List[Tuple[int, int]]:
    """Compact generating set with the same transitive closure as step 3."""
    by_process: Dict[str, List[int]] = {}
    for idx, inv in enumerate(sequence):
        by_process.setdefault(inv[2], []).append(idx)

    edges: List[Tuple[int, int]] = []
    # Same process: chain of consecutive jobs.
    for indices in by_process.values():
        edges.extend(zip(indices, indices[1:]))

    # Related pairs: each job -> the next job of the partner process.
    names = sorted(by_process)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if not pn.fp_related(a, b):
                continue
            edges.extend(_next_of_partner(by_process[a], by_process[b]))
            edges.extend(_next_of_partner(by_process[b], by_process[a]))
    return sorted(set(edges))


def _next_of_partner(
    from_indices: Sequence[int], to_indices: Sequence[int]
) -> List[Tuple[int, int]]:
    """For each index in *from_indices*, edge to the first larger index in
    *to_indices* (both sequences are sorted)."""
    out: List[Tuple[int, int]] = []
    j = 0
    for i in from_indices:
        while j < len(to_indices) and to_indices[j] < i:
            j += 1
        if j == len(to_indices):
            break
        out.append((i, to_indices[j]))
    return out


def _dense_edges(
    pn: TransformedNetwork, sequence: Sequence[_TickInvocation]
) -> List[Tuple[int, int]]:
    """The literal step-3 rule: all ordered pairs of related jobs."""
    n = len(sequence)
    edges: List[Tuple[int, int]] = []
    for i in range(n):
        a = sequence[i][2]
        for j in range(i + 1, n):
            b = sequence[j][2]
            if a == b or pn.fp_related(a, b):
                edges.append((i, j))
    return edges
