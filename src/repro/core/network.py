"""The FPPN network definition (Definition 2.1) and its builder API.

An FPPN is the tuple ``PN = (P, C, FP, ep, Ie, Oe, de, Σc, CTc)``:

* ``P`` — processes, each one-to-one with an event generator ``ep``;
* ``C ⊆ P × P`` — internal channels, so ``(P, C)`` is a directed graph that
  **may be cyclic** (feedback loops are legal);
* ``FP ⊂ P × P`` — the *functional priority* relation, which **must be a
  DAG** and must order at least every pair of processes sharing a channel:
  ``(p1, p2) ∈ C ⇒ p1 → p2 ∨ p2 → p1``;
* ``Ie``/``Oe``/``de`` — external I/O channels and deadline per generator;
* ``Σc``/``CTc`` — channel alphabets and channel types.

:class:`Network` is the single authoring entry point of the library::

    net = Network("example")
    net.add_periodic("Input", period=200, kernel=read_sensor)
    net.add_periodic("Filter", period=100, kernel=filter_kernel)
    net.connect("Input", "Filter", "c", kind=ChannelKind.FIFO)
    net.add_priority("Input", "Filter")
    net.validate()

Validation enforces the structural well-formedness rules above; the
*task-graph subclass* restrictions of Section III-A (each sporadic process
has exactly one periodic user with ``T_u(p) <= T_p``) are checked separately
by :meth:`Network.user_of` / :meth:`Network.validate_taskgraph_subclass`
because plain zero-delay execution does not need them.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import ChannelError, ModelError
from .channels import (
    ChannelKind,
    ChannelSpec,
    ExternalInputSpec,
    ExternalOutputSpec,
    NO_DATA,
)
from .events import EventGenerator, PeriodicGenerator, SporadicGenerator
from .process import Behavior, JobContext, KernelBehavior, Process
from .timebase import TimeLike


def kahn_name_order(
    names: Sequence[str],
    edges: Iterable[Tuple[str, str]],
    cycle_message: str,
) -> List[str]:
    """Deterministic topological order of a name DAG (ties by name).

    Kahn's algorithm with a min-heap of names: the lexicographically
    smallest available name is always emitted next.  Shared by the FP order
    of :class:`Network` and the FP' order of
    :class:`repro.taskgraph.servers.TransformedNetwork`.  Raises
    :class:`ModelError` (``cycle_message`` formatted with the offending
    names) when the edge relation is cyclic.
    """
    names = sorted(names)
    indeg = {n: 0 for n in names}
    succs: Dict[str, List[str]] = {n: [] for n in names}
    for hi, lo in edges:
        succs[hi].append(lo)
        indeg[lo] += 1
    ready = [n for n in names if indeg[n] == 0]
    heapq.heapify(ready)
    order: List[str] = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(order) != len(names):
        cyclic = sorted(set(names) - set(order))
        raise ModelError(cycle_message.format(cyclic=repr(cyclic)))
    return order


class Network:
    """Mutable FPPN definition with validation.

    The network is a pure *definition*: executing it (zero-delay semantics,
    runtime simulation) never mutates it, so one definition can back many
    executions.
    """

    def __init__(self, name: str = "fppn") -> None:
        self.name = name
        self.processes: Dict[str, Process] = {}
        self.channels: Dict[str, ChannelSpec] = {}
        #: functional priority edges, higher -> lower
        self.priorities: Set[Tuple[str, str]] = set()
        self.external_inputs: Dict[str, ExternalInputSpec] = {}
        self.external_outputs: Dict[str, ExternalOutputSpec] = {}
        self._run_memo: Dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_process(self, process: Process) -> Process:
        """Register a fully constructed :class:`Process`."""
        if process.name in self.processes:
            raise ModelError(f"duplicate process name {process.name!r}")
        self.processes[process.name] = process
        self._run_memo.clear()
        return process

    def add_periodic(
        self,
        name: str,
        period: TimeLike,
        kernel: Optional[Callable[[JobContext], None]] = None,
        deadline: Optional[TimeLike] = None,
        burst: int = 1,
        offset: TimeLike = 0,
        behavior: Optional[Behavior] = None,
        initial: Optional[Dict[str, Any]] = None,
    ) -> Process:
        """Add a (multi-)periodic process from a kernel callable or behavior."""
        gen = PeriodicGenerator(period, deadline, burst, offset)
        return self.add_process(
            Process(name, gen, _resolve_behavior(kernel, behavior, initial))
        )

    def add_sporadic(
        self,
        name: str,
        min_period: TimeLike,
        deadline: Optional[TimeLike] = None,
        kernel: Optional[Callable[[JobContext], None]] = None,
        burst: int = 1,
        behavior: Optional[Behavior] = None,
        initial: Optional[Dict[str, Any]] = None,
    ) -> Process:
        """Add a sporadic process (at most *burst* events per *min_period*)."""
        if deadline is None:
            deadline = min_period
        gen = SporadicGenerator(min_period, deadline, burst)
        return self.add_process(
            Process(name, gen, _resolve_behavior(kernel, behavior, initial))
        )

    def connect(
        self,
        writer: str,
        reader: str,
        name: Optional[str] = None,
        kind: ChannelKind = ChannelKind.FIFO,
        alphabet: Optional[Callable[[Any], bool]] = None,
        initial: Any = NO_DATA,
    ) -> ChannelSpec:
        """Create an internal channel from *writer* to *reader*.

        The default channel name is ``"writer->reader"``; an explicit name is
        required when two processes share more than one channel.
        """
        self._require_process(writer)
        self._require_process(reader)
        if name is None:
            name = f"{writer}->{reader}"
        if name in self.channels:
            raise ChannelError(f"duplicate channel name {name!r}")
        spec = ChannelSpec(name, kind, writer, reader, alphabet, initial)
        self.channels[name] = spec
        self._run_memo.clear()
        self.processes[writer].outputs.append(name)
        self.processes[reader].inputs.append(name)
        return spec

    def add_priority(self, higher: str, lower: str) -> None:
        """Declare the functional priority edge ``higher → lower``.

        Note (Section II-A): functional priority is *not* a scheduling
        priority — it defines the order of simultaneously invoked jobs in
        the model semantics.
        """
        self._require_process(higher)
        self._require_process(lower)
        if higher == lower:
            raise ModelError(f"process {higher!r} cannot have priority over itself")
        self.priorities.add((higher, lower))
        self._run_memo.clear()

    def add_priority_chain(self, *names: str) -> None:
        """Convenience: ``add_priority`` along a chain ``a → b → c → ...``."""
        for hi, lo in zip(names, names[1:]):
            self.add_priority(hi, lo)

    def add_external_input(self, process: str, name: str) -> ExternalInputSpec:
        """Attach an external input channel to *process*'s event generator."""
        self._require_process(process)
        if name in self.external_inputs or name in self.external_outputs:
            raise ChannelError(f"duplicate external channel name {name!r}")
        spec = ExternalInputSpec(name, process)
        self.external_inputs[name] = spec
        self.processes[process].external_inputs.append(name)
        return spec

    def add_external_output(self, process: str, name: str) -> ExternalOutputSpec:
        """Attach an external output channel to *process*'s event generator."""
        self._require_process(process)
        if name in self.external_inputs or name in self.external_outputs:
            raise ChannelError(f"duplicate external channel name {name!r}")
        spec = ExternalOutputSpec(name, process)
        self.external_outputs[name] = spec
        self.processes[process].external_outputs.append(name)
        return spec

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def process_names(self) -> List[str]:
        """All process names, in insertion order."""
        return list(self.processes)

    def channels_between(self, p1: str, p2: str) -> List[ChannelSpec]:
        """All channels whose endpoint set is ``{p1, p2}`` (either direction)."""
        pair = {p1, p2}
        return [c for c in self.channels.values() if set(c.endpoints) == pair]

    def fp_related(self, p1: str, p2: str) -> bool:
        """``p1 ⋈ p2`` — directly ordered by functional priority (Sec. III-A)."""
        return (p1, p2) in self.priorities or (p2, p1) in self.priorities

    def higher_priority(self, p1: str, p2: str) -> bool:
        """True iff the *direct* edge ``p1 → p2`` exists."""
        return (p1, p2) in self.priorities

    def sporadic_processes(self) -> List[Process]:
        return [p for p in self.processes.values() if p.is_sporadic]

    def periodic_processes(self) -> List[Process]:
        return [p for p in self.processes.values() if not p.is_sporadic]

    def user_of(self, sporadic: str) -> Process:
        """The unique periodic *user* ``u(p)`` of a sporadic process.

        Section III-A requires, for the schedulable subclass, that each
        sporadic process is connected by a channel to exactly one user
        process, which must be periodic and have at most the sporadic's
        period: ``T_u(p) <= T_p``.
        """
        p = self._require_process(sporadic)
        if not p.is_sporadic:
            raise ModelError(f"process {sporadic!r} is not sporadic")
        partners = set()
        for c in self.channels.values():
            if c.writer == sporadic:
                partners.add(c.reader)
            elif c.reader == sporadic:
                partners.add(c.writer)
        if len(partners) != 1:
            raise ModelError(
                f"sporadic process {sporadic!r} must be connected to exactly "
                f"one user process, found {sorted(partners)!r}"
            )
        user = self.processes[next(iter(partners))]
        if user.is_sporadic:
            raise ModelError(
                f"user {user.name!r} of sporadic process {sporadic!r} must be "
                "periodic"
            )
        if user.period > p.period:
            raise ModelError(
                f"user {user.name!r} of sporadic {sporadic!r} must satisfy "
                f"T_u <= T_p (got T_u={user.period} > T_p={p.period})"
            )
        return user

    def run_memo(self) -> Dict[Any, Any]:
        """This network's memo of derived run state.

        The runtime keeps pure functions of the definition here (the
        server specs its arrival bindings are keyed by, the executor's
        validation verdict); adding a
        process, channel or priority clears it.  Values must not refer
        back to the network.
        """
        return self._run_memo

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural rules of Definition 2.1.

        * at least one process;
        * the functional-priority graph is acyclic;
        * every channel's writer/reader pair is FP-ordered;
        * channel endpoints exist (guaranteed by construction but re-checked
          for networks assembled by hand).
        """
        if not self.processes:
            raise ModelError("network has no processes")
        for c in self.channels.values():
            for endpoint in c.endpoints:
                if endpoint not in self.processes:
                    raise ModelError(
                        f"channel {c.name!r} endpoint {endpoint!r} is not a process"
                    )
            if not self.fp_related(c.writer, c.reader):
                raise ModelError(
                    f"processes {c.writer!r} and {c.reader!r} share channel "
                    f"{c.name!r} but are not ordered by functional priority "
                    "(Definition 2.1 requires p1 -> p2 or p2 -> p1)"
                )
        for hi, lo in self.priorities:
            if hi not in self.processes or lo not in self.processes:
                raise ModelError(f"priority edge ({hi!r}, {lo!r}) references unknown process")
        self.priority_order()  # raises on cycles

    def validate_taskgraph_subclass(self) -> None:
        """Additionally check the Section III-A schedulable-subclass rules."""
        self.validate()
        for p in self.sporadic_processes():
            self.user_of(p.name)

    def priority_order(self) -> List[str]:
        """Topological order of the functional-priority DAG.

        Processes not related by FP are ordered by name, making the result
        deterministic (the choice cannot affect channel data, because
        FP covers all channel-sharing pairs).  Raises :class:`ModelError`
        on a priority cycle.
        """
        return kahn_name_order(
            list(self.processes),
            self.priorities,
            "functional priority graph has a cycle involving {cyclic}",
        )

    def priority_rank(self) -> Dict[str, int]:
        """Map process name -> rank in :meth:`priority_order` (0 = highest)."""
        return {n: i for i, n in enumerate(self.priority_order())}

    # ------------------------------------------------------------------
    def _require_process(self, name: str) -> Process:
        proc = self.processes.get(name)
        if proc is None:
            raise ModelError(f"unknown process {name!r}")
        return proc

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Network({self.name!r}, processes={len(self.processes)}, "
            f"channels={len(self.channels)}, priorities={len(self.priorities)})"
        )


def _resolve_behavior(
    kernel: Optional[Callable[[JobContext], None]],
    behavior: Optional[Behavior],
    initial: Optional[Dict[str, Any]],
) -> Behavior:
    if behavior is not None and kernel is not None:
        raise ModelError("give either a kernel or a behavior, not both")
    if behavior is not None:
        if initial is not None:
            raise ModelError("initial variables belong to the behavior object")
        return behavior
    if kernel is None:
        # A process with no kernel is a pure no-op (useful in scheduling-only
        # models where data semantics is irrelevant).
        return KernelBehavior(lambda ctx: None, initial)
    return KernelBehavior(kernel, initial)
