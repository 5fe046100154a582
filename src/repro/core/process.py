"""Processes and the job-execution context.

Definition 2.2 associates each process with a deterministic automaton
``(lp0, Lp, Xp, Xp0, Ip, Op, Ap, Tp)``.  A *job execution run* is a non-empty
sequence of automaton steps returning to the initial location — informally,
one call of a software subroutine.

This module provides:

* :class:`JobContext` — the capability object handed to a running job.  All
  externally visible effects of a job (channel reads/writes, external sample
  accesses, traced assignments) go through it, which is what lets the library
  record exact execution traces and enforce endpoint discipline (a process
  may only read its input channels and write its output channels).
* :class:`Behavior` — strategy interface: how a process executes one job.
* :class:`KernelBehavior` — wraps a plain Python callable ``kernel(ctx)``;
  the ergonomic API used by the example applications.  Formally this is the
  one-location automaton whose single transition's action is the kernel.
* :class:`Process` — name + event generator + behavior + declared channel
  endpoints.

The full multi-location automaton implementation of Definition 2.2 lives in
:mod:`repro.core.automaton` and plugs in through the same
:class:`Behavior` interface.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from ..errors import ChannelError, SemanticsError
from .channels import (
    ChannelState,
    ExternalOutputState,
    NO_DATA,
)
from .events import EventGenerator
from .timebase import Time
from .trace import Trace
from .trusted import check_trusted_rebind


class JobContext:
    """Execution context of one job run of one process.

    Parameters
    ----------
    process:
        Name of the running process.
    k:
        1-based invocation count; external samples accessed by this job use
        index ``[k]`` (Section II-A).
    now:
        Invocation time stamp of the job (the τ of its event).
    variables:
        The process's persistent variable store ``Xp`` (state survives across
        job runs — e.g. filter state).
    inputs / outputs:
        Channel states this process may read / write (internal channels).
    external_inputs:
        Mapping from external input channel name to the full sample mapping
        ``{k: value}`` supplied by the stimulus.
    external_outputs:
        Mapping from external output channel name to its runtime log.
    trace:
        Optional global trace to record actions into.
    """

    def __init__(
        self,
        process: str,
        k: int,
        now: Time,
        variables: Dict[str, Any],
        inputs: Mapping[str, ChannelState],
        outputs: Mapping[str, ChannelState],
        external_inputs: Mapping[str, Mapping[int, Any]],
        external_outputs: Mapping[str, ExternalOutputState],
        trace: Optional[Trace] = None,
    ) -> None:
        self.process = process
        self.k = k
        self.now = now
        self.vars = variables
        self._inputs = inputs
        self._outputs = outputs
        self._external_inputs = external_inputs
        self._external_outputs = external_outputs
        # Bind the action recorder once: every action is appended to the
        # trace's ``raw`` list as its compact tuple (``core/trace.COMPACT_CODES``).
        self._record: Optional[Callable[[tuple], None]] = (
            trace.raw.append if trace is not None else None
        )

    def _rebind(self, k: int, now: Time) -> "JobContext":
        """Trusted hot-loop rebinding: reuse this context for the next job.

        Only ``k`` and ``now`` vary between job instances of the same
        process within one run — the variable store, channel states,
        external sample maps and trace binding are run-constant per process.
        The invariant is enforced at import time by
        :func:`repro.core.trusted.check_trusted_rebind` (bottom of this
        module): adding a per-instance ``__init__`` parameter without
        updating this method fails the import loudly.
        """
        self.k = k
        self.now = now
        return self

    # -- internal channels ------------------------------------------------
    def read(self, channel: str) -> Any:
        """Read from an input channel (``x?c``).

        Returns :data:`repro.core.channels.NO_DATA` when no data is
        available (empty FIFO / unwritten blackboard) — reads never block.
        """
        state = self._inputs.get(channel)
        if state is None:
            raise ChannelError(
                f"process {self.process!r} has no input channel {channel!r}"
            )
        value = state.read()
        if self._record is not None:
            self._record(("R", self.process, channel, value))
        return value

    def peek(self, channel: str) -> Any:
        """Non-destructive read of an input channel (not traced)."""
        state = self._inputs.get(channel)
        if state is None:
            raise ChannelError(
                f"process {self.process!r} has no input channel {channel!r}"
            )
        return state.peek()

    def write(self, channel: str, value: Any) -> None:
        """Write to an output channel (``x!c``)."""
        state = self._outputs.get(channel)
        if state is None:
            raise ChannelError(
                f"process {self.process!r} has no output channel {channel!r}"
            )
        state.write(value)
        if self._record is not None:
            self._record(("W", self.process, channel, value))

    # -- external channels --------------------------------------------------
    def read_input(self, channel: Optional[str] = None) -> Any:
        """Read sample ``[k]`` from an external input (``x?[k]Ie``).

        With a single external input the channel name may be omitted.
        Returns :data:`NO_DATA` if the stimulus supplied no sample ``[k]``.
        """
        name = self._resolve_single(channel, self._external_inputs, "external input")
        samples = self._external_inputs[name]
        value = samples.get(self.k, NO_DATA)
        if self._record is not None:
            self._record(("r", self.process, name, self.k, value))
        return value

    def write_output(self, value: Any, channel: Optional[str] = None) -> None:
        """Write sample ``[k]`` to an external output (``x![k]Oe``)."""
        name = self._resolve_single(channel, self._external_outputs, "external output")
        self._external_outputs[name].write(self.k, value)
        if self._record is not None:
            self._record(("w", self.process, name, self.k, value))

    def _resolve_single(
        self, channel: Optional[str], mapping: Mapping[str, Any], what: str
    ) -> str:
        if channel is not None:
            if channel not in mapping:
                raise ChannelError(
                    f"process {self.process!r} has no {what} {channel!r}"
                )
            return channel
        if len(mapping) != 1:
            raise ChannelError(
                f"process {self.process!r} has {len(mapping)} {what}s; "
                "specify the channel name explicitly"
            )
        return next(iter(mapping))

    # -- variables -----------------------------------------------------------
    def assign(self, variable: str, value: Any) -> None:
        """Traced variable assignment (``x := value``)."""
        self.vars[variable] = value
        if self._record is not None:
            self._record(("A", self.process, variable, value))

    def get(self, variable: str, default: Any = None) -> Any:
        """Read a process variable (untraced, like any expression evaluation)."""
        return self.vars.get(variable, default)


# Import-time guard for ``_rebind``: it must keep reproducing fresh
# construction, or the import fails loudly (where a failure is cheap to
# diagnose).
check_trusted_rebind(
    JobContext,
    ("process", "k", "now", "variables", "inputs", "outputs",
     "external_inputs", "external_outputs", "trace"),
    dict(process="p", k=1, now=Time(0), variables={}, inputs={}, outputs={},
         external_inputs={}, external_outputs={}, trace=None),
    dict(k=2, now=Time(1)),
    JobContext._rebind,
)


class Behavior:
    """Strategy interface: execute one job run of a process."""

    def initial_variables(self) -> Dict[str, Any]:
        """Fresh copy of the initial variable valuation ``Xp0``."""
        return {}

    def run_job(self, ctx: JobContext) -> None:
        raise NotImplementedError

    def declared_reads(self) -> Optional[List[str]]:
        """Channel names this behavior reads, if statically known (else None)."""
        return None

    def declared_writes(self) -> Optional[List[str]]:
        return None


class KernelBehavior(Behavior):
    """A job run defined by a plain Python callable ``kernel(ctx)``.

    This is the one-transition automaton: initial location, one self-loop
    whose action is the kernel body.  The kernel must be deterministic —
    its outputs may depend only on ``ctx`` (channel data, sample index,
    invocation time, process variables).
    """

    def __init__(
        self,
        kernel: Callable[[JobContext], None],
        initial: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not callable(kernel):
            raise TypeError("kernel must be callable")
        self._kernel = kernel
        self._initial = dict(initial or {})

    def initial_variables(self) -> Dict[str, Any]:
        return dict(self._initial)

    def run_job(self, ctx: JobContext) -> None:
        self._kernel(ctx)


class Process:
    """A named FPPN process: event generator + behavior + endpoints.

    The channel endpoints (``inputs``/``outputs`` — internal channel names,
    ``external_inputs``/``external_outputs`` — external channel names) are
    filled in by the network builder when channels are connected; the
    constructor only takes what is intrinsic to the process.
    """

    def __init__(
        self,
        name: str,
        generator: EventGenerator,
        behavior: Behavior,
    ) -> None:
        if not name:
            raise SemanticsError("process name must be non-empty")
        self.name = name
        self.generator = generator
        self.behavior = behavior
        # Filled by Network wiring:
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.external_inputs: List[str] = []
        self.external_outputs: List[str] = []

    # -- generator attribute shortcuts (paper notation Tp, mp, dp) ---------
    @property
    def period(self) -> Time:
        """``Tp`` — the generator period."""
        return self.generator.period

    @property
    def deadline(self) -> Time:
        """``dp`` — the relative deadline."""
        return self.generator.deadline

    @property
    def burst(self) -> int:
        """``mp`` — the burst size."""
        return self.generator.burst

    @property
    def is_sporadic(self) -> bool:
        return self.generator.is_sporadic

    def fresh_variables(self) -> Dict[str, Any]:
        return self.behavior.initial_variables()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Process({self.name!r}, {self.generator.describe()})"
