"""Zero-delay semantics of FPPNs (Section II-B).

Given the invocation sequence ``(t1, P1), (t2, P2), ...`` (strictly increasing
time stamps ``ti``, multisets ``Pi`` of processes invoked at ``ti``), the
zero-delay execution trace is::

    Trace(PN) = w(t1) ∘ α1 ∘ w(t2) ∘ α2 ...

where ``αi`` concatenates the job execution runs of the processes in ``Pi``
in an order respecting functional priority: if ``p1 → p2`` then the job(s) of
``p1`` execute before the job(s) of ``p2``.

This module implements the construction directly and is the **reference
behaviour** for everything else: the multiprocessor runtime (Section IV) is
correct exactly when its channel outputs coincide with this executor's
(Propositions 2.1 and 4.1).

Within one ``Pi``, processes unrelated by FP may execute in any order without
affecting channel data (FP must cover channel-sharing pairs).  For trace
reproducibility we fix the order deterministically: topological rank of the
FP DAG, ties broken by process name; bursts of the same process execute in
invocation-index order.

The functional run of a fixed-priority uniprocessor
(:meth:`repro.scheduling.uniprocessor.UniprocessorFixedPriority.functional_run`)
is the same construction with the scheduling priorities in place of the FP
rank; both go through one runner here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import SemanticsError
from .channels import ChannelState, ExternalOutputState
from .events import Invocation, merge_invocations
from .invocations import Stimulus
from .network import Network
from .process import JobContext
from .timebase import Time, TimeLike, as_positive_time
from .trace import Trace


@dataclass
class ExecutionResult:
    """Observable outcome of one FPPN execution.

    ``channel_logs`` and ``external_outputs`` are the objects Proposition 2.1
    quantifies over; :meth:`observable` flattens them into a canonical,
    comparable structure used by the determinism checker.
    """

    network_name: str
    horizon: Time
    trace: Trace
    channel_logs: Dict[str, List[Any]]
    external_outputs: Dict[str, List[Tuple[int, Any]]]
    job_count: int
    final_variables: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def observable(self) -> Dict[str, Any]:
        """Canonical determinism observable: all channel write sequences."""
        return {
            "channels": {k: list(v) for k, v in sorted(self.channel_logs.items())},
            "outputs": {k: list(v) for k, v in sorted(self.external_outputs.items())},
        }

    def output_values(self, channel: str) -> List[Any]:
        """Values written to an external output, in sample order."""
        return [v for _, v in self.external_outputs[channel]]


class ZeroDelayExecutor:
    """Executes a network under the zero-delay semantics."""

    def __init__(self, network: Network) -> None:
        network.validate()
        self.network = network
        self._rank = network.priority_rank()

    # ------------------------------------------------------------------
    def invocation_sequence(
        self, horizon: TimeLike, stimulus: Optional[Stimulus] = None
    ) -> List[Tuple[Time, List[Invocation]]]:
        """The global sequence ``(t1, P1), (t2, P2), ...`` over ``[0, horizon)``.

        Periodic invocations come from the generators; sporadic ones from the
        stimulus arrival traces.
        """
        h = as_positive_time(horizon, "horizon")
        return _invocations(self.network, h, stimulus or Stimulus())

    def run(
        self, horizon: TimeLike, stimulus: Optional[Stimulus] = None
    ) -> ExecutionResult:
        """Construct and execute the zero-delay trace over ``[0, horizon)``."""
        return _run_atomic(self.network, horizon, stimulus, self._rank)


def _invocations(
    network: Network, h: Time, stimulus: Stimulus
) -> List[Tuple[Time, List[Invocation]]]:
    """The invocation sequence of *network* over ``[0, h)`` under *stimulus*."""
    stimulus.validate(network)
    per_process: List[Tuple[str, List[Time]]] = []
    for proc in network.processes.values():
        if proc.is_sporadic:
            times = [t for t in stimulus.arrivals_for(proc.name) if t < h]
        else:
            times = proc.generator.invocations(h)
        per_process.append((proc.name, times))
    return merge_invocations(per_process)


def _run_atomic(
    network: Network,
    horizon: TimeLike,
    stimulus: Optional[Stimulus],
    rank: Mapping[str, int],
) -> ExecutionResult:
    """Run every job atomically at its invocation time stamp.

    The jobs invoked at one time stamp run in ``(rank, process, k)``
    order: the FP rank gives the zero-delay semantics, scheduling
    priorities the functional run of a fixed-priority uniprocessor
    (:mod:`repro.scheduling.uniprocessor`).  Each job gets a fresh
    :class:`JobContext`.
    """
    h = as_positive_time(horizon, "horizon")
    stimulus = stimulus or Stimulus()
    sequence = _invocations(network, h, stimulus)

    trace = Trace()
    raw_append = trace.raw.append
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
    job_count = 0

    for t, invocations in sequence:
        raw_append(("T", t))
        for inv in sorted(
            invocations, key=lambda inv: (rank[inv.process], inv.process, inv.index)
        ):
            proc = network.processes[inv.process]
            ctx = JobContext(
                process=proc.name,
                k=inv.index,
                now=t,
                variables=variables[proc.name],
                inputs={n: channel_states[n] for n in proc.inputs},
                outputs={n: channel_states[n] for n in proc.outputs},
                external_inputs={
                    n: stimulus.samples_view(n) for n in proc.external_inputs
                },
                external_outputs={n: ext_out[n] for n in proc.external_outputs},
                trace=trace,
            )
            raw_append(("S", proc.name, inv.index))
            try:
                proc.behavior.run_job(ctx)
            except SemanticsError:
                raise
            except Exception as exc:  # surface app bugs with job identity attached
                raise SemanticsError(
                    f"job {proc.name}[{inv.index}] at t={t} raised {exc!r}"
                ) from exc
            raw_append(("E", proc.name, inv.index))
            job_count += 1

    return ExecutionResult(
        network_name=network.name,
        horizon=h,
        trace=trace,
        channel_logs={n: list(s.write_log) for n, s in channel_states.items()},
        external_outputs={n: s.as_sequence() for n, s in ext_out.items()},
        job_count=job_count,
        final_variables=variables,
    )


def run_zero_delay(
    network: Network, horizon: TimeLike, stimulus: Optional[Stimulus] = None
) -> ExecutionResult:
    """One-call convenience wrapper around :class:`ZeroDelayExecutor`."""
    return ZeroDelayExecutor(network).run(horizon, stimulus)
