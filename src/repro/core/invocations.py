"""Stimuli: the environment side of an FPPN execution.

An FPPN execution is driven by (Proposition 2.1) *"the time stamps of the
event generators and the data samples at the external inputs"*.  A
:class:`Stimulus` bundles exactly those two ingredients:

* ``input_samples`` — for each external input channel, the indexed samples
  ``{k: value}`` (the k-th job of the owning process reads sample ``[k]``);
* ``sporadic_arrivals`` — for each sporadic process, the concrete arrival
  trace used by this execution, validated against its ``(m, T)`` constraint.

Periodic invocation times are intrinsic to the network (the generators), so
they are not part of the stimulus.

The module also provides helpers to synthesize reproducible pseudo-random
sporadic traces (used by the FMS case study and the property-based tests).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Union

from ..errors import EventError
from .events import SporadicGenerator
from .network import Network
from .timebase import Time, TimeLike, as_nonnegative_time, as_positive_time

SampleMap = Dict[int, Any]


class Stimulus:
    """External inputs of one FPPN execution.

    Parameters
    ----------
    input_samples:
        Mapping ``external input name -> samples``.  Samples may be given as
        a dict ``{k: value}`` (1-based) or a sequence (element ``i`` becomes
        sample ``[i+1]``).
    sporadic_arrivals:
        Mapping ``sporadic process name -> sorted arrival times``.
    """

    def __init__(
        self,
        input_samples: Optional[Mapping[str, Union[SampleMap, Sequence[Any]]]] = None,
        sporadic_arrivals: Optional[Mapping[str, Iterable[TimeLike]]] = None,
    ) -> None:
        self.input_samples: Dict[str, SampleMap] = {}
        for name, samples in (input_samples or {}).items():
            self.input_samples[name] = _normalize_samples(name, samples)
        self.sporadic_arrivals: Dict[str, List[Time]] = {
            name: [as_nonnegative_time(t, "arrival time") for t in times]
            for name, times in (sporadic_arrivals or {}).items()
        }
        self._samples_views: Dict[str, SampleMap] = {}
        # Derived run state per validated network structure (run_memo).
        self._run_memos: Dict[Hashable, Dict[Any, Any]] = {}

    def validate(self, network: Network) -> None:
        """Check the stimulus against a network definition.

        * every referenced external input / sporadic process exists;
        * every arrival trace satisfies its generator's sporadic constraint;
        * every sporadic process of the network has a trace (possibly empty —
          missing entries are treated as empty, so this only normalises).

        A successful validation is memoised under the network's structure
        key (:meth:`run_memo`), so equal networks — in this sweep or a
        later one — skip the arrival-constraint scan; stimuli are treated
        as immutable after first use (as :meth:`samples_view` assumes).
        """
        self.run_memo(network)

    def run_memo(self, network: Network) -> Dict[Any, Any]:
        """This stimulus's memo of derived run state on *network*.

        Keyed by what validation reads of the network: its external-input
        names and each process's name and generator type, plus ``(period,
        burst)`` if sporadic.  Runtime layers keep pure functions of the
        stimulus and the network here (the executor's arrival bindings),
        so every run over equal networks shares them: sweep cells, later
        sweeps that build their network afresh, pool workers sharing one
        decoded stimulus.  Values must not refer to a network; the memo
        lives as long as the stimulus.  Validates on a miss.
        """
        key = _structure_key(network)
        memo = self._run_memos.get(key)
        if memo is None:
            self._check(network)
            memo = self._run_memos[key] = {}
        return memo

    def _check(self, network: Network) -> None:
        for name in self.input_samples:
            if name not in network.external_inputs:
                raise EventError(f"stimulus references unknown external input {name!r}")
        for pname, times in self.sporadic_arrivals.items():
            proc = network.processes.get(pname)
            if proc is None:
                raise EventError(f"stimulus references unknown process {pname!r}")
            gen = proc.generator
            if not isinstance(gen, SporadicGenerator):
                raise EventError(
                    f"process {pname!r} is not sporadic; periodic invocations "
                    "are defined by the network, not the stimulus"
                )
            gen.validate_trace(times)

    def truncated(self, horizon: TimeLike) -> "Stimulus":
        """A copy whose sporadic arrivals are restricted to ``t < horizon``.

        Used when comparing a finite runtime simulation against the
        zero-delay reference: arrivals whose server window lies beyond the
        simulated frames must be excluded from both executions (see
        :func:`repro.runtime.static_order.served_horizon`).
        """
        h = as_nonnegative_time(horizon, "horizon")
        return Stimulus(
            input_samples=self.input_samples,
            sporadic_arrivals={
                name: [t for t in times if t < h]
                for name, times in self.sporadic_arrivals.items()
            },
        )

    def arrivals_for(self, process: str) -> List[Time]:
        """Arrival trace of a sporadic process (empty when not stimulated)."""
        return list(self.sporadic_arrivals.get(process, []))

    def samples_for(self, channel: str) -> SampleMap:
        """A fresh copy of the samples of one external input channel."""
        return dict(self.input_samples.get(channel, {}))

    def samples_view(self, channel: str) -> SampleMap:
        """A memoised **read-only view** of one channel's samples.

        The executors build one sample mapping per process binding — the
        zero-delay and uniprocessor references even per job instance — so
        the per-call copy of :meth:`samples_for` is pure allocation churn on
        hot paths.  This returns one shared dict per channel, built on
        first access; callers must not mutate it (job contexts only ever
        ``get`` from it).
        """
        view = self._samples_views.get(channel)
        if view is None:
            view = self._samples_views[channel] = dict(
                self.input_samples.get(channel, {})
            )
        return view

    def __eq__(self, other: object) -> bool:
        """Structural equality over samples and arrival traces.

        Two stimuli are equal when they describe the same external data —
        what scenario comparison and JSON round-trip tests need; the
        memoised views are derived state and do not participate.
        """
        if not isinstance(other, Stimulus):
            return NotImplemented
        return (
            self.input_samples == other.input_samples
            and self.sporadic_arrivals == other.sporadic_arrivals
        )

    __hash__ = None  # mutable sample maps: structurally equal, unhashable

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Stimulus(inputs={sorted(self.input_samples)}, "
            f"sporadics={sorted(self.sporadic_arrivals)})"
        )


def _structure_key(network: Network) -> Hashable:
    """What :meth:`Stimulus.validate` reads of *network*, as a hashable."""
    gens = [(name, proc.generator) for name, proc in network.processes.items()]
    return tuple(network.external_inputs), tuple(
        (name, type(g), g.period, g.burst) if isinstance(g, SporadicGenerator)
        else (name, type(g))
        for name, g in gens
    )


def _normalize_samples(
    name: str, samples: Union[SampleMap, Sequence[Any]]
) -> SampleMap:
    if isinstance(samples, Mapping):
        out: SampleMap = {}
        for k, v in samples.items():
            if not isinstance(k, int) or k < 1:
                raise EventError(
                    f"external input {name!r}: sample indices are 1-based "
                    f"integers, got {k!r}"
                )
            out[k] = v
        return out
    return {i + 1: v for i, v in enumerate(samples)}


def random_sporadic_trace(
    generator: SporadicGenerator,
    horizon: TimeLike,
    rng: random.Random,
    intensity: float = 0.7,
    time_unit: int = 1000,
) -> List[Time]:
    """Synthesize a reproducible arrival trace satisfying the (m, T) bound.

    Candidate arrivals are proposed window-by-window (a binomial count with
    mean ``intensity * m`` per ``T``-length slice, at rational offsets with
    denominator *time_unit*) and then admitted greedily: a candidate ``t``
    is kept only while the trailing half-closed window ``(t - T, t]`` holds
    at most ``m`` kept arrivals.  Greedy suffix-window admission is sound:
    any over-full interval would make the trailing window of its last
    arrival over-full, which the filter prevents.  Deterministic given
    *rng*'s state; the result is re-validated before returning.

    Parameters
    ----------
    intensity:
        Fraction of the maximal event rate to use, in ``[0, 1]``.
    time_unit:
        Denominator of arrival offsets (1000 -> millisecond-grain offsets for
        second-grain periods).
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must be within [0, 1]")
    h = as_positive_time(horizon, "horizon")
    T = generator.period
    m = generator.burst
    candidates: List[Time] = []
    window_start = Time(0)
    while window_start < h:
        count = sum(1 for _ in range(m) if rng.random() < intensity)
        offsets = sorted(rng.randrange(0, time_unit) for _ in range(count))
        for off in offsets:
            t = window_start + T * off / time_unit
            if t < h:
                candidates.append(t)
        window_start += T
    candidates.sort()
    # Both candidates and the kept trace ascend, so the kept arrivals
    # inside ``(t - T, t]`` are exactly ``trace[lo:]`` for a left index
    # that only ever moves forward.
    trace: List[Time] = []
    lo = 0
    for t in candidates:
        while lo < len(trace) and trace[lo] <= t - T:
            lo += 1
        if len(trace) - lo < m:
            trace.append(t)
    return generator.validate_trace(trace)


def random_stimulus(
    network: Network,
    horizon: TimeLike,
    seed: int = 0,
    intensity: float = 0.7,
    sample_value=None,
) -> Stimulus:
    """A reproducible stimulus for *network* over ``[0, horizon)``.

    Sporadic traces are synthesized with :func:`random_sporadic_trace`;
    external inputs receive enough samples for every possible job, generated
    by *sample_value(channel, k, rng)* (default: small integers).
    """
    rng = random.Random(seed)
    arrivals = {}
    for proc in network.sporadic_processes():
        gen = proc.generator
        assert isinstance(gen, SporadicGenerator)
        arrivals[proc.name] = random_sporadic_trace(gen, horizon, rng, intensity)
    samples: Dict[str, SampleMap] = {}
    h = as_positive_time(horizon, "horizon")
    for name, spec in network.external_inputs.items():
        owner = network.processes[spec.owner]
        if owner.is_sporadic:
            n = len(arrivals.get(owner.name, []))
        else:
            n = len(owner.generator.invocations(h))
        if sample_value is None:
            samples[name] = {k: rng.randrange(0, 1000) for k in range(1, n + 1)}
        else:
            samples[name] = {k: sample_value(name, k, rng) for k in range(1, n + 1)}
    stim = Stimulus(samples, arrivals)
    stim.validate(network)
    return stim
