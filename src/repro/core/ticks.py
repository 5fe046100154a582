"""Integer-tick timing domain for hot loops.

The library's *two-domain* timing design:

* **API domain — exact rationals.**  Every public type (``Job``,
  ``ScheduledJob``, ``JobRecord``, reports, …) carries time as
  :class:`fractions.Fraction` (see :mod:`repro.core.timebase`), because the
  paper defines periods and deadlines over ``Q+`` and the hyperperiod as a
  rational LCM.

* **Hot-loop domain — integer ticks.**  Rational arithmetic normalises
  through a GCD on every addition and cross-multiplies on every comparison,
  which dominates the cost of list scheduling, priority search and runtime
  simulation on long-hyperperiod instances (the paper's own Section V-B
  scalability pain point).  A :class:`TickDomain` therefore computes — once
  per task graph or simulation run — the LCM ``L`` of all time denominators
  involved and maps every rational ``p/q`` to the plain integer
  ``p * (L / q)``.  All scheduling/simulation recurrences (max, add,
  compare) then run on machine integers.

**Invariant: conversions are exact, never rounded.**  By construction ``L``
is a common multiple of every denominator in the domain, so ``to_ticks`` is
a bijection between the represented rationals and a subset of the integers,
and ``from_ticks(to_ticks(t)) == t`` holds *exactly*.  Converting a value
whose denominator does not divide ``L`` raises instead of rounding.  Because
the tick map is a strictly monotone linear map, every comparison, min/max,
sum and difference computed in ticks agrees with the Fraction computation —
which is why the tick-ported algorithms are bit-identical observables-wise
to a pure-Fraction reference (see ``tests/test_tick_equivalence.py``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Sequence

from ..errors import SchedulingError
from .platform import Platform
from .timebase import Time, TimeLike, as_time

__all__ = ["TickDomain", "JobTicks", "PlatformTicks", "fraction_from_ratio"]


# CPython's Fraction stores its (normalised) state in two slots; building
# them directly skips the type-dispatching constructor in the hot
# ticks->Fraction conversion.  Feature-probed so exotic interpreters fall
# back to the public constructor.
try:
    _probe = object.__new__(Fraction)
    _probe._numerator = 1
    _probe._denominator = 2
    _FAST_FRACTION = _probe == Fraction(1, 2)
except (AttributeError, TypeError):  # pragma: no cover - non-CPython
    _FAST_FRACTION = False
_new_fraction = object.__new__


def _lcm_of_denominators(values: Iterable[TimeLike], start: int = 1) -> int:
    scale = start
    for v in values:
        d = v.denominator if isinstance(v, Fraction) else as_time(v).denominator
        if scale % d:
            scale = scale // gcd(scale, d) * d
    return scale


def fraction_from_ratio(num: int, den: int) -> Fraction:
    """Exact ``Fraction(num, den)`` through the fast normalising path.

    For hot code that already holds an integer ratio and wants to skip the
    type dispatch of the public constructor (e.g. the jittered execution
    sampler scaling a WCET).
    """
    if not _FAST_FRACTION:  # pragma: no cover - non-CPython
        return Fraction(num, den)
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    f = _new_fraction(Fraction)
    f._numerator = num
    f._denominator = den
    return f


class TickDomain:
    """An exact linear map between rational times and integer ticks.

    ``scale`` is the number of ticks per time unit: a rational time ``t``
    maps to the integer ``t * scale``, which is exact for every value whose
    denominator divides ``scale``.
    """

    __slots__ = ("scale",)

    def __init__(self, scale: int = 1) -> None:
        if scale < 1:
            raise ValueError(f"tick scale must be a positive integer, got {scale}")
        self.scale = scale

    # ------------------------------------------------------------------
    @classmethod
    def for_values(cls, values: Iterable[TimeLike]) -> "TickDomain":
        """Smallest domain containing every value (LCM of denominators)."""
        return cls(_lcm_of_denominators(values))

    def extended(self, values: Iterable[TimeLike]) -> "TickDomain":
        """This domain enlarged to also contain *values*.

        Returns ``self`` unchanged (same object) when no enlargement is
        needed, so callers can cheaply detect that precomputed tick arrays
        remain valid.
        """
        scale = _lcm_of_denominators(values, self.scale)
        return self if scale == self.scale else TickDomain(scale)

    # ------------------------------------------------------------------
    def contains(self, value: TimeLike) -> bool:
        """True when *value* converts exactly in this domain."""
        return self.scale % as_time(value).denominator == 0

    def to_ticks(self, value: TimeLike) -> int:
        """Exact integer tick count of *value*; raises if not representable."""
        f = value if isinstance(value, Fraction) else as_time(value)
        q, r = divmod(f.numerator * self.scale, f.denominator)
        if r:
            raise ValueError(
                f"{f} is not representable in a tick domain of scale "
                f"{self.scale} (denominator {f.denominator} does not divide it)"
            )
        return q

    def ticks(self, values: Iterable[TimeLike]) -> List[int]:
        """Vectorised :meth:`to_ticks`."""
        return [self.to_ticks(v) for v in values]

    def from_ticks(self, ticks: int) -> Time:
        """The exact rational time of an integer tick count.

        This is the hot conversion when schedules and job records are
        materialised, so it builds the (already normalised) Fraction
        directly instead of going through the type-dispatching
        ``Fraction.__new__``.
        """
        scale = self.scale
        if not _FAST_FRACTION:  # pragma: no cover - non-CPython
            return Fraction(ticks, scale)
        if scale == 1:
            num, den = ticks, 1
        else:
            g = gcd(ticks, scale)
            num, den = ticks // g, scale // g
        f = _new_fraction(Fraction)
        f._numerator = num
        f._denominator = den
        return f

    def rescale_factor(self, finer: "TickDomain") -> int:
        """Integer factor converting this domain's ticks to *finer*'s ticks.

        ``finer`` must be an extension of this domain (its scale a multiple
        of ours); tick arrays migrate with a single multiplication.
        """
        q, r = divmod(finer.scale, self.scale)
        if r:
            raise ValueError(
                f"domain of scale {finer.scale} does not refine scale {self.scale}"
            )
        return q

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TickDomain) and other.scale == self.scale

    def __hash__(self) -> int:
        return hash((TickDomain, self.scale))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"TickDomain(scale={self.scale})"


class JobTicks:
    """Integer-tick view of a job list (arrivals, deadlines, WCETs).

    Built once per task graph (see :meth:`repro.taskgraph.graph.TaskGraph.
    tick_times`) and shared by every scheduling pass over it.  The job list
    is frozen at graph construction (the graph's name index relies on that
    too), so the view never needs invalidation.
    """

    __slots__ = ("domain", "arrival", "wcet", "deadline")

    def __init__(self, jobs: Sequence, hyperperiod: TimeLike = None) -> None:
        values: List[Fraction] = []
        for j in jobs:
            values.append(j.arrival)
            values.append(j.deadline)
            values.append(j.wcet)
        if hyperperiod is not None:
            values.append(as_time(hyperperiod))
        self.domain = TickDomain.for_values(values)
        to_ticks = self.domain.to_ticks
        self.arrival: List[int] = [to_ticks(j.arrival) for j in jobs]
        self.wcet: List[int] = [to_ticks(j.wcet) for j in jobs]
        self.deadline: List[int] = [to_ticks(j.deadline) for j in jobs]

    @classmethod
    def _from_arrays(
        cls,
        domain: TickDomain,
        arrival: List[int],
        wcet: List[int],
        deadline: List[int],
    ) -> "JobTicks":
        view = cls.__new__(cls)
        view.domain = domain
        view.arrival = arrival
        view.wcet = wcet
        view.deadline = deadline
        return view

    def rescaled_to(self, values: Iterable[TimeLike]) -> "JobTicks":
        """This view in a domain extended to also contain *values*.

        Returns ``self`` unchanged when the current domain already covers
        them; otherwise a copy whose domain and tick arrays are migrated by
        the exact integer rescale factor.  This is the one place the
        extend-then-rescale invariant lives — callers that need extra
        run-specific inputs (schedule start times, overheads, sampled
        durations, bound arrival times) go through here.
        """
        dom = self.domain.extended(values)
        if dom is self.domain:
            return self
        factor = self.domain.rescale_factor(dom)
        return JobTicks._from_arrays(
            dom,
            [t * factor for t in self.arrival],
            [t * factor for t in self.wcet],
            [t * factor for t in self.deadline],
        )


class PlatformTicks:
    """A job list's duration table on one platform shape, in ticks.

    ``ticks`` is the job list's :class:`JobTicks` view, extended so that
    every class-resolved WCET (:meth:`~repro.taskgraph.jobs.Job.wcet_on`)
    converts exactly.  ``rows[c][i]`` is job *i*'s duration on the
    platform's class *c*, and ``per_proc[p]`` is the row of flat
    processor *p*'s class (one shared list per class).  Every scheduling
    and runtime layer charges durations from here, so a homogeneous
    platform is simply a table with one row.  A speed-1 class over jobs
    without WCET tables runs each job for its own WCET: its row *is*
    ``ticks.wcet``, not a copy.  A job whose WCET table lacks one of the
    platform's classes cannot be placed on it: :class:`SchedulingError`.
    """

    __slots__ = ("ticks", "rows", "per_proc")

    def __init__(self, base: JobTicks, jobs: Sequence, platform: Platform) -> None:
        tabled = any(j.wcet_by_class is not None for j in jobs)
        try:
            values = [
                None if cls.speed == 1 and not tabled
                else [j.wcet_on(cls) for j in jobs]
                for cls in platform.classes
            ]
        except KeyError as exc:
            raise SchedulingError(exc.args[0]) from None
        tt = self.ticks = base.rescaled_to(
            v for row in values if row is not None for v in row
        )
        ticks = tt.domain.ticks
        self.rows: List[List[int]] = [
            tt.wcet if row is None else ticks(row) for row in values
        ]
        self.per_proc: List[List[int]] = [
            row for row, (_, count) in zip(self.rows, platform.entries)
            for _ in range(count)
        ]
