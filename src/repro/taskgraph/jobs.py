"""Jobs: the nodes of a task graph (Definition 3.1).

A job is the 5-tuple ``Ji = (pi, ki, Ai, Di, Ci)``:

* ``pi`` — owning process,
* ``ki`` — invocation count (1-based),
* ``Ai ∈ Q≥0`` — arrival time,
* ``Di ∈ Q+`` — required (absolute deadline) time,
* ``Ci ∈ Q+`` — worst-case execution time.

Jobs derived from sporadic processes are *server jobs* (Section III-A /
Fig. 2); they carry their subset bookkeeping (which user period they serve
and their position ``t`` within the subset) so the online policy can map
run-time sporadic arrivals onto them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from ..core.platform import ProcessorClass
from ..core.timebase import Time, as_positive_time, time_str
from ..core.trusted import check_trusted_constructor

#: Canonical per-class WCET table: name-sorted ``(class name, Ci)`` pairs.
WcetTable = Tuple[Tuple[str, Time], ...]


@dataclass(frozen=True)
class Job:
    """One node of a task graph.

    Attributes
    ----------
    process:
        Name of the owning process ``pi`` (for server jobs: the *sporadic*
        process's name — the server process ``p'`` is imaginary and exists
        only to define arrivals).
    k:
        Invocation count ``ki`` (1-based, counted per process over the frame).
    arrival:
        ``Ai`` — arrival relative to the frame start.
    deadline:
        ``Di`` — absolute required time relative to the frame start
        (already truncated to the hyperperiod by the derivation).
    wcet:
        ``Ci``.
    is_server:
        True when the job is a periodic-server stand-in for a sporadic job.
    subset_index:
        For server jobs: 1-based index ``n`` of the server subset (the user
        period this subset serves); ``None`` for ordinary jobs.
    slot:
        For server jobs: 1-based position ``t`` within the subset — the job
        represents the ``t``-th real sporadic invocation of its window.
    wcet_by_class:
        Optional per-processor-class WCET table as name-sorted
        ``(class name, Ci)`` pairs.  When present, ``wcet`` is the
        conservative worst case over the classes (the scalar every
        platform-blind computation keeps using) and
        :meth:`wcet_on` resolves the class-specific value; when absent
        the job is class-agnostic and classes scale ``wcet`` by their
        speed.
    """

    process: str
    k: int
    arrival: Time
    deadline: Time
    wcet: Time
    is_server: bool = False
    subset_index: Optional[int] = None
    slot: Optional[int] = None
    wcet_by_class: Optional[WcetTable] = None

    def __post_init__(self) -> None:
        if self.wcet_by_class is not None:
            object.__setattr__(
                self, "wcet_by_class",
                normalize_wcet_table(self.wcet_by_class, self.name),
            )
        if self.k < 1:
            raise ValueError("job invocation count k is 1-based")
        if self.arrival < 0:
            raise ValueError(f"job {self.name}: arrival must be non-negative")
        if self.wcet <= 0:
            raise ValueError(f"job {self.name}: WCET must be positive")
        if self.deadline <= self.arrival:
            raise ValueError(
                f"job {self.name}: deadline {self.deadline} must exceed "
                f"arrival {self.arrival}"
            )
        if self.is_server and (self.subset_index is None or self.slot is None):
            raise ValueError(f"server job {self.name} needs subset_index and slot")

    @classmethod
    def _of(
        cls,
        process: str,
        k: int,
        arrival: Time,
        deadline: Time,
        wcet: Time,
        is_server: bool = False,
        subset_index: Optional[int] = None,
        slot: Optional[int] = None,
        wcet_by_class: Optional[WcetTable] = None,
    ) -> "Job":
        """Trusted constructor for the derivation hot path.

        Skips the frozen-dataclass ``__setattr__`` guards and the
        ``__post_init__`` validation: the tick-domain derivation has already
        established ``k >= 1``, ``0 <= arrival < deadline`` and ``wcet > 0``
        on integers before converting back to rationals.  The explicit field
        list is cross-checked against the dataclass at import time (below),
        so adding a field to ``Job`` fails loudly here instead of silently
        building incomplete jobs.
        """
        job = object.__new__(cls)
        job.__dict__.update({
            "process": process,
            "k": k,
            "arrival": arrival,
            "deadline": deadline,
            "wcet": wcet,
            "is_server": is_server,
            "subset_index": subset_index,
            "slot": slot,
            "wcet_by_class": wcet_by_class,
        })
        return job

    @property
    def name(self) -> str:
        """Paper notation ``p[k]``."""
        return f"{self.process}[{self.k}]"

    def wcet_on(self, cls: ProcessorClass) -> Time:
        """The job's WCET when placed on processor class *cls*.

        An explicit table entry is authoritative; otherwise the scalar
        ``wcet`` scales by the class speed (exact rational division).
        This is the entry of the job's row in a graph's duration table
        (:meth:`TaskGraph.platform_ticks`), which every scheduling and
        runtime layer charges.
        """
        if self.wcet_by_class is not None:
            for name, value in self.wcet_by_class:
                if name == cls.name:
                    return value
            raise KeyError(
                f"job {self.name} has no WCET for processor class "
                f"{cls.name!r} (table covers "
                f"{[n for n, _ in self.wcet_by_class]})"
            )
        return self.wcet / cls.speed

    @property
    def laxity(self) -> Time:
        """Slack ``Di - Ai - Ci`` of the job in isolation."""
        return self.deadline - self.arrival - self.wcet

    def describe(self) -> str:
        """Fig. 3 node label: ``p[k] (Ai, Di, Ci)``."""
        return (
            f"{self.name} ({time_str(self.arrival)},"
            f"{time_str(self.deadline)},{time_str(self.wcet)})"
        )

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.describe()


def normalize_wcet_table(
    table: "Mapping[str, Time] | WcetTable", what: str
) -> WcetTable:
    """Canonicalise a per-class WCET table to name-sorted positive pairs."""
    pairs = (
        tuple(sorted(table.items()))
        if isinstance(table, Mapping)
        else tuple(tuple(p) for p in table)
    )
    out = []
    seen = set()
    for pair in pairs:
        if len(pair) != 2 or not isinstance(pair[0], str) or not pair[0]:
            raise ValueError(
                f"{what}: WCET table entries are (class name, Ci) pairs, "
                f"got {pair!r}"
            )
        name, value = pair
        if name in seen:
            raise ValueError(f"{what}: duplicate WCET table class {name!r}")
        seen.add(name)
        out.append((name, as_positive_time(value, f"{what} WCET on {name!r}")))
    if not out:
        raise ValueError(f"{what}: WCET table must not be empty")
    return tuple(sorted(out))


_JOB_FIELDS = (
    "process", "k", "arrival", "deadline", "wcet",
    "is_server", "subset_index", "slot", "wcet_by_class",
)
check_trusted_constructor(
    Job, _JOB_FIELDS, Job._of,
    dict(process="p", k=1, arrival=Time(0), deadline=Time(1), wcet=Time(1)),
)
