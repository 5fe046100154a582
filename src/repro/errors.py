"""Exception hierarchy for the FPPN library.

Every error raised by :mod:`repro` derives from :class:`FPPNError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate the failure class.
"""

from __future__ import annotations


class FPPNError(Exception):
    """Base class of all errors raised by the repro library."""


class ModelError(FPPNError):
    """An FPPN network definition violates the model's well-formedness rules.

    Examples: a cyclic functional-priority relation, a channel whose
    writer/reader pair is not ordered by functional priority, duplicate
    process names, or a sporadic process without a valid user process.
    """


class ChannelError(FPPNError):
    """Illegal channel access (unknown channel, wrong endpoint, type error)."""


class EventError(FPPNError):
    """An event-generator definition or arrival trace is invalid.

    Raised, for instance, when a sporadic arrival trace violates the
    "at most m events in any half-open window of length T" constraint.
    """


class SemanticsError(FPPNError):
    """Execution of the model semantics failed (e.g. non-returning automaton)."""


class SchedulingError(FPPNError):
    """The scheduler could not produce a schedule or was misconfigured."""


class InfeasibleError(SchedulingError):
    """No feasible schedule exists (or was found) for the requested platform.

    Attributes
    ----------
    diagnostics:
        Optional human-readable details, e.g. which job missed its deadline
        in the best candidate schedule, or the load bound that was violated.
    """

    def __init__(self, message: str, diagnostics: str = "") -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class RuntimeModelError(FPPNError):
    """The online policy / runtime simulator was driven with invalid input."""


class SweepError(FPPNError):
    """A scenario sweep could not complete as requested.

    Raised by ``run_sweep(..., on_error="raise")`` when a cell fails, and
    by the parallel supervisor for conditions it cannot express as a
    per-cell error row.  The default ``on_error="capture"`` mode never
    raises this: failures become structured error rows on the partial
    :class:`~repro.experiment.sweep.SweepResult` instead.
    """


class WorkerCrashError(SweepError):
    """A sweep worker process died (killed, OOM, hard exit) mid-group.

    The supervisor respawns the pool and requeues unfinished groups; this
    error names the cells of a group that exhausted its retry budget.
    """


class WorkerBootError(SweepError):
    """A sweep worker process died before it reported ready (not retried:
    a worker that cannot boot fails the same way on every respawn)."""


class SweepTimeoutError(SweepError):
    """A sweep group exceeded its per-group deadline and was terminated."""


class CheckpointError(FPPNError):
    """The sweep checkpoint store was misused or its backing file is bad."""


class ServiceError(FPPNError):
    """The sweep service (orchestrator, server or client) failed.

    Raised for service-level conditions that are not a sweep cell's own
    failure: submitting to a closed orchestrator, an unknown ticket, a
    server that refused a request, or a connection that dropped while a
    reply was outstanding.
    """


class ProtocolError(ServiceError):
    """A JSON-RPC wire message is malformed or violates the protocol."""


class UnknownTicketError(ServiceError):
    """A service ticket id does not resolve to a live record.

    Raised for ids that never existed *and* for finished tickets whose
    records were garbage-collected by the orchestrator's bounded ticket
    history — callers distinguishing the two must poll before the record
    ages out of the ``max_finished_tickets`` window.
    """
