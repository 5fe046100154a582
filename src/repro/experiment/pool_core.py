"""The resident pool's policy as a pure state machine (sans-I/O).

:class:`PoolCore` makes every decision of
:class:`~repro.experiment.SweepPool` and performs none of its I/O.  The
adapter in :mod:`repro.experiment.pool` reports what it observes as
*events* — method calls carrying an explicit ``now`` (seconds on any
monotonic clock) — and carries out, in order, the *actions* the core
queues in response (drained by :meth:`PoolCore.take`):

* ``("spawn", slot)`` — start a worker in *slot*, replacing any there;
* ``("kill", slot)`` — stop *slot*'s worker, which never booted;
* ``("send", slot, group)`` — hand *group* to *slot*'s worker;
* ``("fail", group, error, retries)`` — book every cell of *group* as an
  error row and emit its ``group-failed`` milestone;
* ``("emit", submission, event)`` — deliver a :class:`PoolEvent`;
* ``("settle", submission)`` — the submission is over (finished,
  cancelled or interrupted), exactly once;
* ``("interrupt",)`` — raise ``KeyboardInterrupt`` once the queued
  actions ran (an injected fault-plan interrupt fired).

Between events the adapter waits for a worker message or
:meth:`PoolCore.next_wakeup`, the one instant a ``tick`` can act on.

A worker that dies after reporting ready, or overruns the group deadline
that starts at dispatch or at ready (whichever is later), is respawned
and its group requeued with exponential backoff until ``max_retries``
redispatches are spent.  One that dies *before* ready, or does not
report ready within :data:`_BOOT_TIMEOUT` of its spawn (and is killed),
fails its group with :class:`~repro.errors.WorkerBootError` at once: it
would fail the same way on every respawn.  While no other slot is ready,
every pending group of its submission fails with it, so workers that
cannot boot cost one spawn per slot, not one per group.  STOMP's queue-based
discrete-event core, in which policies change without touching the
simulator, is the model; ``tests/test_pool_core.py`` drives this one in
simulated time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..errors import ModelError, SweepTimeoutError, WorkerBootError, WorkerCrashError
from .fields import Field, integer, optional, real, text

__all__ = ["Group", "LRU", "PoolCore", "PoolEvent", "Slot", "Submission"]

#: Seconds a spawned worker has to report ready, on the core's clock.
#: A boot takes well under a second, seconds on a loaded host: this
#: bounds a hang, it is no performance budget.
_BOOT_TIMEOUT = 120.0

#: A pool's options, checked here for ``SweepPool``, ``run_sweep`` and the
#: fppn-server document of ``repro serve``; the defaults are SweepPool's.
POOL_OPTIONS: Tuple[Field, ...] = (
    Field("workers", integer(1)),
    Field("group_timeout", optional(real("> 0", lambda t: t > 0))),
    Field("max_retries", integer(0)),
    Field("retry_backoff", real(">= 0", lambda t: t >= 0)),
    Field("max_cached_groups", integer(1)),
    Field("max_cached_payloads", integer(1)),
)


@dataclass(frozen=True)
class PoolEvent:
    """One milestone in a submission's lifecycle (telemetry stream).

    Emitted to the ``on_progress`` callback of :meth:`SweepPool.submit`
    at group granularity — the complement of the per-cell ``on_row``
    stream.  Delivery is **best-effort**: a raising progress sink is
    swallowed and never perturbs the sweep (unlike ``on_row``, whose
    errors are surfaced after bookkeeping — rows are data, progress is
    telemetry).

    ``kind`` is one of ``"store-hits"`` (cells resolved from the
    checkpoint store at submit), ``"enqueued"`` (groups queued behind
    the pending queue), ``"dispatch"`` (group handed to a worker slot),
    ``"group-done"`` (reply merged), ``"group-failed"`` (retry budget
    exhausted — detail carries the error), ``"retry"`` (group requeued
    after a crash/timeout) and ``"finished"`` (submission complete).
    """

    kind: str
    gid: Optional[int] = None
    cells: int = 0
    groups: int = 0
    detail: str = ""


def _kind(value: Any, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise ModelError(f"{what} must be a non-empty string, got {value!r}")
    return value


#: PoolEvent's fields: the codec of :func:`repro.io.json_io.pool_event_to_dict`.
EVENT_FIELDS: Tuple[Field, ...] = (
    Field("kind", _kind, required=True),
    Field("gid", optional(integer())),
    Field("cells", integer()),
    Field("groups", integer()),
    Field("detail", text),
)


class LRU(OrderedDict):
    """A bounded map that evicts its least recently used entry."""

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound

    def fetch(self, key: Any, make: Callable[[], Any]) -> Tuple[Any, bool]:
        """The entry for *key* (made on a miss) and whether it was a hit."""
        if key in self:
            self.move_to_end(key)
            return self[key], True
        value = self[key] = make()
        while len(self) > self.bound:
            self.popitem(last=False)
        return value, False


@dataclass(eq=False)
class Submission:
    """One submitted matrix's dispatch options and settlement state."""

    #: Fair-scheduling tag (``None`` is a tag too).
    client: Optional[str] = None
    #: The submission's :class:`FaultPlan`, consumed one firing per requeue.
    faults: Any = None
    #: The adapter's handle on the submission (opaque to the core).
    owner: Any = None
    outstanding: int = 0
    #: Budget-charged redispatches performed (``SweepStats.retries``).
    retries: int = 0
    finished: bool = False
    cancelled: bool = False
    interrupted: bool = False


@dataclass(eq=False)
class Group:
    """One schedule-key group: the unit of dispatch and retry."""

    gid: int
    sub: Submission
    key: Any
    #: The group's cells (anything with an ``index``).
    cells: Sequence[Any]
    #: Budget-charged redispatches so far.
    attempt: int = 0
    #: Time before which the group must not be redispatched.
    not_before: float = 0.0


@dataclass(eq=False)
class Slot:
    """The core's view of one worker slot."""

    index: int
    #: Schedule keys the slot's worker ran, mirroring its pipeline LRU.
    warm: LRU
    #: Stimulus hashes the slot's worker decoded, mirroring its payload
    #: LRU: the adapter touches it in payload order as it encodes each
    #: group for the slot (bound 0: no mirror, every stimulus is sent).
    payloads: LRU = field(default_factory=lambda: LRU(0))
    #: A worker process runs in the slot (spawned, not seen to die).
    up: bool = False
    ready: bool = False
    group: Optional[Group] = None
    deadline: Optional[float] = None
    #: When a spawned worker that has not reported ready is given up.
    boot_deadline: Optional[float] = None


class PoolCore:
    """Every pool decision: events in, actions out.  *workers* caps the
    slots; *warm_bound* and *payload_bound* size the two mirrors of each
    worker's LRUs (pipelines, decoded stimuli); the rest is every
    submission's supervision policy (``run_sweep``'s)."""

    def __init__(
        self, workers: int, warm_bound: int, group_timeout: Optional[float] = None,
        max_retries: int = 2, retry_backoff: float = 0.25,
        payload_bound: int = 0,
    ) -> None:
        self.workers = workers
        self.warm_bound = warm_bound
        self.payload_bound = payload_bound
        self.group_timeout = group_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.slots: List[Slot] = []
        self.pending: List[Group] = []
        #: Set by an interrupt: no dispatch and no injected interrupt
        #: fires until :meth:`stop`.
        self.draining = False
        #: Client tags with pending groups, least recently served first.
        self._served: List[Optional[str]] = []
        self._next_gid = 0
        self._actions: List[Tuple[Any, ...]] = []

    def take(self) -> List[Tuple[Any, ...]]:
        """The actions queued since the last call, in order."""
        actions, self._actions = self._actions, []
        return actions

    @property
    def busy(self) -> bool:
        """True while any group is pending or dispatched."""
        return bool(self.pending) or any(
            slot.group is not None for slot in self.slots
        )

    def next_wakeup(self, now: float) -> Optional[float]:
        """The earliest instant a :meth:`tick` can act on: the first
        group or boot deadline, or the end of a backoff not elapsed at
        *now*; ``None`` when nothing waits on time."""
        instants = [
            t for slot in self.slots
            for t in (slot.deadline, slot.boot_deadline) if t is not None
        ]
        instants += [g.not_before for g in self.pending if g.not_before > now]
        return min(instants, default=None)

    # -- events ----------------------------------------------------------
    def submit(
        self,
        sub: Submission,
        groups: Iterable[Tuple[Any, Sequence[Any]]],
        store_hits: int = 0,
    ) -> None:
        """Queue *sub*'s ``(key, cells)`` groups behind the pending ones."""
        if store_hits:
            self._emit(sub, "store-hits", cells=store_hits)
        cells = 0
        for key, group_cells in groups:
            self.pending.append(Group(self._next_gid, sub, key, group_cells))
            self._next_gid += 1
            sub.outstanding += 1
            cells += len(group_cells)
        self._emit(sub, "enqueued", cells=cells, groups=sub.outstanding)
        if sub.outstanding == 0:
            self._emit(sub, "finished")
            self._settle(sub)

    def cancel(self, sub: Submission) -> bool:
        """Withdraw *sub*'s pending groups; True if any were withdrawn.

        Dispatched groups run on and their rows are kept.  With nothing
        left to withdraw the submission is untouched: a sweep whose every
        group was dispatched completes normally.
        """
        kept = [group for group in self.pending if group.sub is not sub]
        withdrawn = len(self.pending) - len(kept)
        if sub.finished or not withdrawn:
            return False
        self.pending = kept
        sub.outstanding -= withdrawn
        sub.cancelled = sub.interrupted = True
        if sub.outstanding == 0:
            self._settle(sub)
        return True

    def ready(self, slot: Slot, now: float) -> None:
        """*slot*'s worker finished booting."""
        slot.ready, slot.boot_deadline = True, None
        self._arm(slot, now)

    def reply(self, slot: Slot, now: float) -> None:
        """*slot*'s worker returned its group (already merged)."""
        group, slot.group, slot.deadline = slot.group, None, None
        sub = group.sub
        if not self.draining and sub.faults is not None and any(
            cell.index in sub.faults.interrupt_at for cell in group.cells
        ):
            # Merge-then-interrupt, like a real Ctrl-C landing after the
            # reply: the firing group's rows are kept, its submission is
            # cut short and the pool drains.
            self.draining = True
            sub.outstanding -= 1
            self._cut(sub)
            self._actions.append(("interrupt",))
            return
        self._emit(sub, "group-done", gid=group.gid, cells=len(group.cells))
        self._end(group)

    def died(self, slot: Slot, now: float) -> None:
        """*slot*'s worker is gone, every message it sent already read."""
        slot.up, slot.boot_deadline = False, None
        if self.draining:
            return  # stop() cuts its group short
        if slot.ready:
            self._recover(
                slot, now, WorkerCrashError,
                "a sweep worker process died mid-group",
            )
        else:
            self._boot_failed(
                slot, "a sweep worker process died before it was ready "
                "(see its stderr)",
            )

    def tick(self, now: float) -> None:
        """Time passed: expire deadlines, then dispatch what can run."""
        for slot in self.slots:
            if slot.boot_deadline is not None and now > slot.boot_deadline:
                slot.up, slot.boot_deadline = False, None
                self._actions.append(("kill", slot))
                self._boot_failed(
                    slot, "a sweep worker process did not report ready "
                    f"within {_BOOT_TIMEOUT}s",
                )
            elif slot.deadline is not None and now > slot.deadline:
                self._recover(
                    slot, now, SweepTimeoutError,
                    f"group exceeded its {self.group_timeout}s deadline",
                )
        while not self.draining and self._dispatch_next(now):
            pass

    def interrupt(self) -> None:
        """A ``KeyboardInterrupt`` landed: drain replies, dispatch nothing."""
        self.draining = True

    def stop(self) -> None:
        """Cut every unfinished submission short and forget every slot
        (the adapter reaps the processes; later dispatches spawn anew)."""
        for slot in self.slots:
            if slot.group is not None:
                self._cut(slot.group.sub)
        for group in self.pending:
            self._cut(group.sub)
        self.slots, self.pending, self.draining = [], [], False

    def evicted(self) -> None:
        """Every worker dropped its warm caches."""
        for slot in self.slots:
            slot.warm.clear()
            slot.payloads.clear()

    # -- policy ----------------------------------------------------------
    def _dispatch_next(self, now: float) -> bool:
        """Dispatch one pending group, fair across client tags.

        Round robin: tags never served come first (in queue order), then
        the least recently served, and the first dispatchable group
        (backoff elapsed, a slot available) of the first tag that has one
        is sent.  A single tag reduces to FIFO over groups.  True if a
        group was sent.
        """
        tags = dict.fromkeys(group.sub.client for group in self.pending)
        self._served = [tag for tag in self._served if tag in tags]
        order = [tag for tag in tags if tag not in self._served]
        for tag in order + self._served:
            for group in self.pending:
                if group.sub.client != tag or group.not_before > now:
                    continue
                slot = self._slot_for(group, now)
                if slot is not None:
                    self._send(group, slot, now)
                    if tag in self._served:
                        self._served.remove(tag)
                    self._served.append(tag)
                    return True
        return False

    def _slot_for(self, group: Group, now: float) -> Optional[Slot]:
        """The slot *group* runs on now, or ``None`` if none is free.

        Affinity is a preference, not a wait: a key spreads to a second
        slot only while its warm one is busy, so uncontended traffic does
        not churn a worker's LRU.
        """
        idle = [s for s in self.slots if s.up and s.group is None]
        for slot in idle:
            if group.key in slot.warm:
                return slot
        claimed = {other.key for other in self.pending if other is not group}
        for slot in idle:
            if claimed.isdisjoint(slot.warm):
                return slot
        fresh = next((s for s in self.slots if not s.up), None)
        if fresh is None and len(self.slots) < self.workers:
            fresh = Slot(
                len(self.slots), LRU(self.warm_bound), LRU(self.payload_bound)
            )
            self.slots.append(fresh)
        if fresh is not None:
            self._spawn(fresh, now)
            return fresh
        return idle[0] if idle else None

    def _send(self, group: Group, slot: Slot, now: float) -> None:
        self.pending.remove(group)
        slot.group = group
        slot.warm.fetch(group.key, lambda: None)
        self._actions.append(("send", slot, group))
        self._emit(
            group.sub, "dispatch", gid=group.gid, cells=len(group.cells),
            detail=f"slot {slot.index}" + (
                f", attempt {group.attempt}" if group.attempt else ""
            ),
        )
        self._arm(slot, now)

    def _arm(self, slot: Slot, now: float) -> None:
        """Start the group deadline once sent *and* booted (not at spawn)."""
        if slot.ready and slot.group and self.group_timeout is not None:
            slot.deadline = now + self.group_timeout

    def _spawn(self, slot: Slot, now: float) -> None:
        slot.up, slot.ready = True, False
        slot.boot_deadline = now + _BOOT_TIMEOUT
        slot.warm.clear()
        slot.payloads.clear()
        self._actions.append(("spawn", slot))

    def _boot_failed(self, slot: Slot, what: str) -> None:
        """*slot*'s worker never booted: fail its group, no retry.

        It would fail the same way on every respawn.  With no slot ready,
        neither would its submission's pending groups.
        """
        group, slot.group = slot.group, None
        if group is None:
            return
        doomed = [group]
        if not any(s.up and s.ready for s in self.slots):
            doomed += [g for g in self.pending if g.sub is group.sub]
            self.pending = [g for g in self.pending if g not in doomed]
        for group in doomed:
            self._fail(group, WorkerBootError(what), group.attempt)

    def _recover(self, slot: Slot, now: float, error: type, what: str) -> None:
        """Respawn *slot* and charge its group one redispatch (or fail it)."""
        group, slot.group, slot.deadline = slot.group, None, None
        self._spawn(slot, now)
        if group is None:
            return
        sub = group.sub
        group.attempt += 1
        if group.attempt > self.max_retries:
            # ``retries`` records the redispatches actually performed.
            self._fail(group, error(
                f"{what}; retry budget exhausted after "
                f"{self.max_retries} redispatches"
            ), self.max_retries)
            return
        sub.retries += 1
        if sub.faults is not None:
            # The fault that (presumably) fired consumed one firing: a
            # transient (times=1) kill/delay lets the retry succeed.
            sub.faults = sub.faults.decrement(c.index for c in group.cells)
        group.not_before = now + self.retry_backoff * 2 ** (group.attempt - 1)
        self.pending.append(group)
        self._emit(
            sub, "retry", gid=group.gid, cells=len(group.cells),
            detail=f"{what} (attempt {group.attempt})",
        )

    def _fail(self, group: Group, error: Exception, retries: int) -> None:
        self._actions.append(("fail", group, error, retries))
        self._end(group)

    def _end(self, group: Group) -> None:
        """*group* finished (merged or failed); maybe its submission too."""
        sub = group.sub
        sub.outstanding -= 1
        if sub.outstanding == 0 and not sub.finished:
            self._emit(sub, "finished")
            self._settle(sub)

    def _cut(self, sub: Submission) -> None:
        sub.interrupted = True
        if not sub.finished:
            self._settle(sub)

    def _settle(self, sub: Submission) -> None:
        sub.finished = True
        self._actions.append(("settle", sub))

    def _emit(self, sub: Submission, kind: str, **fields: Any) -> None:
        self._actions.append(("emit", sub, PoolEvent(kind, **fields)))
