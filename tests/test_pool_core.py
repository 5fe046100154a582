"""The pool's policy core driven in simulated time: affinity order, tag
fairness, backoff doubling, the retry budget, deadlines armed at ready,
boot failures (one spawn per slot, not per group) and hung boots, the
payload mirror's resets, cancel, the interrupt drain, the next instant
a driver waits for (``next_wakeup``), and a seeded random fuzz of event
sequences against the core's invariants.  Nothing here starts a process
or reads a clock."""

import random
from collections import Counter, namedtuple

import pytest

from repro import FaultPlan
from repro.errors import (
    SweepTimeoutError,
    WorkerBootError,
    WorkerCrashError,
)
from repro.experiment.pool_core import (
    _BOOT_TIMEOUT,
    LRU,
    PoolCore,
    Slot,
    Submission,
)

Cell = namedtuple("Cell", "index")


def _core(workers, *warm, **policy):
    """A core whose slots are booted, idle and warm on the given keys;
    *policy* is its supervision policy."""
    core = PoolCore(workers, warm_bound=8, **policy)
    for index, keys in enumerate(warm):
        slot = Slot(index, LRU(8), up=True, ready=True)
        for key in keys:
            slot.warm.fetch(key, lambda: None)
        core.slots.append(slot)
    return core


def _submit(core, *keys, first_cell=0, **options):
    """Submit one single-cell group per key; the submission.

    The ``enqueued`` milestone it queues is taken and dropped.
    """
    sub = Submission(**options)
    core.submit(sub, [
        (key, [Cell(first_cell + i)]) for i, key in enumerate(keys)
    ])
    core.take()
    return sub


def _sends(actions):
    return [(a[1].index, a[2].key) for a in actions if a[0] == "send"]


def _events(actions, kind=None):
    return [
        a[2] for a in actions
        if a[0] == "emit" and (kind is None or a[2].kind == kind)
    ]


def _dispatch(core, now=0.0):
    core.tick(now)
    return core.take()


# ---------------------------------------------------------------------------
# routing: affinity is a preference, not a wait
# ---------------------------------------------------------------------------
class TestAffinity:
    def test_warm_idle_slot_first(self):
        core = _core(2, ["a"], ["b"])
        _submit(core, "b")
        assert _sends(_dispatch(core)) == [(1, "b")]
        # Its warm slot busy, a second group of the key takes the idle one.
        _submit(core, "b")
        assert _sends(_dispatch(core)) == [(0, "b")]
        # No idle slot and no room to spawn: the group waits.
        _submit(core, "b")
        assert _sends(_dispatch(core)) == []
        assert len(core.pending) == 1

    def test_new_key_avoids_a_slot_a_pending_group_is_warm_on(self):
        core = _core(2, ["b"], ["a"])
        _submit(core, "c", "b")
        # c skips slot 0, which the pending b-group is warm on.
        assert _sends(_dispatch(core)) == [(1, "c"), (0, "b")]

    def test_a_claimed_idle_slot_serves_when_nothing_else_can(self):
        core = _core(2, ["b"], ["a"])
        _submit(core, "a")
        assert _sends(_dispatch(core)) == [(1, "a")]
        _submit(core, "c", "b")
        assert _sends(_dispatch(core)) == [(0, "c")]

    def test_a_new_slot_before_a_claimed_idle_one(self):
        core = _core(2, ["b"])
        _submit(core, "c", "b")
        actions = _dispatch(core)
        assert [(a[0], a[1].index) for a in actions if a[0] == "spawn"] == [
            ("spawn", 1)
        ]
        assert _sends(actions) == [(1, "c"), (0, "b")]
        assert len(core.slots) == 2


# ---------------------------------------------------------------------------
# fairness across client tags
# ---------------------------------------------------------------------------
class TestFairness:
    def _order(self, submissions):
        core = _core(1, [])
        subs = [_submit(core, *keys, client=tag) for tag, keys in submissions]
        order = []
        for _ in range(sum(len(keys) for _, keys in submissions)):
            [(slot, key)] = _sends(_dispatch(core))
            order.append(core.slots[0].group.sub.client)
            core.reply(core.slots[0], 0.0)
            core.take()
        assert all(sub.finished for sub in subs)
        return order

    def test_round_robin_across_client_tags(self):
        assert self._order([
            ("alice", ["x", "y", "z"]), ("bob", ["u"]), ("carol", ["v"]),
        ]) == ["alice", "bob", "carol", "alice", "alice"]

    def test_one_tag_is_fifo_over_groups(self):
        assert self._order([(None, ["x", "y"]), (None, ["z"])]) == [
            None, None, None,
        ]


# ---------------------------------------------------------------------------
# supervision: backoff, budget, deadlines, boot failures
# ---------------------------------------------------------------------------
class TestSupervision:
    def test_backoff_doubles_and_gates_the_redispatch(self):
        core = _core(1, [], max_retries=3, retry_backoff=1.0)
        sub = _submit(core, "k")
        _dispatch(core, 0.0)
        slot = core.slots[0]
        now, waits = 0.0, []
        for _ in range(3):
            now += 10.0
            core.died(slot, now)
            actions = core.take()
            assert [a[0] for a in actions][:1] == ["spawn"]
            [group] = core.pending
            waits.append(group.not_before - now)
            # Not before the backoff elapsed ...
            assert _sends(_dispatch(core, group.not_before - 1e-9)) == []
            # ... and at once when it has.
            assert _sends(_dispatch(core, group.not_before)) == [(0, "k")]
            now = group.not_before
            core.ready(slot, now)
        assert waits == [1.0, 2.0, 4.0]
        assert sub.retries == 3

    def test_budget_exhaustion_records_the_redispatches_performed(self):
        core = _core(1, [], max_retries=1, retry_backoff=0.0)
        sub = _submit(core, "k")
        slot = core.slots[0]
        _dispatch(core)
        core.died(slot, 1.0)
        core.take()
        _dispatch(core, 1.0)
        core.ready(slot, 1.0)
        core.died(slot, 2.0)
        actions = core.take()
        [fail] = [a for a in actions if a[0] == "fail"]
        _, group, error, retries = fail
        assert isinstance(error, WorkerCrashError)
        assert "exhausted after 1 redispatches" in str(error)
        assert retries == 1 and sub.retries == 1
        assert [e.kind for e in _events(actions)] == ["finished"]
        assert actions[-1] == ("settle", sub)
        assert sub.finished and not sub.interrupted

    def test_deadline_clock_starts_at_ready(self):
        core = PoolCore(1, warm_bound=8, group_timeout=5.0)
        sub = _submit(core, "k")
        actions = _dispatch(core, 0.0)
        assert [a[0] for a in actions][:2] == ["spawn", "send"]
        slot = core.slots[0]
        assert slot.deadline is None  # still booting
        _dispatch(core, 100.0)  # a slow boot is not a timeout
        assert slot.group is not None
        core.ready(slot, 100.0)
        assert slot.deadline == 105.0
        assert _dispatch(core, 105.0) == []
        actions = _dispatch(core, 105.5)
        assert actions[0] == ("spawn", slot)
        [retry] = _events(actions, "retry")
        assert "exceeded its 5.0s deadline" in retry.detail
        assert sub.retries == 1 and slot.group is None

    def test_deadline_clock_starts_at_dispatch_on_a_booted_slot(self):
        core = _core(1, [], group_timeout=2.0, max_retries=0)
        _submit(core, "k")
        _dispatch(core, 3.0)
        assert core.slots[0].deadline == 5.0
        actions = _dispatch(core, 6.0)
        [fail] = [a for a in actions if a[0] == "fail"]
        assert isinstance(fail[2], SweepTimeoutError)

    def test_death_before_ready_fails_fast(self):
        core = PoolCore(1, warm_bound=8, max_retries=5)
        sub = _submit(core, "k")
        _dispatch(core)
        slot = core.slots[0]
        core.died(slot, 1.0)
        actions = core.take()
        assert [a[0] for a in actions] == ["fail", "emit", "settle"]
        assert isinstance(actions[0][2], WorkerBootError)
        assert actions[0][3] == 0 and sub.retries == 0
        # The slot stays down until a dispatch needs it again.
        assert not slot.up and core.take() == []
        _submit(core, "k", first_cell=1)
        assert [a[0] for a in _dispatch(core, 2.0)][:2] == ["spawn", "send"]
        assert slot.up and len(core.slots) == 1

    def test_boot_deaths_cost_one_spawn_per_slot(self):
        core = PoolCore(2, warm_bound=8)
        sub = _submit(core, "a", "b", "c", "d", "e")
        actions = _dispatch(core)
        slots = core.slots
        # Neither slot is ready: the first death fails its group and every
        # pending group of the submission, the second death the last one.
        for now, slot in enumerate(slots, start=1):
            core.died(slot, float(now))
            actions += core.take()
        actions += _dispatch(core, 3.0)
        kinds = Counter(a[0] for a in actions)
        assert (kinds["spawn"], kinds["fail"]) == (2, 5)
        fails = [a for a in actions if a[0] == "fail"]
        assert all(isinstance(a[2], WorkerBootError) for a in fails)
        assert sorted(a[1].key for a in fails) == ["a", "b", "c", "d", "e"]
        assert actions[-1] == ("settle", sub) and not core.pending
        # A later submission spawns afresh.
        _submit(core, "f", first_cell=5)
        assert [a[0] for a in _dispatch(core, 4.0)][:2] == ["spawn", "send"]

    def test_boot_death_beside_a_ready_slot_fails_only_its_group(self):
        core = _core(2, [])
        sub = _submit(core, "a", "b", "c")
        assert _sends(_dispatch(core)) == [(0, "a"), (1, "b")]
        core.died(core.slots[1], 1.0)
        actions = core.take()
        assert [(a[0], a[1].key) for a in actions] == [("fail", "b")]
        assert [g.key for g in core.pending] == ["c"]
        assert not sub.finished

    def test_death_after_ready_is_a_crash_and_retried(self):
        core = PoolCore(1, warm_bound=8)
        sub = _submit(core, "k")
        _dispatch(core)
        slot = core.slots[0]
        core.ready(slot, 0.5)
        core.died(slot, 1.0)
        actions = core.take()
        assert [a[0] for a in actions] == ["spawn", "emit"]
        assert _events(actions)[0].kind == "retry"
        assert sub.retries == 1 and not sub.finished

    def test_requeue_consumes_a_fault_firing(self):
        core = _core(1, [], retry_backoff=0.0)
        plan = FaultPlan(kill_at={0: 2, 7: 1})
        sub = _submit(core, "k", faults=plan)
        _dispatch(core)
        core.died(core.slots[0], 1.0)
        assert sub.faults == plan.decrement([0])

    def test_a_boot_that_hangs_fails_like_a_boot_death(self):
        core = PoolCore(1, warm_bound=8, payload_bound=4, max_retries=5)
        sub = _submit(core, "a", "b")
        assert _sends(_dispatch(core, 0.0)) == [(0, "a")]
        slot = core.slots[0]
        assert slot.boot_deadline == _BOOT_TIMEOUT and slot.deadline is None
        slot.payloads.fetch("stimulus-hash", lambda: None)  # sent with "a"
        assert _dispatch(core, _BOOT_TIMEOUT) == []  # at the bound: waits
        actions = _dispatch(core, _BOOT_TIMEOUT + 0.5)
        # The hung worker is killed and, no slot being ready, both groups
        # fail with the boot error, unretried.
        assert [a[0] for a in actions] == [
            "kill", "fail", "fail", "emit", "settle",
        ]
        assert actions[0] == ("kill", slot)
        for _, group, error, retries in actions[1:3]:
            assert isinstance(error, WorkerBootError)
            assert "did not report ready" in str(error) and retries == 0
        assert sub.finished and sub.retries == 0
        assert not slot.up and slot.boot_deadline is None
        # The next group respawns the slot with empty mirrors.
        _submit(core, "c", first_cell=2)
        actions = _dispatch(core, 200.0)
        assert [a[0] for a in actions][:2] == ["spawn", "send"]
        assert list(slot.payloads) == [] and list(slot.warm) == ["c"]
        assert slot.boot_deadline == 200.0 + _BOOT_TIMEOUT

    def test_ready_ends_the_boot_clock(self):
        core = PoolCore(1, warm_bound=8)
        _submit(core, "k")
        _dispatch(core, 0.0)
        slot = core.slots[0]
        core.ready(slot, _BOOT_TIMEOUT - 1.0)
        assert slot.boot_deadline is None
        assert _dispatch(core, 10 * _BOOT_TIMEOUT) == []
        assert slot.up and slot.group is not None

    def test_payload_mirror_resets_with_the_warm_mirror(self):
        core = _core(1, ["k"])
        slot = core.slots[0]
        slot.payloads = LRU(4)
        slot.payloads.fetch("h", lambda: None)
        core.evicted()
        assert list(slot.payloads) == [] and list(slot.warm) == []
        # A respawn after a crash resets both as well.
        _submit(core, "k")
        _dispatch(core, 0.0)
        slot.payloads.fetch("h", lambda: None)
        core.died(slot, 1.0)
        assert core.take()[0] == ("spawn", slot)
        assert list(slot.payloads) == [] and list(slot.warm) == []


# ---------------------------------------------------------------------------
# cancel and interrupt
# ---------------------------------------------------------------------------
class TestNextWakeup:
    def test_nothing_pending_or_dispatched_reports_none(self):
        assert PoolCore(2, warm_bound=8).next_wakeup(0.0) is None
        core = _core(2, ["a"], [], group_timeout=1.0)  # booted, idle
        assert core.next_wakeup(0.0) is None
        _submit(core, "a")
        _dispatch(core, 0.0)
        assert core.next_wakeup(0.0) == 1.0
        core.reply(core.slots[0], 0.5)
        core.take()
        assert not core.busy and core.next_wakeup(0.5) is None

    def test_a_pending_group_waiting_for_a_slot_is_not_timed(self):
        core = _core(1, [])
        _submit(core, "a", "b")
        _dispatch(core, 0.0)
        assert [g.key for g in core.pending] == ["b"]
        assert core.next_wakeup(5.0) is None  # it waits for a reply

    def test_the_earliest_deadline_boot_deadline_or_backoff(self):
        core = PoolCore(2, warm_bound=8, group_timeout=30.0, retry_backoff=4.0)
        _submit(core, "a", "b")
        _dispatch(core, 0.0)  # two spawns: two boot clocks
        first, second = core.slots
        assert core.next_wakeup(0.0) == _BOOT_TIMEOUT
        core.ready(first, 1.0)
        core.ready(second, 2.0)
        assert core.next_wakeup(2.0) == 31.0  # first's group deadline
        core.died(first, 3.0)  # a crash: respawn, retry after 4 s
        core.take()
        assert first.boot_deadline == 3.0 + _BOOT_TIMEOUT
        assert core.next_wakeup(3.0) == 7.0  # the backoff's end
        assert core.next_wakeup(7.0) == 32.0  # elapsed: second's deadline


class TestCancelAndInterrupt:
    def test_cancel_withdraws_only_pending_groups(self):
        core = _core(1, [])
        sub = _submit(core, "a", "b")
        _dispatch(core)
        assert core.cancel(sub)
        assert sub.cancelled and sub.interrupted and not sub.finished
        assert not core.cancel(sub)  # nothing left to withdraw
        core.reply(core.slots[0], 1.0)
        actions = core.take()
        assert [e.kind for e in _events(actions)] == ["group-done", "finished"]
        assert actions[-1] == ("settle", sub)

    def test_cancel_after_full_dispatch_changes_nothing(self):
        core = _core(2, [], [])
        sub = _submit(core, "a", "b")
        _dispatch(core)
        assert not core.pending
        assert not core.cancel(sub)
        assert core.take() == []
        assert not (sub.cancelled or sub.interrupted or sub.finished)
        for slot in core.slots:
            core.reply(slot, 1.0)
        assert sub.finished and not sub.interrupted

    def test_interrupt_drains_replies_then_stops(self):
        core = _core(3, [], [], [])
        fired = _submit(core, "a", "b", faults=FaultPlan(interrupt_at=(0,)))
        other = _submit(core, "c", first_cell=5)
        _dispatch(core)
        slots = core.slots
        assert [slot.group.key for slot in slots] == ["a", "b", "c"]
        core.reply(slots[0], 1.0)
        # Merge-then-interrupt: no group-done, the submission is cut.
        assert core.take() == [("settle", fired), ("interrupt",)]
        assert fired.interrupted and fired.finished
        core.interrupt()
        # The drain: replies still merge and finish their submissions,
        # nothing is dispatched and no injected interrupt fires again.
        _submit(core, "d", first_cell=9)
        core.reply(slots[2], 1.1)
        drained = core.take()
        assert [e.kind for e in _events(drained)] == ["group-done", "finished"]
        assert drained[-1] == ("settle", other) and not other.interrupted
        assert _dispatch(core, 1.2) == []
        core.reply(slots[1], 1.3)
        assert [e.kind for e in _events(core.take())] == ["group-done"]
        core.stop()
        late = core.take()
        assert [a[0] for a in late] == ["settle"]
        assert late[0][1].interrupted
        assert core.slots == [] and core.pending == [] and not core.draining


# ---------------------------------------------------------------------------
# a seeded fuzz of event sequences against the core's invariants
# ---------------------------------------------------------------------------
class _Harness:
    """A fake adapter that checks the core's invariants as it goes."""

    def __init__(self, rng):
        self.rng = rng
        self.core = PoolCore(
            rng.randint(1, 3), warm_bound=2,
            group_timeout=rng.choice([None, 1.0, 3.0]),
            max_retries=rng.randint(0, 2),
            retry_backoff=rng.choice([0.0, 0.5, 1.0]),
        )
        self.now = 0.0
        self.next_cell = 0
        self.subs = []
        self.groups = {}  # gid -> group
        self.ended = Counter()
        self.settled = Counter()
        self.running = {}  # slot index -> gid of the group it runs
        self.due = {}  # gid -> earliest allowed redispatch
        self.finished_events = set()
        #: next_wakeup as reported after the last event, at its time.
        self.wakeup, self.then = None, 0.0

    def apply(self, actions):
        for action in actions:
            kind = action[0]
            if kind == "spawn":
                self.running.pop(action[1].index, None)
            elif kind == "send":
                slot, group = action[1], action[2]
                assert slot.index not in self.running, "slot runs two groups"
                assert self.now >= self.due.get(group.gid, 0.0), "early"
                self.running[slot.index] = group.gid
            elif kind == "fail":
                self.end(action[1])
            elif kind == "settle":
                self.settled[id(action[1])] += 1
                assert self.settled[id(action[1])] == 1, "settled twice"
            elif kind == "emit":
                sub, event = action[1], action[2]
                assert id(sub) not in self.finished_events, "after finished"
                if event.kind == "finished":
                    self.finished_events.add(id(sub))
                if event.kind == "retry":
                    group = self.groups[event.gid]
                    self.due[group.gid] = self.now + (
                        self.core.retry_backoff * 2 ** (group.attempt - 1)
                    )
            elif kind == "interrupt":
                self.core.interrupt()
                for slot in list(self.core.slots):
                    if slot.up and slot.group is not None and (
                        self.rng.random() < 0.5
                    ):
                        self.reply(slot)
                self.stop()
        for sub in self.subs:
            assert sub.outstanding >= 0
            assert sub.finished == (self.settled[id(sub)] == 1)

    def end(self, group):
        self.ended[group.gid] += 1
        assert self.ended[group.gid] == 1, "group ended twice"

    def reply(self, slot):
        self.running.pop(slot.index, None)
        self.end(slot.group)
        self.core.reply(slot, self.now)
        self.apply(self.core.take())

    def stop(self):
        for group in self.core.pending:
            self.end(group)
        for slot in self.core.slots:
            if slot.group is not None:
                self.end(slot.group)
        self.core.stop()
        self.running.clear()
        self.apply(self.core.take())

    def check_wakeup(self):
        """Nothing timed is due before the instant last reported: no
        deadline has expired and no backoff elapsed since."""
        early = self.wakeup is None or self.now < self.wakeup
        for slot in self.core.slots:
            for deadline in (slot.deadline, slot.boot_deadline):
                if deadline is not None:
                    assert not (early and self.now > deadline), "expired"
        for group in self.core.pending:
            if group.not_before > self.then:
                assert not (early and self.now >= group.not_before), "elapsed"

    def step(self):
        rng, core = self.rng, self.core
        self.now += rng.choice([0.0, 0.1, 0.5, 2.0])
        self.check_wakeup()
        self.step_event()
        self.wakeup, self.then = core.next_wakeup(self.now), self.now
        if not core.busy:
            assert self.wakeup is None or any(
                s.boot_deadline is not None for s in core.slots
            )

    def step_event(self):
        rng, core = self.rng, self.core
        choice = rng.random()
        busy = [s for s in core.slots if s.group is not None and s.up]
        booting = [s for s in core.slots if s.up and not s.ready]
        up = [s for s in core.slots if s.up]
        if choice < 0.2:
            keys = [rng.choice("abcd") for _ in range(rng.randint(0, 3))]
            faults = None
            if keys and rng.random() < 0.15:
                faults = FaultPlan(interrupt_at=(self.next_cell,))
            sub = Submission(
                client=rng.choice([None, "x", "y"]), faults=faults,
            )
            groups = []
            for key in keys:
                groups.append((key, [Cell(self.next_cell)]))
                self.next_cell += 1
            self.subs.append(sub)
            core.submit(sub, groups)
            self.groups.update(
                (g.gid, g) for g in core.pending if g.sub is sub
            )
            self.apply(core.take())
        elif choice < 0.3 and booting:
            core.ready(rng.choice(booting), self.now)
            self.apply(core.take())
        elif choice < 0.5 and busy:
            slot = rng.choice(busy)
            if not slot.ready:
                core.ready(slot, self.now)
            self.reply(slot)
        elif choice < 0.58 and up:
            slot = rng.choice(up)
            self.running.pop(slot.index, None)
            core.died(slot, self.now)
            self.apply(core.take())
        elif choice < 0.64 and self.subs:
            sub = rng.choice(self.subs)
            pending = {g.gid: g for g in core.pending if g.sub is sub}
            withdrawn = core.cancel(sub)
            assert withdrawn == bool(pending) and not (
                withdrawn and sub in [g.sub for g in core.pending]
            )
            for group in pending.values() if withdrawn else ():
                self.end(group)
            self.apply(core.take())
        elif choice < 0.66:
            self.stop()
        else:
            core.tick(self.now)
            self.apply(core.take())


@pytest.mark.parametrize("chunk", range(4))
def test_random_event_sequences_keep_the_invariants(chunk):
    for seed in range(chunk * 50, chunk * 50 + 50):
        harness = _Harness(random.Random(seed))
        for _ in range(60):
            harness.step()
        harness.stop()
        for sub in harness.subs:
            assert harness.settled[id(sub)] == 1, seed
        assert set(harness.ended) == set(harness.groups), seed
        assert all(count == 1 for count in harness.ended.values()), seed
