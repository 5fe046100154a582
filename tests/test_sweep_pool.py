"""Resident sweep service (ISSUE 7): warm-cache resubmits with zero new
derivations, streaming rows, submission queueing/cancel, pool lifecycle
(no orphans, also after a SIGTERMed ``repro serve`` or a parent killed
while its worker computes; crash respawn into the resident pool) and
cross-sweep fault isolation."""

import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import FaultPlan, MemorySweepStore, ScenarioMatrix, run_sweep
from repro.apps import fig1_scenario, fms_scenario
from repro.errors import ModelError
from repro.experiment import SweepPool
from repro.service import ServiceClient

#: The headline acceptance matrix: the FMS 2x3 (processors x jitter) —
#: two schedule-key groups of three runtime cells each.
FMS_METRICS = ("executed_jobs", "missed_jobs", "worst_lateness", "makespan")


def fms_2x3_matrix():
    return ScenarioMatrix(
        fms_scenario(n_frames=1),
        {"processors": [1, 2], "jitter_seed": [0, 1, 2]},
    )


METRICS = ("executed_jobs", "makespan")


def fig1_matrix():
    return ScenarioMatrix(
        fig1_scenario(n_frames=1),
        {"processors": [2, 3], "jitter_seed": [0, 1]},
    )


def worker_pids(pool):
    return {
        slot.process.pid
        for slot in pool._slots
        if slot.process is not None and slot.process.is_alive()
    }


needs_procfs = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads worker pids from procfs"
)


@pytest.fixture(scope="module")
def fms_serial():
    return run_sweep(fms_2x3_matrix(), metrics=FMS_METRICS)


@pytest.fixture(scope="module")
def fig1_serial():
    return run_sweep(fig1_matrix(), metrics=METRICS)


# ---------------------------------------------------------------------------
# the headline invariant: a warm resubmit pays zero stage work, no respawn
# ---------------------------------------------------------------------------
class TestWarmResubmit:
    def test_cold_then_warm(self, fms_serial):
        with SweepPool(workers=2) as pool:
            assert not pool.started
            cold = pool.submit(fms_2x3_matrix(), FMS_METRICS).result()
            assert pool.started
            pids = worker_pids(pool)
            assert len(pids) == 2

            # Cold: the transient-pool contract — one derivation and one
            # scheduling pass per group, no warm hits, no reuse.
            assert not cold.stats.pool_reused
            assert cold.stats.derivations_computed == 2
            assert cold.stats.schedules_computed == 2
            assert cold.stats.warm_group_hits == 0
            assert cold.rows == fms_serial.rows

            warm = pool.submit(fms_2x3_matrix(), FMS_METRICS).result()

            # No respawn: the very same worker processes served it.
            assert worker_pids(pool) == pids
            assert warm.stats.pool_reused
            # Zero new stage work: every group hit its worker's warm
            # PipelineCache, every payload its content-hash cache.
            assert warm.stats.derivations_computed == 0
            assert warm.stats.schedules_computed == 0
            assert warm.stats.networks_built == 0
            assert warm.stats.warm_group_hits == 2
            assert warm.stats.payload_cache_hits >= len(fms_2x3_matrix())
            # The cells still *execute* — only stage artifacts are cached.
            assert warm.stats.runs == len(fms_2x3_matrix())
            assert warm.stats.workers == 2
            # And the rows are still bit-identical to the serial sweep.
            assert warm.rows == fms_serial.rows
            assert warm.stats.failed_cells == 0

    def test_overlapping_matrix_reuses_shared_groups(self, fms_serial):
        # A matrix overlapping one schedule key (processors=2) with the
        # first submission pays derivation only for the new key.
        with SweepPool(workers=2) as pool:
            pool.submit(fms_2x3_matrix(), FMS_METRICS).result()
            overlap = ScenarioMatrix(
                fms_scenario(n_frames=1),
                {"processors": [2, 3], "jitter_seed": [0, 1, 2]},
            )
            result = pool.submit(overlap, FMS_METRICS).result()
            assert result.stats.pool_reused
            assert result.stats.warm_group_hits == 1   # processors=2
            assert result.stats.derivations_computed == 1  # processors=3
            assert result.stats.schedules_computed == 1

    def test_evict_caches_drops_warmth_but_not_workers(self):
        with SweepPool(workers=2) as pool:
            pool.submit(fms_2x3_matrix(), FMS_METRICS).result()
            pids = worker_pids(pool)
            pool.evict_caches()
            result = pool.submit(fms_2x3_matrix(), FMS_METRICS).result()
            # Same resident processes, but the stage work is re-paid.
            assert worker_pids(pool) == pids
            assert result.stats.pool_reused
            assert result.stats.warm_group_hits == 0
            assert result.stats.derivations_computed == 2

    def test_closed_pool_refuses_submissions(self):
        pool = SweepPool(workers=2)
        pool.close()
        with pytest.raises(ModelError, match="closed"):
            pool.submit(fms_2x3_matrix(), FMS_METRICS)

    def test_constructor_validation(self):
        with pytest.raises(ModelError):
            SweepPool(workers=0)
        with pytest.raises(ModelError):
            SweepPool(max_retries=-1)
        with pytest.raises(ModelError):
            SweepPool(retry_backoff=-0.1)
        with pytest.raises(ModelError):
            SweepPool(max_cached_groups=0)


# ---------------------------------------------------------------------------
# streaming rows and the submission queue
# ---------------------------------------------------------------------------
class TestSubmissionQueue:
    def test_rows_stream_through_on_row(self, fig1_serial):
        streamed = []
        with SweepPool(workers=2) as pool:
            ticket = pool.submit(
                fig1_matrix(), METRICS, on_row=streamed.append
            )
            result = ticket.result()
        # Every healthy row streamed exactly once (completion order);
        # the result table itself is in cell order.
        assert len(streamed) == len(result.rows)
        for row in streamed:
            assert row in result.rows
        assert result.rows == fig1_serial.rows

    def test_store_hits_stream_without_dispatch(self, fig1_serial):
        store = MemorySweepStore()
        run_sweep(fig1_matrix(), metrics=METRICS, store=store)
        streamed = []
        with SweepPool(workers=2) as pool:
            ticket = pool.submit(
                fig1_matrix(), METRICS, store=store, on_row=streamed.append
            )
            # All cells hit the store parent-side at submit: the rows
            # streamed already and no worker was ever spawned.
            assert ticket.done
            assert not pool.started
            result = ticket.result()
        assert len(streamed) == len(fig1_matrix())
        assert result.rows == fig1_serial.rows
        assert result.stats.store_hits == len(fig1_matrix())
        assert result.stats.runs == 0
        assert result.stats.workers == 1
        assert not result.stats.pool_reused

    def test_queued_submissions_interleave(self, fms_serial, fig1_serial):
        with SweepPool(workers=2) as pool:
            ticket_a = pool.submit(fms_2x3_matrix(), FMS_METRICS)
            ticket_b = pool.submit(fig1_matrix(), METRICS)
            # Neither has run yet — nothing executes until driven.
            assert not ticket_a.done and not ticket_b.done
            result_b = ticket_b.result()
            result_a = ticket_a.result()
        assert result_a.rows == fms_serial.rows
        assert result_b.rows == fig1_serial.rows

    def test_cancel_withdraws_pending_groups(self, fms_serial):
        with SweepPool(workers=2) as pool:
            ticket_a = pool.submit(fms_2x3_matrix(), FMS_METRICS)
            ticket_b = pool.submit(fig1_matrix(), METRICS)
            assert ticket_b.cancel()
            assert ticket_b.cancelled and ticket_b.done
            assert not ticket_b.cancel()  # already withdrawn
            result_a = ticket_a.result()
            result_b = ticket_b.result()
        assert result_a.rows == fms_serial.rows
        # The cancelled submission is an empty partial result.
        assert result_b.rows == []
        assert result_b.stats.interrupted

    def test_result_is_idempotent(self):
        with SweepPool(workers=2) as pool:
            ticket = pool.submit(fig1_matrix(), METRICS)
            first = ticket.result()
            assert ticket.result() is first


# ---------------------------------------------------------------------------
# pool lifecycle: orphans, crash respawn, cross-sweep fault isolation
# ---------------------------------------------------------------------------
class TestPoolLifecycle:
    def test_context_manager_leaves_no_orphans(self):
        with SweepPool(workers=2) as pool:
            pool.submit(fig1_matrix(), METRICS).result()
            assert pool.started
        assert multiprocessing.active_children() == []
        assert not pool.started

    def test_close_is_idempotent(self):
        pool = SweepPool(workers=2)
        pool.submit(fig1_matrix(), METRICS).result()
        pool.close()
        pool.close()
        assert multiprocessing.active_children() == []

    def test_crash_respawns_into_resident_pool(self, fig1_serial):
        with SweepPool(workers=2, retry_backoff=0.01) as pool:
            faulted = pool.submit(
                fig1_matrix(), METRICS, faults=FaultPlan(kill_at={2: 1})
            ).result()
            # The transient kill was absorbed: full clean table, the
            # redispatch charged to the retry budget.
            assert faulted.rows == fig1_serial.rows
            assert faulted.stats.failed_cells == 0
            assert faulted.stats.retries >= 1
            # The replacement worker joined the *resident* pool: the
            # service stays up and the next submission reuses it.
            assert pool.started
            assert len(worker_pids(pool)) == 2
            again = pool.submit(fig1_matrix(), METRICS).result()
            assert again.stats.pool_reused
            assert again.rows == fig1_serial.rows
        assert multiprocessing.active_children() == []

    def test_fault_in_sweep_a_does_not_taint_sweep_b(self, fig1_serial):
        # A FaultPlan kill during sweep A must leave sweep B's rows
        # bit-identical to serial — fault state is per submission.
        with SweepPool(workers=2, retry_backoff=0.01) as pool:
            ticket_a = pool.submit(
                fig1_matrix(), METRICS, faults=FaultPlan(kill_at={2: 1})
            )
            ticket_b = pool.submit(fig1_matrix(), METRICS)
            result_b = ticket_b.result()
            result_a = ticket_a.result()
        assert result_b.rows == fig1_serial.rows
        assert result_b.stats.failed_cells == 0
        assert result_a.rows == fig1_serial.rows

    def test_workers_exit_when_parent_is_killed(self):
        # A parent killed outright sends its workers no ``stop``: they
        # must notice on their own and exit.  The test starts one parent
        # process, which starts two workers.
        parent = subprocess.Popen(
            [sys.executable, "-c", _BOOT_POOL_AND_WAIT],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": _SRC},
            text=True,
        )
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 60.0)
            assert ready, "pool parent never reported its workers"
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(map(_running, pids))
        finally:
            parent.kill()
            parent.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids)), "workers outlived their parent"

    @needs_procfs
    def test_workers_exit_when_serve_is_sigtermed(self, tmp_path):
        config = tmp_path / "server.json"
        config.write_text(json.dumps({
            "format": "fppn-server", "version": 1, "port": 0, "workers": 2,
        }))
        ready = tmp_path / "addr"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(config),
             "--ready-file", str(ready)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        try:
            deadline = time.monotonic() + 60.0
            while not ready.exists() or not ready.read_text().endswith("\n"):
                assert server.poll() is None, "repro serve exited early"
                assert time.monotonic() < deadline, "repro serve never ready"
                time.sleep(0.05)
            address = ready.read_text().strip()
            with ServiceClient.from_address(address) as client:
                # Two schedule keys: both workers boot and serve a group.
                client.run_sweep(fig1_matrix(), METRICS)
            pids = _child_worker_pids(server.pid)
            assert len(pids) == 2 and all(map(_running, pids))
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
        _assert_gone_within(pids, 10.0)

    @needs_procfs
    def test_a_busy_worker_exits_when_its_parent_is_killed(self):
        parent = subprocess.Popen(
            [sys.executable, "-c", _BUSY_WORKER_PARENT],
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 60.0)
            assert ready, "pool parent never reported its worker"
            [pid] = [int(pid) for pid in parent.stdout.readline().split()]
            assert _running(pid) and _child_worker_pids(parent.pid) == [pid]
        finally:
            parent.kill()
            parent.wait(timeout=30)
        _assert_gone_within([pid], 10.0)


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Boots a 2-worker pool, prints the worker pids, then waits to be killed.
_BOOT_POOL_AND_WAIT = """
import time
from repro import ScenarioMatrix
from repro.apps import fig1_scenario
from repro.experiment import SweepPool

pool = SweepPool(workers=2)
pool.submit(
    ScenarioMatrix(fig1_scenario(n_frames=1), {"processors": [2, 3]}),
    ("makespan",),
).result()
print(*(slot.process.pid for slot in pool._slots), flush=True)
time.sleep(120)
"""


def _running(pid):
    """True while *pid* exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _child_worker_pids(parent_pid):
    """Pids of the pool workers *parent_pid* spawned (from procfs)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                command = cmdline.read()
        except (OSError, ValueError):
            continue
        if ppid == parent_pid and b"spawn_main" in command:
            pids.append(int(entry))
    return pids


def _assert_gone_within(pids, seconds):
    deadline = time.monotonic() + seconds
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not any(map(_running, pids)), "workers outlived their parent"


#: Boots a 1-worker pool on a group that sleeps for two minutes, prints
#: the worker's pid once it is inside that group, then waits to be killed.
_BUSY_WORKER_PARENT = """
import time
from repro import FaultPlan, ScenarioMatrix
from repro.apps import fig1_scenario
from repro.experiment import SweepPool

pool = SweepPool(workers=1)
pool.submit(
    ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [0]}),
    ("makespan",), faults=FaultPlan(delay_at={0: (120.0, 1)}),
)
while not (pool._core.slots and pool._core.slots[0].ready):
    pool.pump_once()
time.sleep(1.0)  # the worker decodes its group and sleeps in the delay
print(pool._slots[0].process.pid, flush=True)
time.sleep(120)
"""


# ---------------------------------------------------------------------------
# callback / cancel / stats regressions (ISSUE 8 bugfixes)
# ---------------------------------------------------------------------------
class TestCallbackAndCancelRegressions:
    def test_raising_on_row_surfaces_but_never_wedges(self, fig1_serial):
        # Regression: a raising on_row used to escape after the group
        # left its slot but before _finish_group ran — the group was
        # stranded (neither pending nor on a slot), outstanding never
        # reached 0 and ticket.result() pumped forever.
        def exploding(row):
            raise RuntimeError("sink exploded")

        with SweepPool(workers=2) as pool:
            ticket = pool.submit(fig1_matrix(), METRICS, on_row=exploding)
            # The row stream is data, not telemetry: the sink error
            # surfaces to the caller ...
            with pytest.raises(RuntimeError, match="sink exploded"):
                ticket.result()
            # ... but only after the group's bookkeeping finished, so
            # result() completes within one retry per remaining group
            # instead of spinning forever on the stranded group.
            result = None
            for _ in range(4):  # bounded: >= number of groups
                try:
                    result = ticket.result()
                    break
                except RuntimeError:
                    continue
            assert result is not None and ticket.done
            # No row was lost: metrics merge before the sink runs.
            assert result.rows == fig1_serial.rows
            assert result.stats.failed_cells == 0
            # The pool survived the buggy sink: next submission is clean.
            again = pool.submit(fig1_matrix(), METRICS).result()
            assert again.rows == fig1_serial.rows

    def test_explicit_cells_subset_counts_submitted_cells(self):
        # Regression: stats.cells reported len(matrix) even when an
        # explicit cells= subset (a resubmission, say) was submitted.
        matrix = fig1_matrix()
        subset = list(matrix.cells())[:2]
        with SweepPool(workers=2) as pool:
            result = pool.submit(matrix, METRICS, cells=subset).result()
        assert result.stats.cells == len(subset) == 2
        assert len(result.rows) == 2

    def test_cancel_after_full_dispatch_changes_nothing(self, fig1_serial):
        # Regression: cancelling a fully-dispatched submission withdrew
        # nothing and returned False, yet still set cancelled/interrupted
        # — a sweep whose every row completed reported itself interrupted.
        with SweepPool(workers=2) as pool:
            ticket = pool.submit(fig1_matrix(), METRICS)
            pool.pump_once()  # both groups on slots
            assert not pool._core.pending
            assert not ticket.cancel()  # nothing left to withdraw
            assert not ticket.cancelled
            result = ticket.result()
        assert result.rows == fig1_serial.rows
        assert not result.stats.interrupted
        assert not ticket.cancelled


# ---------------------------------------------------------------------------
# the on_progress telemetry stream (PoolEvent milestones)
# ---------------------------------------------------------------------------
class TestProgressEvents:
    def test_milestones_for_a_clean_sweep(self):
        events = []
        with SweepPool(workers=2) as pool:
            pool.submit(
                fig1_matrix(), METRICS, on_progress=events.append
            ).result()
        kinds = [e.kind for e in events]
        assert kinds[0] == "enqueued"
        assert kinds.count("dispatch") == 2
        assert kinds.count("group-done") == 2
        assert kinds[-1] == "finished"
        enq = events[0]
        assert enq.cells == len(fig1_matrix()) and enq.groups == 2
        # group-done precedes finished (causally ordered stream).
        assert kinds.index("group-done") < kinds.index("finished")

    def test_store_hits_and_raising_sink_are_best_effort(self):
        store = MemorySweepStore()
        run_sweep(fig1_matrix(), metrics=METRICS, store=store)

        def exploding(event):
            raise RuntimeError("telemetry must never break the sweep")

        with SweepPool(workers=2) as pool:
            # A raising on_progress sink is swallowed entirely.
            result = pool.submit(
                fig1_matrix(), METRICS, store=store, on_progress=exploding
            ).result()
            assert result.stats.store_hits == len(fig1_matrix())

            events = []
            ticket = pool.submit(
                fig1_matrix(), METRICS, store=store, on_progress=events.append
            )
            assert ticket.done  # all hits resolved at submit
            kinds = [e.kind for e in events]
            assert kinds[0] == "store-hits"
            assert events[0].cells == len(fig1_matrix())
            assert kinds[-1] == "finished"
            assert "dispatch" not in kinds


# ---------------------------------------------------------------------------
# fair scheduling across client tags (ISSUE 9)
# ---------------------------------------------------------------------------
class TestFairScheduling:
    def test_round_robin_across_client_tags(self):
        """Tagged clients take turns: a one-group submission from a
        second client dispatches between the first client's groups
        instead of queueing behind all of them."""
        events = []

        def sink(tag):
            return lambda e: events.append((tag, e.kind))

        with SweepPool(workers=1) as pool:
            big = pool.submit(
                fms_2x3_matrix(), METRICS, client="alice",
                on_progress=sink("alice"),
            )
            small = pool.submit(
                ScenarioMatrix(
                    fig1_scenario(n_frames=1), {"jitter_seed": [0, 1]}
                ),
                METRICS, client="bob", on_progress=sink("bob"),
            )
            big_result = big.result()
            small_result = small.result()
        dispatches = [tag for tag, kind in events if kind == "dispatch"]
        assert dispatches == ["alice", "bob", "alice"]
        assert len(big_result.rows) == 6 and not big_result.failed_rows
        assert len(small_result.rows) == 2 and not small_result.failed_rows

    def test_untagged_submissions_stay_fifo(self):
        """No tags (every pre-service caller) degenerates to the old
        FIFO-over-groups order — all of the first submission's groups
        dispatch before any of the second's."""
        events = []

        def sink(tag):
            return lambda e: events.append((tag, e.kind))

        with SweepPool(workers=1) as pool:
            first = pool.submit(
                fms_2x3_matrix(), METRICS, on_progress=sink("first")
            )
            second = pool.submit(
                fig1_matrix(), METRICS, on_progress=sink("second")
            )
            first.result()
            second.result()
        dispatches = [tag for tag, kind in events if kind == "dispatch"]
        assert dispatches == ["first", "first", "second", "second"]

    def test_pump_once_drives_to_completion(self):
        """The cooperative drive hook makes the same progress as
        ``result()``'s internal loop, one bounded cycle at a time."""
        with SweepPool(workers=1) as pool:
            ticket = pool.submit(fig1_matrix(), METRICS)
            assert pool.busy
            for _ in range(10_000):
                if ticket.done:
                    break
                pool.pump_once()
            assert ticket.done
            assert not pool.busy
            result = ticket.result()  # already finished: no more driving
        assert len(result.rows) == len(fig1_matrix())


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
