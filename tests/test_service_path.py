"""The served path's parent-side work: store keys computed with one
stimulus encoding per submission (byte-identical to the one-shot hash),
finished tickets releasing their decoded inputs, a busy schedule key's
group running on an idle slot, and ``SweepPool.wake`` ending a blocked
pump so a driver reads its commands at once."""

import asyncio
import gc
import json
import threading
import time
import weakref

import pytest

from repro import FaultPlan, MemorySweepStore, ScenarioMatrix, run_sweep
from repro.apps import fft_scenario, fig1_scenario, fms_scenario
from repro.core.platform import Platform
from repro.experiment import SweepPool
from repro.experiment import pool as pool_mod
from repro.experiment.pool import _LRU, _PoolGroup, _WorkerSlot
from repro.experiment.pool import _encode_service_group
from repro.experiment.store import ScenarioKeys, store_key
from repro.experiment.sweep import SweepStats, _SweepBook
from repro.io import json_io
from repro.io.json_io import (
    content_hash,
    matrix_from_dict,
    matrix_to_dict,
    scenario_to_dict,
    stimulus_to_dict,
)
from repro.service import SweepOrchestrator

METRICS = ("executed_jobs", "missed_jobs", "makespan")


def _matrices():
    """fig1, fft, FMS and a big/little FMS matrix, each over one stimulus."""
    return {
        "fig1": ScenarioMatrix(
            fig1_scenario(n_frames=2),
            {"jitter_seed": [0, 1], "processors": [2, 3]},
        ),
        "fft": ScenarioMatrix(
            fft_scenario(n_frames=2), {"jitter_seed": [5, 6]}
        ),
        "fms": ScenarioMatrix(
            fms_scenario(n_frames=3),
            {"jitter_seed": [1, 2, 3, 4], "processors": [1, 2]},
        ),
        "big_little": ScenarioMatrix(
            fms_scenario(n_frames=1),
            {"platform": [Platform.of(("big", 1), ("little", 1, "1/2"))],
             "jitter_seed": [0, 1]},
        ),
    }


# ---------------------------------------------------------------------------
# one stimulus encoding per submission
# ---------------------------------------------------------------------------
class TestStoreKeys:
    @pytest.mark.parametrize("name", ["fig1", "fft", "fms", "big_little"])
    def test_keys_equal_the_one_shot_hash(self, name):
        cells = list(_matrices()[name].cells())
        keys = ScenarioKeys()
        for cell in cells:
            assert cell.scenario.stimulus is not None
            expected = content_hash(scenario_to_dict(cell.scenario))
            assert keys.scenario_hash(cell.scenario) == expected
            assert keys.store_key(cell.scenario) == expected
            assert store_key(cell.scenario) == expected

    def test_stimulus_free_and_code_bearing_scenarios(self):
        bare = fig1_scenario(n_frames=1).replace(stimulus=None)
        keys = ScenarioKeys()
        assert keys.scenario_hash(bare) == content_hash(scenario_to_dict(bare))
        code = fig1_scenario(n_frames=1).replace(workload=lambda: None)
        assert keys.store_key(code) is None

    def test_one_encoding_per_submission(self, monkeypatch):
        matrix = _matrices()["fms"]
        cells = list(matrix.cells())
        encoded = []
        original = json_io.stimulus_to_dict

        def spy(stimulus):
            encoded.append(stimulus)
            return original(stimulus)

        monkeypatch.setattr(json_io, "stimulus_to_dict", spy)
        book = _SweepBook(
            {}, cells, METRICS, False, SweepStats(cells=len(cells)),
            store=MemorySweepStore(),
        )
        assert book.resolve_hits() == cells  # an empty store: all misses
        groups = {}
        for cell in cells:
            groups.setdefault(cell.scenario.processors, []).append(cell)
        payloads = [
            _encode_service_group(group, METRICS, keys=book.keys)
            for group in groups.values()
        ]
        # Every key of the submission and both groups' stimulus-pool
        # hashes came from one encoding of the shared stimulus.
        assert len(encoded) == 1
        monkeypatch.setattr(json_io, "stimulus_to_dict", original)
        for cell in cells:
            assert book._skeys[cell.index] == content_hash(
                scenario_to_dict(cell.scenario)
            )
        stimulus = matrix.base.stimulus
        for group, payload in zip(groups.values(), payloads):
            assert payload == _encode_service_group(group, METRICS)
            data = json.loads(payload)
            assert data["stimulus_pool"][0]["hash"] == content_hash(
                stimulus_to_dict(stimulus)
            )


# ---------------------------------------------------------------------------
# finished tickets release their inputs
# ---------------------------------------------------------------------------
def _decoded_matrix():
    """A matrix as the server hands it over: decoded from its document."""
    return matrix_from_dict(matrix_to_dict(ScenarioMatrix(
        fig1_scenario(n_frames=1), {"jitter_seed": [0, 1]},
    )))


async def _drain(orch, tid):
    return [item async for item in orch.stream(tid)]


class TestFinishedTicketRelease:
    def test_finished_ticket_drops_its_decoded_stimulus(self):
        serial = run_sweep(_decoded_matrix(), METRICS)

        async def submit_and_wait(orch):
            matrix = _decoded_matrix()
            ref = weakref.ref(matrix.base.stimulus)
            tid = await orch.submit(matrix, METRICS, client="gc")
            del matrix
            while not orch.status(tid).done:
                await asyncio.sleep(0.01)
            return tid, ref

        with SweepOrchestrator(workers=1) as orch:
            tid, ref = asyncio.run(submit_and_wait(orch))
            gc.collect()
            assert ref() is None
            # The record still answers status, stream and cancel.
            status = orch.status(tid)
            assert status.state == "done" and status.done
            assert status.rows_streamed == len(serial.rows)
            items = asyncio.run(_drain(orch, tid))
            kind, final = items[-1]
            assert kind == "done"
            assert final.rows == serial.rows  # bit-identical
            rows = [payload for kind, payload in items if kind == "row"]
            assert len(rows) == len(serial.rows)
            assert asyncio.run(orch.cancel(tid)) is False
            assert orch.status(tid).state == "done"


# ---------------------------------------------------------------------------
# affinity is a preference, not a wait
# ---------------------------------------------------------------------------
def _slot(index, *keys):
    slot = _WorkerSlot(index, warm=_LRU(8))
    for key in keys:
        slot.warm.fetch(key, lambda: None)
    return slot


def _group(gid, key):
    return _PoolGroup(gid=gid, submission=None, cells=[], key=key)


class TestRouting:
    def test_busy_key_runs_on_an_idle_slot(self):
        base = fig1_scenario(n_frames=1)
        first = ScenarioMatrix(base, {"jitter_seed": [0, 1]})
        second = ScenarioMatrix(base, {"jitter_seed": [2, 3]})
        dispatched = []

        def on_progress(event):
            if event.kind == "dispatch":
                dispatched.append(event.detail)

        with SweepPool(workers=2) as pool:
            # Warm both slots, one schedule key each.
            pool.submit(
                ScenarioMatrix(base, {"processors": [2, 3]}), METRICS
            ).result()
            assert len(pool._slots) == 2
            # Two queued submissions of one key (processors=2): the
            # second does not wait for the first's warm slot.
            a = pool.submit(first, METRICS, on_progress=on_progress)
            b = pool.submit(second, METRICS, on_progress=on_progress)
            got_a, got_b = a.result(), b.result()
        assert sorted(dispatched) == ["slot 0", "slot 1"]
        assert got_a.rows == run_sweep(first, METRICS).rows
        assert got_b.rows == run_sweep(second, METRICS).rows
        assert got_a.stats.warm_group_hits == 1

    def test_warm_idle_slot_first(self):
        pool = SweepPool(workers=2)
        try:
            pool._slots = [_slot(0, "a"), _slot(1, "b")]
            assert pool._worker_for(_group(0, "b")) is pool._slots[1]
            pool._slots[1].current = _group(9, "c")
            # Its warm slot busy, the group takes the idle one.
            assert pool._worker_for(_group(0, "b")) is pool._slots[0]
            pool._slots[0].current = _group(8, "d")
            assert pool._worker_for(_group(0, "b")) is None
        finally:
            pool._slots = []
            pool.close()

    def test_new_key_avoids_a_slot_a_pending_group_is_warm_on(self):
        pool = SweepPool(workers=2)
        try:
            pool._slots = [_slot(0, "b"), _slot(1, "a")]
            new, waiting = _group(0, "c"), _group(1, "b")
            pool._pending = [new, waiting]
            assert pool._worker_for(new) is pool._slots[1]
            # With every idle slot claimed, any idle slot will do.
            pool._slots[1].current = _group(9, "x")
            assert pool._worker_for(new) is pool._slots[0]
        finally:
            pool._slots, pool._pending = [], []
            pool.close()


# ---------------------------------------------------------------------------
# wake on commands
# ---------------------------------------------------------------------------
class TestWake:
    def test_wake_ends_a_blocked_pump(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_POLL_INTERVAL", 30.0)
        with SweepPool(workers=1) as pool:
            timer = threading.Timer(0.2, pool.wake)
            timer.start()
            t0 = time.monotonic()
            pool.pump_once()
            elapsed = time.monotonic() - t0
            timer.join()
        assert elapsed < 2.0

    def test_wakes_before_the_pump_are_kept_and_coalesce(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_POLL_INTERVAL", 30.0)
        with SweepPool(workers=1) as pool:
            for _ in range(100_000):  # far beyond the socket buffer
                pool.wake()
            t0 = time.monotonic()
            pool.pump_once()
            assert time.monotonic() - t0 < 2.0
        pool.wake()  # closed: a no-op

    def test_orchestrator_reads_a_submit_while_a_group_runs(
        self, monkeypatch
    ):
        monkeypatch.setattr(pool_mod, "_POLL_INTERVAL", 30.0)
        slow = ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [0]})
        quick = ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [1]})

        async def scenario(orch):
            first = await orch.submit(
                slow, METRICS, faults=FaultPlan(delay_at={0: (4.0, 1)})
            )
            await asyncio.sleep(1.5)  # the worker boots; the group sleeps
            t0 = time.monotonic()
            second = await orch.submit(quick, METRICS)
            accepted = time.monotonic() - t0
            results = [
                (await _drain(orch, tid))[-1][1] for tid in (first, second)
            ]
            return accepted, results

        with SweepOrchestrator(workers=1) as orch:
            accepted, results = asyncio.run(scenario(orch))
        assert accepted < 2.0
        assert [r.rows for r in results] == [
            run_sweep(slow, METRICS).rows, run_sweep(quick, METRICS).rows,
        ]
