"""Every wait ends: a worker that cannot boot fails its group fast with
``WorkerBootError``; a finished ticket streams its terminal item again;
no orchestrator command waits on a closed orchestrator or on one whose
loop callbacks failed driving the pool.  Each case is bounded by a few
seconds."""

import asyncio
import os
import subprocess
import sys
import time

import pytest

import repro
from repro import FaultPlan, ScenarioMatrix, run_sweep
from repro.apps import fig1_scenario
from repro.errors import ServiceError, SweepError
from repro.experiment import SweepPool
from repro.service import SweepOrchestrator

METRICS = ("executed_jobs", "makespan")

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def fig1_matrix():
    return ScenarioMatrix(
        fig1_scenario(n_frames=1), {"processors": [2, 3]}
    )


async def _drain(orch, tid):
    return [item async for item in orch.stream(tid)]


#: A script with no ``__main__`` guard: each spawned worker re-runs it
#: while bootstrapping, tries to start a process of its own and dies
#: before it reports ready.
_UNGUARDED_SCRIPT = """
from repro import ScenarioMatrix
from repro.apps import fig1_scenario
from repro.experiment import SweepPool

with SweepPool(workers=1) as pool:
    result = pool.submit(
        ScenarioMatrix(fig1_scenario(n_frames=1), {"processors": [2, 3]}),
        ("makespan",),
    ).result()
print(sorted({row.error.error_type for row in result.failed_rows}),
      len(result.failed_rows), result.stats.retries, flush=True)
"""


def test_a_worker_that_cannot_boot_fails_fast(tmp_path):
    script = tmp_path / "unguarded_sweep.py"
    script.write_text(_UNGUARDED_SCRIPT)
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": _SRC},
    )
    elapsed = time.monotonic() - t0
    assert done.returncode == 0, done.stderr[-2000:]
    # Both groups fail with the boot error, none is retried, and the
    # first death fails the pending group too: one doomed child boots.
    assert done.stdout.split("\n")[0] == "['WorkerBootError'] 2 0"
    assert done.stderr.count("Traceback (most recent call last)") == 1
    assert elapsed < 20.0


class TestTerminalItem:
    def test_a_finished_ticket_streams_its_result_again(self):
        async def scenario():
            async with SweepOrchestrator(workers=1) as orch:
                tid = await orch.submit(fig1_matrix(), METRICS)
                first = await asyncio.wait_for(_drain(orch, tid), 30)
                again = await asyncio.wait_for(_drain(orch, tid), 3)
                return first, again

        first, again = asyncio.run(scenario())
        assert first[-1][0] == "done"
        assert again == [first[-1]]
        assert first[-1][1].rows == run_sweep(fig1_matrix(), METRICS).rows

    def test_a_failed_ticket_raises_its_error_again(self):
        async def scenario():
            async with SweepOrchestrator(workers=1) as orch:
                tid = await orch.submit(
                    fig1_matrix(), METRICS, on_error="raise",
                    faults=FaultPlan(raise_at=(1,)),
                )
                errors = []
                for bound in (30, 3):
                    with pytest.raises(SweepError) as info:
                        await asyncio.wait_for(_drain(orch, tid), bound)
                    errors.append(info.value)
                return errors

        first, again = asyncio.run(scenario())
        assert again is first


class TestDeadDriver:
    def test_cancel_after_close_raises_at_once(self):
        async def scenario():
            orch = SweepOrchestrator(workers=1)
            tid = await orch.submit(fig1_matrix(), METRICS)
            await orch.close()
            t0 = time.monotonic()
            with pytest.raises(ServiceError, match="orchestrator is closed"):
                await asyncio.wait_for(orch.cancel(tid), 3)
            with pytest.raises(ServiceError, match="orchestrator is closed"):
                await asyncio.wait_for(orch.submit(fig1_matrix()), 3)
            assert time.monotonic() - t0 < 1.0
            # The cut ticket re-streams its partial result.
            kind, partial = (await asyncio.wait_for(_drain(orch, tid), 3))[-1]
            assert kind == "done" and partial.stats.interrupted
            assert orch.status(tid).state == "cancelled"
            await orch.close()  # idempotent

        asyncio.run(scenario())

    def test_a_crashed_driver_fails_every_command(self, monkeypatch):
        def exploding_receive(pool, index):
            raise RuntimeError("receive exploded")

        # The first worker message (its ready) reaches the loop's reader
        # callback, whose receive raises: the driving failed.
        monkeypatch.setattr(SweepPool, "_receive", exploding_receive)

        async def scenario():
            async with SweepOrchestrator(workers=1) as orch:
                tid = await orch.submit(fig1_matrix(), METRICS)
                with pytest.raises(ServiceError) as streamed:
                    await asyncio.wait_for(_drain(orch, tid), 30)
                t0 = time.monotonic()
                with pytest.raises(ServiceError) as cancelled:
                    await asyncio.wait_for(orch.cancel(tid), 3)
                with pytest.raises(ServiceError) as later:
                    await asyncio.wait_for(orch.submit(fig1_matrix()), 3)
                with pytest.raises(ServiceError) as again:
                    await asyncio.wait_for(_drain(orch, tid), 3)
                assert time.monotonic() - t0 < 1.0
                assert orch.status(tid).state == "failed"
                return streamed.value, cancelled.value, later.value, again.value

        errors = asyncio.run(scenario())
        for error in errors:
            assert "failed driving its pool" in str(error)
            assert isinstance(error.__cause__, RuntimeError)
