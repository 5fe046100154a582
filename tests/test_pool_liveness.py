"""Every wait ends: a worker that cannot boot fails its group fast with
``WorkerBootError``; a finished ticket streams its terminal item again;
no orchestrator command waits on a closed or dead driver thread.  Each
case is bounded by a few seconds."""

import asyncio
import os
import subprocess
import sys
import threading
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
    # Both groups fail with the boot error, none is retried.
    assert done.stdout.split("\n")[0] == "['WorkerBootError'] 2 0"
    assert elapsed < 20.0


class TestTerminalItem:
    def test_a_finished_ticket_streams_its_result_again(self):
        async def scenario(orch):
            tid = await orch.submit(fig1_matrix(), METRICS)
            first = await asyncio.wait_for(_drain(orch, tid), 30)
            again = await asyncio.wait_for(_drain(orch, tid), 3)
            return first, again

        with SweepOrchestrator(workers=1) as orch:
            first, again = asyncio.run(scenario(orch))
        assert first[-1][0] == "done"
        assert again == [first[-1]]
        assert first[-1][1].rows == run_sweep(fig1_matrix(), METRICS).rows

    def test_a_failed_ticket_raises_its_error_again(self):
        async def scenario(orch):
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

        with SweepOrchestrator(workers=1) as orch:
            first, again = asyncio.run(scenario(orch))
        assert again is first


class TestDeadDriver:
    def test_cancel_after_close_raises_at_once(self):
        orch = SweepOrchestrator(workers=1)
        tid = asyncio.run(orch.submit(fig1_matrix(), METRICS))
        orch.close_sync()
        t0 = time.monotonic()
        with pytest.raises(ServiceError, match="orchestrator is closed"):
            asyncio.run(asyncio.wait_for(orch.cancel(tid), 3))
        with pytest.raises(ServiceError, match="orchestrator is closed"):
            asyncio.run(asyncio.wait_for(orch.submit(fig1_matrix()), 3))
        assert time.monotonic() - t0 < 1.0
        orch.close_sync()  # idempotent

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_a_crashed_driver_fails_every_command(self, monkeypatch):
        entered, release = threading.Event(), threading.Event()

        def exploding_pump(pool):
            entered.set()
            release.wait(5)
            raise RuntimeError("pump exploded")

        monkeypatch.setattr(SweepPool, "pump_once", exploding_pump)

        async def scenario(orch):
            tid = await orch.submit(fig1_matrix(), METRICS)
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, entered.wait, 5)
            # Posted while the driver is inside the pump, then it dies.
            cancel = asyncio.ensure_future(orch.cancel(tid))
            await asyncio.sleep(0)
            release.set()
            with pytest.raises(ServiceError) as pending:
                await asyncio.wait_for(cancel, 3)
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as later:
                await asyncio.wait_for(orch.submit(fig1_matrix()), 3)
            with pytest.raises(ServiceError) as streamed:
                await asyncio.wait_for(_drain(orch, tid), 3)
            assert time.monotonic() - t0 < 1.0
            return pending.value, later.value, streamed.value

        with SweepOrchestrator(workers=1) as orch:
            errors = asyncio.run(scenario(orch))
        for error in errors:
            assert "driver thread died" in str(error)
            assert isinstance(error.__cause__, RuntimeError)
