"""Worker kills never wedge a resident pool: more workers than cores, a
kill fault in every group, several rounds — every submission must finish
with clean rows within a deadline.  A pool whose workers shared one reply
queue could lose its write lock with a killed worker and stop receiving
replies for good; the pump loop below turns that hang into a failure."""

import multiprocessing
import time

from repro import FaultPlan, ScenarioMatrix, run_sweep
from repro.apps import fig1_scenario
from repro.experiment import SweepPool

METRICS = ("executed_jobs", "makespan")
ROUNDS = 4
#: Generous against spawn cost (three workers respawned per round).
ROUND_DEADLINE_S = 60.0


def matrix():
    """Three schedule-key groups (processors 2 / 3 / 4) of two cells."""
    return ScenarioMatrix(
        fig1_scenario(n_frames=1),
        {"processors": [2, 3, 4], "jitter_seed": [0, 1]},
    )


def test_killed_workers_never_wedge_the_pool():
    clean = run_sweep(matrix(), METRICS)
    # The first cell of each group kills its worker once.
    kills = FaultPlan(kill_at={0: 1, 2: 1, 4: 1})
    with SweepPool(workers=3, retry_backoff=0.01) as pool:
        for _ in range(ROUNDS):
            ticket = pool.submit(matrix(), METRICS, faults=kills)
            deadline = time.monotonic() + ROUND_DEADLINE_S
            while not ticket.done:
                assert time.monotonic() < deadline, "pool stopped replying"
                pool.pump_once()
            result = ticket.result()
            assert result.rows == clean.rows
            assert result.stats.failed_cells == 0
            assert result.stats.retries == 3
    assert multiprocessing.active_children() == []
