"""The library surface the ``perfbench`` benchmark drives, kept callable.

``perfbench/`` is run outside the test suite, so a rename in ``src/`` it
depends on would only show when the benchmark breaks.  These tests call
what it calls: ``perfbench/replay.py``'s stage-by-stage cell replay, and
the module attributes ``perfbench/inproc.py`` swaps for timing wrappers
under ``--trace 1``.
"""

import importlib
import importlib.util
import math
import pathlib

import pytest

from repro.apps import fig1_scenario
from repro.experiment import DEFAULT_METRICS, TIMING_METRICS

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

#: ``(module, attribute)`` pairs ``inproc.py`` wraps, under the alias it
#: imports the module as.
WRAPPED = (
    ("exp_mod", "repro.experiment.experiment", "derive_task_graph"),
    ("exp_mod", "repro.experiment.experiment", "find_feasible_schedule"),
    ("exp_mod", "repro.experiment.experiment", "run_static_order"),
    ("opt_mod", "repro.scheduling.optimizer", "list_schedule"),
)


@pytest.fixture(scope="module")
def replay_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_replay", PERFBENCH / "replay.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scenario, metrics", [
    (fig1_scenario(n_frames=2, jitter_seed=7), DEFAULT_METRICS),
    (fig1_scenario(n_frames=2, jitter_seed=7, records_only=True),
     TIMING_METRICS),
], ids=["jitter-default-metrics", "records-only-timing-metrics"])
@pytest.mark.parametrize("cold", [True, False])
def test_replay_cell_times_every_stage(replay_module, scenario, metrics, cold):
    stages = replay_module.replay_cell(scenario, metrics, cold)
    for stage in replay_module.RUNTIME_STAGES + ("full",):
        value = stages[stage]
        assert math.isfinite(value) and value >= 0, (stage, value)
    assert stages["jobs"] > 0
    split = replay_module.runtime_split([stages], 1.0)
    assert set(split) == set(replay_module.RUNTIME_STAGES)


@pytest.mark.parametrize("alias, module, attr", WRAPPED)
def test_traced_module_attributes_exist(alias, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
    # The list above mirrors inproc.py's wrap calls.
    source = (PERFBENCH / "inproc.py").read_text()
    assert f"import {module} as {alias}" in source
    assert f'tracer.wrap({alias}, "{attr}"' in source
