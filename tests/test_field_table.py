"""The Scenario field table against every place a field is handled.

Each Scenario field is declared once, in ``scenario._FIELDS``: its rule
runs in ``__post_init__`` (and so in ``replace``) and on matrix axis
values, and its codec is the ``fppn-scenario`` document's.  These tests
take every field through each of those paths, and pin the malformed
values that were accepted or coerced before the table existed, in
scenarios, fault plans and pool options alike.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

from repro.apps import fig1_scenario
from repro.cli import main
from repro.core.platform import Platform
from repro.errors import FormatError, ModelError
from repro.experiment import FaultPlan, ScenarioMatrix, SweepPool, run_sweep
from repro.experiment.scenario import _FIELDS, Scenario
from repro.io.json_io import (
    fault_plan_from_dict,
    matrix_from_dict,
    matrix_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.runtime import OverheadModel

BASE = Scenario(workload="fig1", wcet=25)

#: field -> (a valid non-default value, a value its rule refuses, that
#: value's JSON spelling in a document)
CASES = {
    "workload": ("fft", 5, 5),
    "wcet": ({"A": "1/3", "B": {"big": 1, "little": 2}}, "x", "x"),
    "processors": (3, "two", "two"),
    "n_frames": (4, 2.5, 2.5),
    "horizon": (Fraction(1, 2), -1, "x!"),
    "heuristics": (("alap", "asap"), "alap", "alap"),
    "execution_time": ({"A": Fraction(1, 2)}, [1, 2], [1, 2]),
    "jitter_seed": (7, "7", "7"),
    "jitter_low": (0.25, True, True),
    "overheads": (OverheadModel.mppa_like(), "nope", {"$frac": "1/2"}),
    "stimulus": (fig1_scenario().stimulus, 42, 42),
    "records_only": (True, "no", "no"),
    "collect_records": (False, None, None),
    "collect_trace": (False, None, None),
    "label": ("tag", 5, 7),
    "platform": (Platform.of(("big", 1), ("little", 2, "1/2")), "x", "x"),
}


def test_the_table_lists_exactly_the_dataclass_fields():
    names = [field.name for field in _FIELDS]
    assert names == [field.name for field in dataclasses.fields(Scenario)]
    assert sorted(CASES) == sorted(names)


@pytest.mark.parametrize("name", sorted(CASES))
class TestEveryField:
    def test_a_valid_value_round_trips(self, name):
        scenario = BASE.replace(**{name: CASES[name][0]})
        assert scenario != BASE
        assert scenario.replace() == scenario
        text = json.dumps(scenario_to_dict(scenario))
        back = scenario_from_dict(json.loads(text))
        assert back == scenario
        assert json.dumps(scenario_to_dict(back)) == text

    def test_a_bad_value_is_refused_in_process(self, name):
        with pytest.raises(ModelError, match=f"^{name}"):
            BASE.replace(**{name: CASES[name][1]})

    def test_a_bad_value_is_refused_naming_the_field_when_decoded(self, name):
        data = scenario_to_dict(BASE)
        data[name] = CASES[name][2]
        with pytest.raises(FormatError, match=f"field '{name}'"):
            scenario_from_dict(json.loads(json.dumps(data)))

    def test_a_bad_axis_value_is_refused_when_the_matrix_is_built(self, name):
        with pytest.raises(ModelError, match=f"axis '{name}'"):
            ScenarioMatrix(BASE, {name: [CASES[name][0], CASES[name][1]]})


# ---------------------------------------------------------------------------
# values accepted, coerced or crashing before the table
# ---------------------------------------------------------------------------
def test_a_bare_heuristic_name_is_no_portfolio():
    # It used to be stored as ('a', 'l', 'a', 'p').
    with pytest.raises(ModelError, match="heuristics must be a list"):
        BASE.replace(heuristics="alap")
    with pytest.raises(ModelError, match="axis 'heuristics'"):
        ScenarioMatrix(BASE, {"heuristics": ["alap"]})
    document = matrix_to_dict(ScenarioMatrix(BASE, {"processors": [1]}))
    document["axes"] = {"heuristics": ["alap"]}
    with pytest.raises(FormatError, match="axis 'heuristics'"):
        matrix_from_dict(document)
    assert BASE.replace(heuristics=["alap"]).heuristics == ("alap",)


@pytest.mark.parametrize("name, value", [
    ("records_only", "no"), ("collect_trace", None), ("label", 5),
])
def test_flags_and_labels_are_checked_in_process(name, value):
    with pytest.raises(ModelError, match=f"^{name} must be"):
        BASE.replace(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("records_only", "no"), ("collect_records", 0), ("heuristics", [1, 2]),
    ("label", 7), ("jitter_seed", "7"),
])
def test_documents_are_not_coerced(name, value):
    data = scenario_to_dict(BASE)
    data[name] = value
    with pytest.raises(FormatError, match=f"field '{name}' must be"):
        scenario_from_dict(data)


def test_an_axis_value_is_refused_when_the_matrix_is_built_or_decoded():
    with pytest.raises(ModelError, match="axis 'processors' must be an int"):
        ScenarioMatrix(BASE, {"processors": ["two"]})
    document = matrix_to_dict(ScenarioMatrix(BASE, {"processors": [2]}))
    document["axes"]["processors"] = ["two"]
    with pytest.raises(FormatError, match="axis 'processors'"):
        matrix_from_dict(document)


def test_axis_values_stay_verbatim_in_the_cells():
    matrix = ScenarioMatrix(BASE, {"heuristics": [["alap"]], "wcet": [7]})
    [cell] = matrix.cells()
    assert cell.coords == (("heuristics", ["alap"]), ("wcet", 7))
    assert cell.scenario.heuristics == ("alap",)
    assert cell.scenario.wcet == Fraction(7)


def test_cross_field_rules_stay():
    platform = Platform.of(("big", 1), ("little", 2))
    assert BASE.replace(platform=platform).processors == 3
    with pytest.raises(ModelError, match="mutually exclusive"):
        BASE.replace(execution_time={"A": 1}, jitter_seed=0)


def test_stage_keys_and_the_hash_follow_the_table():
    platform = Platform.of(("big", 1), ("little", 2))
    assert BASE.derivation_key() == ("fig1", Fraction(25), None)
    assert BASE.schedule_key() == ("fig1", Fraction(25), None, 1, None)
    assert BASE.replace(platform=platform).schedule_key() == (
        "fig1", Fraction(25), None, 3, None, platform,
    )
    scenario = fig1_scenario()
    assert hash(scenario) == hash(scenario.replace())


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("document, field", [
    ({"raise_at": "12"}, "'raise_at'"),
    ({"raise_at": [True]}, "'raise_at'"),
    ({"interrupt_at": [-1]}, "'interrupt_at'"),
    ({"kill_at": [1]}, "'kill_at'"),
    ({"kill_at": [[1]]}, "'kill_at'"),
    ({"kill_at": {"5": 1}}, "'kill_at'"),
    ({"delay_at": [[0, "1", 1]]}, "'delay_at'"),
    ({"raise_at": [1], "raise": [2]}, "(s): raise"),
    ([1, 2], "fault plan document"),
])
def test_a_malformed_fault_plan_document_is_refused(document, field):
    with pytest.raises(FormatError, match="fault plan") as info:
        fault_plan_from_dict(document)
    assert field in str(info.value)


def test_fault_plans_are_checked_in_process():
    with pytest.raises(ModelError, match="raise_at must be a list"):
        FaultPlan(raise_at="12")
    with pytest.raises(ModelError, match="kill_at entries"):
        FaultPlan(kill_at=[1])
    assert fault_plan_from_dict({"kill_at": [[2, 3]]}) == FaultPlan(
        kill_at={2: 3}
    )


# ---------------------------------------------------------------------------
# pool options: refused before any worker or cell runs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("options", [
    {"group_timeout": "x"}, {"group_timeout": -1.0}, {"group_timeout": 0},
    {"workers": True}, {"workers": 2.5}, {"workers": "2"},
    {"max_retries": 1.5}, {"retry_backoff": -0.1},
    {"max_cached_groups": 0}, {"max_cached_payloads": True},
])
def test_pool_options_are_checked(options):
    (name,) = options
    with pytest.raises(ModelError, match=f"^{name} must be"):
        SweepPool(**options)


@pytest.mark.parametrize("options", [
    {"group_timeout": "x"}, {"workers": True}, {"max_retries": 1.5},
    {"retry_backoff": "slow"},
])
def test_run_sweep_checks_the_same_options(options):
    (name,) = options
    with pytest.raises(ModelError, match=f"^{name} must be"):
        run_sweep(ScenarioMatrix(BASE, {}), **options)


def test_a_sweep_config_with_a_bad_axis_exits_two(tmp_path, capsys):
    document = matrix_to_dict(ScenarioMatrix(fig1_scenario(), {
        "processors": [2],
    }))
    document["axes"]["processors"] = ["two"]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(document))
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", str(path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "axis 'processors'" in err
