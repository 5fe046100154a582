"""The stimulus's run memo is keyed by network structure, not identity.

Binding real sporadic arrivals to server-job slots depends only on the
arrival trace and the server specs (Prop. 4.1), and validating a trace
only on the sporadic generators' ``(period, burst)``.  So a stimulus
validates and binds once per network *structure*: later sweeps, which
build their network afresh, reuse both; a network whose sporadic period
or burst, user period or boundary rule differs gets its own.  The memo
holds no network, and jitter samplers — with the draw tables they keep
per keys column, which hold that column and no graph — live only as long
as the sweep that drew them.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.apps import example_fig1
from repro.core import ChannelKind, Network, Stimulus
from repro.core.events import SporadicGenerator
from repro.errors import EventError, ModelError
from repro.experiment import PipelineCache, ScenarioMatrix, run_sweep
from repro.experiment import scenario as scenario_module
from repro.runtime import JitterSampler, run_static_order
from repro.runtime.executor import MultiprocessorExecutor
from repro.runtime.static_order import ArrivalBinding
from repro.scheduling import list_schedule
from repro.taskgraph import derive_task_graph

METRICS = ("executed_jobs", "missed_jobs", "worst_lateness", "makespan")


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call is counted; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _network(
    sporadic_period=300, burst=2, user_period=100, sporadic_first=True
) -> Network:
    """A sensor (the user) + sink + sporadic config, parameterised."""
    net = Network("memo")
    net.add_periodic("sensor", period=user_period, kernel=lambda ctx: None)
    net.add_periodic("sink", period=200, kernel=lambda ctx: None)
    net.add_sporadic(
        "config", min_period=sporadic_period, deadline=sporadic_period,
        burst=burst, kernel=lambda ctx: None,
    )
    net.connect("sensor", "sink", "data", kind=ChannelKind.FIFO)
    net.connect("config", "sensor", "cfg", kind=ChannelKind.BLACKBOARD)
    net.add_priority("sensor", "sink")
    if sporadic_first:
        net.add_priority("config", "sensor")
    else:
        net.add_priority("sensor", "config")
    net.add_external_input("config", "cmd")
    net.validate_taskgraph_subclass()
    return net


#: Legal for 2 per 300; violates 1 per 300 and 2 per 500.
ARRIVALS = [0, 150, 300, 450, 610]


def _stimulus() -> Stimulus:
    return Stimulus(
        input_samples={"cmd": [1, 2, 3, 4, 5]},
        sporadic_arrivals={"config": ARRIVALS},
    )


def _run(net: Network, stimulus: Stimulus, n_frames: int = 4):
    graph = derive_task_graph(net, 10)
    return run_static_order(
        net, list_schedule(graph, 2), n_frames, stimulus
    )


class TestAcrossSweeps:
    def test_second_sweep_validates_and_binds_nothing(self, monkeypatch):
        base = example_fig1.scenario(n_frames=3)
        matrix = ScenarioMatrix(
            base, {"jitter_seed": [1, 2], "processors": [2, 3]}
        )
        first = run_sweep(matrix, METRICS)
        assert not first.failed_rows
        validations = _count_calls(
            monkeypatch, SporadicGenerator, "validate_trace"
        )
        bindings = _count_calls(monkeypatch, ArrivalBinding, "__init__")
        second = run_sweep(matrix, METRICS)
        assert validations == [] and bindings == []
        assert second.rows == first.rows
        # Each sweep built its own network: the memo is not identity-keyed.
        assert second.stats.networks_built == 1

    def test_equal_networks_share_one_binding(self):
        stim = _stimulus()
        a, b = _network(), _network()
        assert a is not b
        assert (ArrivalBinding.of(a, 200, 4, stim)
                is ArrivalBinding.of(b, 200, 4, stim))


class TestStructuralMisses:
    @pytest.mark.parametrize(
        "changed", [{"burst": 1}, {"sporadic_period": 500}],
        ids=["burst", "period"],
    )
    def test_changed_sporadic_constraint_revalidates(
        self, monkeypatch, changed
    ):
        stim = _stimulus()
        stim.validate(_network())
        validations = _count_calls(
            monkeypatch, SporadicGenerator, "validate_trace"
        )
        stim.validate(_network())
        assert validations == []
        with pytest.raises(EventError, match="sporadic constraint violated"):
            stim.validate(_network(**changed))
        assert len(validations) == 1

    @pytest.mark.parametrize(
        "changed", [{"user_period": 50}, {"sporadic_first": False}],
        ids=["user-period", "boundary-rule"],
    )
    def test_changed_server_specs_bind_afresh(self, changed):
        stim = _stimulus()
        base, other = _network(), _network(**changed)
        shared = _run(base, stim)
        assert (ArrivalBinding.of(base, 200, 4, stim)
                is not ArrivalBinding.of(other, 200, 4, stim))
        result = _run(other, stim)
        fresh = _run(other, _stimulus())
        assert result.records == fresh.records
        assert result.external_outputs == fresh.external_outputs


    def test_network_edits_drop_its_server_specs(self):
        net = _network()
        ArrivalBinding.of(net, 200, 4, _stimulus())
        assert net.run_memo()
        net.add_periodic("extra", period=200, kernel=lambda ctx: None)
        assert not net.run_memo()


class TestNetworkVerdict:
    def test_executors_over_one_network_validate_once(self, monkeypatch):
        net = _network()
        schedule = list_schedule(derive_task_graph(net, 10), 2)
        validations = _count_calls(
            monkeypatch, Network, "validate_taskgraph_subclass"
        )
        first = MultiprocessorExecutor(net, schedule)
        second = MultiprocessorExecutor(net, schedule)
        assert len(validations) == 1
        assert first.run(4, _stimulus()).records == second.run(
            4, _stimulus()
        ).records

    def test_a_mutated_network_validates_again(self, monkeypatch):
        net = _network()
        schedule = list_schedule(derive_task_graph(net, 10), 2)
        MultiprocessorExecutor(net, schedule).run(4, _stimulus())
        validations = _count_calls(
            monkeypatch, Network, "validate_taskgraph_subclass"
        )
        net.add_priority("sink", "sensor")  # closes a priority cycle
        with pytest.raises(ModelError, match="cycle"):
            MultiprocessorExecutor(net, schedule)
        with pytest.raises(ModelError, match="cycle"):
            MultiprocessorExecutor(net, schedule)
        # A failed verdict is not kept: every executor re-checks.
        assert len(validations) == 2


class TestLifetimes:
    def test_network_dies_while_stimulus_lives(self):
        stim = _stimulus()
        net = _network()
        _run(net, stim)
        ref = weakref.ref(net)
        del net
        gc.collect()
        assert ref() is None
        # The memo survives its network: an equal one finds the binding.
        assert stim._run_memos
        assert ArrivalBinding.of(_network(), 200, 4, stim) is ArrivalBinding.of(
            _network(), 200, 4, stim
        )

    def test_sweep_samplers_share_and_die_with_the_sweep(self, monkeypatch):
        made = _count_calls(monkeypatch, scenario_module, "jittered_execution")
        tables, rows = set(), []
        original = JitterSampler._rows

        def spy(sampler, keys, n_frames):
            drawn = original(sampler, keys, n_frames)
            table = sampler._tables[id(keys)]
            tables.add(id(table))
            # The table holds its keys column, packed inputs and rows:
            # nothing that would keep a graph or network alive.
            column, words, kept = table
            assert column is keys and type(words) is bytes
            assert all(a is b for a, b in zip(kept, drawn))
            assert all(type(key) is tuple for key in column)
            rows.extend(weakref.ref(row) for row in drawn)
            return drawn

        monkeypatch.setattr(JitterSampler, "_rows", spy)
        seeds = [7_770_001, 7_770_002]
        result = run_sweep(ScenarioMatrix(
            example_fig1.scenario(n_frames=2),
            {"jitter_seed": seeds, "processors": [2, 3]},
        ), METRICS)
        assert not result.failed_rows
        # One sampler per seed, shared by the seed's cells, with one table
        # for the graph the cells share...
        assert sorted(args[0] for args in made) == seeds
        assert len(tables) == 2 and len(rows) == 8
        # ...and none of them left once the sweep has returned.
        assert not _live_samplers(seeds)
        assert not [row for row in rows if row() is not None]

    def test_a_shared_cache_keeps_only_the_current_seeds(self, monkeypatch):
        made = _count_calls(monkeypatch, scenario_module, "jittered_execution")
        base = example_fig1.scenario(n_frames=2)
        cache = PipelineCache()
        for seed in (7_770_011, 7_770_012, 7_770_012):
            run_sweep(
                ScenarioMatrix(base, {"jitter_seed": [seed]}), METRICS,
                cache=cache,
            )
        # A resubmitted seed stays warm; one the next sweep does not use
        # is dropped, as in a pool worker's warm group.
        assert [args[0] for args in made] == [7_770_011, 7_770_012]
        assert not _live_samplers([7_770_011])
        assert _live_samplers([7_770_012])


def _live_samplers(seeds):
    gc.collect()
    return [
        o for o in gc.get_objects()
        if isinstance(o, JitterSampler) and o.seed in seeds
    ]
