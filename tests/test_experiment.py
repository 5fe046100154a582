"""Scenario/Experiment facade: equivalence with the loose pipeline functions,
scenario validation and JSON round-trips (ISSUE 4 acceptance criteria)."""

import json
from fractions import Fraction

import pytest

from repro import (
    Experiment,
    Scenario,
    check_determinism,
    derive_task_graph,
    find_feasible_schedule,
    run_static_order,
    run_zero_delay,
)
from repro.apps import (
    fft_scenario,
    fig1_scenario,
    fig1_stimulus,
    fig1_wcets,
    fms_scenario,
)
from repro.core import Stimulus
from repro.errors import ModelError, RuntimeModelError
from repro.experiment import (
    PipelineCache,
    available_workloads,
    register_workload,
    resolve_workload,
)
from repro.io import (
    FormatError,
    scenario_from_dict,
    scenario_to_dict,
    stimulus_from_dict,
    stimulus_to_dict,
)
from repro.runtime import MetricsObserver, OverheadModel, miss_summary


def graph_signature(graph):
    return (
        [(j.process, j.k, j.arrival, j.deadline, j.wcet, j.is_server)
         for j in graph.jobs],
        sorted(graph.edges()),
        graph.hyperperiod,
    )


# ---------------------------------------------------------------------------
# Scenario value semantics
# ---------------------------------------------------------------------------
class TestScenario:
    def test_normalisation_and_equality(self):
        a = Scenario(workload="fig1", wcet={"B": 2, "A": Fraction(1, 3)})
        b = Scenario(workload="fig1", wcet={"A": Fraction(1, 3), "B": 2})
        assert a == b
        assert a.wcet_spec() == {"A": Fraction(1, 3), "B": Fraction(2)}
        assert a.replace(n_frames=7) == b.replace(n_frames=7)
        assert a.replace(n_frames=7) != a

    def test_replace_is_idempotent_on_normalised_fields(self):
        s = fig1_scenario()
        assert s.replace(jitter_seed=3).replace(jitter_seed=3).wcet == s.wcet

    def test_scalar_wcet(self):
        s = Scenario(workload="fig1", wcet=25)
        assert s.wcet == Fraction(25)
        assert s.wcet_spec() == Fraction(25)

    def test_empty_heuristic_portfolio_is_refused(self):
        from repro.io.json_io import scenario_from_dict, scenario_to_dict

        with pytest.raises(ModelError, match="heuristics must not be empty"):
            Scenario(workload="fig1", wcet=25, heuristics=())
        data = scenario_to_dict(
            Scenario(workload="fig1", wcet=25, heuristics=("alap",))
        )
        assert data["format"] == "fppn-scenario"
        data["heuristics"] = []
        with pytest.raises(
            FormatError, match="field 'heuristics' must not be empty"
        ):
            scenario_from_dict(data)
        assert Scenario(workload="fig1", wcet=25).heuristics is None

    @pytest.mark.parametrize("seed", [1.0, True, False, "1"])
    def test_non_int_jitter_seed_is_refused(self, seed):
        # 1.0 and True compare and hash equal to 1 but drew differently,
        # so they shared a cached sampler with whichever came first.
        from repro.io.json_io import scenario_from_dict, scenario_to_dict

        with pytest.raises(ModelError, match="jitter_seed must be an int"):
            Scenario(workload="fig1", wcet=25, jitter_seed=seed)
        data = scenario_to_dict(
            Scenario(workload="fig1", wcet=25, jitter_seed=1)
        )
        data["jitter_seed"] = seed
        with pytest.raises(FormatError, match="field 'jitter_seed' must be an int"):
            scenario_from_dict(data)

    def test_jitter_seed_document_with_a_float_or_bool_fails_to_decode(self):
        from repro.io.json_io import scenario_from_dict, scenario_to_dict

        text = json.dumps(scenario_to_dict(
            Scenario(workload="fig1", wcet=25, jitter_seed=1)
        ))
        assert '"jitter_seed": 1' in text
        for literal in ("1.0", "true"):
            data = json.loads(text.replace(
                '"jitter_seed": 1', f'"jitter_seed": {literal}'
            ))
            with pytest.raises(
                FormatError, match="field 'jitter_seed' must be an int"
            ):
                scenario_from_dict(data)
        assert scenario_from_dict(json.loads(text)).jitter_seed == 1

    def test_int_jitter_seeds_of_any_size_are_kept(self):
        for seed in (0, -3, 2 ** 64, 2 ** 64 + 1):
            s = Scenario(workload="fig1", wcet=25, jitter_seed=seed)
            assert s.jitter_seed == seed and type(s.jitter_seed) is int
            assert s.execution_model().seed == seed

    def test_validation_errors(self):
        with pytest.raises(ModelError):
            Scenario(workload="fig1", wcet=25, processors=0)
        with pytest.raises(ModelError):
            Scenario(workload="fig1", wcet=25, n_frames=0)
        with pytest.raises(ModelError):
            Scenario(workload="fig1", wcet=25,
                     execution_time={"A": 1}, jitter_seed=0)
        with pytest.raises(ModelError):
            Scenario(workload="fig1", wcet=25, jitter_low=0.0)
        with pytest.raises(ModelError):
            Scenario(workload="fig1", wcet=25, overheads="nope")
        with pytest.raises(ModelError):
            Scenario(workload="fig1", wcet=25, stimulus=42)
        with pytest.raises(ModelError):
            Scenario(workload=42, wcet=25)
        with pytest.raises(ModelError):
            Scenario(workload="fig1", wcet=lambda job, k: 1)

    @pytest.mark.parametrize("field,value", [
        ("processors", "two"), ("processors", True), ("processors", 2.0),
        ("n_frames", 2.5), ("n_frames", True), ("n_frames", "3"),
        ("jitter_low", "x"), ("jitter_low", True), ("jitter_low", None),
    ])
    def test_field_types_are_checked(self, field, value):
        # A bool is an int to Python, and True == 1 would pass every range
        # check; it is refused wherever an int or a real is meant.
        base = Scenario(workload="fig1", wcet=25)
        with pytest.raises(ModelError, match=f"^{field} must be "):
            base.replace(**{field: value})

    @pytest.mark.parametrize("field,literal", [
        ("processors", '"two"'), ("processors", "true"),
        ("processors", "2.0"), ("n_frames", "2.5"), ("n_frames", "true"),
        ("n_frames", '"3"'), ("jitter_low", '"x"'), ("jitter_low", "true"),
        ("jitter_low", "1" + "0" * 400),
    ])
    def test_document_field_types_are_checked(self, field, literal):
        data = scenario_to_dict(Scenario(workload="fig1", wcet=25))
        data[field] = json.loads(literal)
        with pytest.raises(FormatError, match=f"field '{field}' must be"):
            scenario_from_dict(data)

    def test_stage_keys_split_compile_and_runtime_fields(self):
        base = fig1_scenario()
        runtime_variant = base.replace(
            jitter_seed=5, n_frames=1, overheads=OverheadModel.mppa_like()
        )
        assert runtime_variant.derivation_key() == base.derivation_key()
        assert runtime_variant.schedule_key() == base.schedule_key()
        assert base.replace(wcet=30).derivation_key() != base.derivation_key()
        assert base.replace(processors=3).schedule_key() != base.schedule_key()
        assert (base.replace(processors=3).derivation_key()
                == base.derivation_key())

    def test_workload_registry(self):
        assert {"fig1", "fft", "fms", "fms-40s"} <= set(available_workloads())
        assert resolve_workload("fig1")().name == "fig1-example"
        with pytest.raises(ModelError):
            resolve_workload("no-such-workload")

    def test_user_registration_does_not_hide_builtin_workloads(self):
        # In a fresh interpreter, a user registration made *before* any
        # built-in name is resolved must not suppress the lazy apps import
        # (regression: the load guard used to be a registry-emptiness
        # check, so the first registration marked the apps as loaded).
        import os
        import subprocess
        import sys

        code = (
            "from repro.experiment import ("
            "available_workloads, register_workload, resolve_workload)\n"
            "register_workload('custom', lambda: None)\n"
            "assert resolve_workload('fms') is not None\n"
            "names = available_workloads()\n"
            "assert 'custom' in names and 'fig1' in names, names\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_failed_apps_import_is_reported_and_retried(self, monkeypatch):
        # Regression: the lazy apps loader used to set its done-flag
        # *before* importing, so a failed import poisoned every later
        # lookup with a bare "unknown workload" and was never retried.
        from repro.experiment import scenario as scenario_mod

        def boom():
            raise ImportError("apps are broken today")

        monkeypatch.setattr(scenario_mod, "_apps_loaded", False)
        monkeypatch.setattr(scenario_mod, "_import_apps", boom)
        with pytest.raises(ImportError, match="apps are broken today"):
            resolve_workload("fms")
        # The flag must not latch on failure: restoring the importer makes
        # the very next lookup succeed.
        assert scenario_mod._apps_loaded is False
        monkeypatch.undo()
        assert resolve_workload("fms") is not None

    def test_scenario_hashable_with_stimulus(self):
        a, b = fig1_scenario(n_frames=2), fig1_scenario(n_frames=2)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert len({a, a.replace(jitter_seed=1)}) == 2

    def test_stimulus_equality(self):
        a = fig1_stimulus(2)
        b = fig1_stimulus(2)
        c = fig1_stimulus(3)
        assert a == b
        assert a != c
        assert a != "not a stimulus"


# ---------------------------------------------------------------------------
# facade vs loose functions (acceptance criterion)
# ---------------------------------------------------------------------------
class TestFacadeEquivalence:
    @pytest.mark.parametrize(
        "scenario_factory, frames",
        [(fig1_scenario, 2), (fft_scenario, 2), (fms_scenario, 1)],
        ids=["fig1", "fft", "fms"],
    )
    def test_facade_matches_loose_pipeline(self, scenario_factory, frames):
        scenario = scenario_factory(n_frames=frames)
        exp = Experiment(scenario)

        net = scenario.build_network()
        graph = derive_task_graph(net, scenario.wcet_spec())
        schedule = find_feasible_schedule(graph, scenario.processors)
        result = run_static_order(
            net,
            schedule,
            scenario.n_frames,
            scenario.stimulus,
            scenario.execution_model(),
            scenario.overheads,
        )

        assert graph_signature(exp.task_graph()) == graph_signature(graph)
        assert exp.schedule().processors == schedule.processors
        assert list(exp.schedule().entries) == list(schedule.entries)
        facade_result = exp.run()
        assert facade_result.records == result.records
        assert facade_result.observable() == result.observable()
        assert facade_result.overhead_intervals == result.overhead_intervals

    def test_loose_functions_still_importable_from_repro(self):
        import repro

        for name in (
            "derive_task_graph",
            "find_feasible_schedule",
            "run_static_order",
            "check_determinism",
            "run_zero_delay",
        ):
            assert callable(getattr(repro, name))
            assert name in repro.__all__

    def test_reference_matches_zero_delay(self):
        scenario = fig1_scenario(n_frames=2)
        exp = Experiment(scenario)
        horizon = exp.task_graph().hyperperiod * scenario.n_frames
        direct = run_zero_delay(
            scenario.build_network(), horizon, scenario.stimulus
        )
        assert exp.reference().observable() == direct.observable()

    def test_run_observable_matches_reference_without_deferred_arrivals(self):
        # With no sporadic arrivals near the horizon nothing is deferred by
        # the runtime's server windows, so the Prop. 2.1 observable of the
        # simulated run equals the zero-delay reference directly.
        scenario = fig1_scenario(
            n_frames=2, stimulus=fig1_stimulus(2, coef_arrivals=[])
        )
        exp = Experiment(scenario)
        assert exp.run().observable() == exp.reference().observable()

    def test_check_determinism_matches_loose_call(self):
        scenario = fig1_scenario(n_frames=2)
        exp = Experiment(scenario)
        args = dict(processor_counts=(2,), heuristics=("alap",),
                    jitter_seeds=(0,))
        facade = exp.check_determinism(**args)
        loose = check_determinism(
            scenario.build_network(), scenario.wcet_spec(),
            scenario.n_frames, scenario.stimulus, **args,
        )
        assert facade.deterministic and loose.deterministic
        assert [v.label for v in facade.variants] == \
            [v.label for v in loose.variants]


# ---------------------------------------------------------------------------
# facade caching / observers
# ---------------------------------------------------------------------------
class TestExperimentCaching:
    def test_stages_computed_once(self):
        exp = Experiment(fig1_scenario(n_frames=1))
        g1, g2 = exp.task_graph(), exp.task_graph()
        assert g1 is g2
        assert exp.schedule() is exp.schedule()
        assert exp.run() is exp.run()
        assert exp.cache.derivations_computed == 1
        assert exp.cache.schedules_computed == 1

    def test_shared_cache_across_experiments(self):
        cache = PipelineCache()
        a = Experiment(fig1_scenario(n_frames=1), cache=cache)
        b = Experiment(fig1_scenario(n_frames=2), cache=cache)
        assert a.task_graph() is b.task_graph()
        assert a.schedule() is b.schedule()
        assert cache.derivations_computed == 1
        assert cache.networks_built == 1

    def test_late_observers_replay_cached_run(self):
        exp = Experiment(fig1_scenario(n_frames=2))
        result = exp.run()
        m = MetricsObserver()
        assert exp.run(observers=[m]) is result
        assert m.miss_summary() == miss_summary(result)

    def test_late_observers_rerun_when_not_replayable(self):
        exp = Experiment(fig1_scenario(n_frames=1, collect_records=False))
        first = exp.run()
        m = MetricsObserver()
        second = exp.run(observers=[m])  # replay refused -> fresh run
        assert second is not first
        assert m.total_jobs == 10

    def test_late_data_consumers_rerun_on_trace_suppressed_results(self):
        # replay() refuses data observers on collect_trace=False results
        # before any hook fires; the facade catches the refusal and
        # re-executes the scenario with them attached.
        exp = Experiment(fig1_scenario(n_frames=1, collect_trace=False))
        exp.run()
        spans = exp.metrics().kernel_span_stats()
        assert spans  # live events streamed from the fresh run
        # A purely timing-consuming observer still replays the cache.
        timing = MetricsObserver()
        assert exp.run(observers=[timing]) is exp._result
        assert timing.total_jobs == 10

    def test_data_observer_on_trace_suppressed_cache_runs_once(self):
        from repro.runtime import ExecutionObserver

        class Writes(ExecutionObserver):
            def __init__(self):
                self.run_starts = 0
                self.writes = 0

            def on_run_start(self, meta):
                self.run_starts += 1

            def on_channel_write(self, process, channel, value, time):
                self.writes += 1

        exp = Experiment(fig1_scenario(n_frames=2, collect_trace=False))
        first = exp.run()
        obs = Writes()
        second = exp.run(observers=[obs])
        assert second is not first
        assert obs.run_starts == 1
        assert obs.writes == sum(len(v) for v in second.channel_logs.values())
        assert obs.writes > 0

    def test_overhead_only_observer_replays_an_uncollected_cache(self):
        from repro.runtime import ExecutionObserver

        class Windows(ExecutionObserver):
            def __init__(self):
                self.frames = []

            def on_overhead(self, frame, start, end):
                self.frames.append(frame)

        exp = Experiment(fig1_scenario(
            n_frames=2, collect_records=False,
            overheads=OverheadModel.mppa_like(),
        ))
        first = exp.run()
        windows = Windows()
        assert exp.run(observers=[windows]) is first  # replayed, not re-run
        assert windows.frames == [0, 1]

    def test_metrics_accessor(self):
        exp = Experiment(fig1_scenario(n_frames=2))
        m = exp.metrics()
        assert m is exp.metrics()
        assert m.miss_summary() == miss_summary(exp.run())

    def test_run_force_reexecutes(self):
        exp = Experiment(fig1_scenario(n_frames=1))
        first = exp.run()
        second = exp.run(force=True)
        assert second is not first
        assert second.records == first.records

    def test_forced_rerun_invalidates_cached_metrics(self):
        # Regression: run(force=True) replaced the cached result but kept
        # serving a metrics observer fed by the discarded run.
        exp = Experiment(fig1_scenario(n_frames=1))
        stale = exp.metrics()
        fresh_result = exp.run(force=True)
        fresh = exp.metrics()
        assert fresh is not stale
        assert fresh.makespan == fresh_result.makespan()

    def test_replay_fallback_rerun_invalidates_cached_metrics(self):
        # The other path through _execute: a cached lean result cannot
        # feed a late observer, so run() re-executes — the metrics cache
        # must not keep pointing at the replaced run either.
        exp = Experiment(fig1_scenario(n_frames=1, collect_records=False))
        exp.run()
        stale = exp.metrics()
        m = MetricsObserver()
        exp.run(observers=[m])  # replay refused -> fresh execution
        assert exp.metrics() is not stale

    def test_report_renders(self):
        text = Experiment(fig1_scenario(n_frames=1)).report().render()
        assert "jobs / frame" in text
        assert "deadline misses" in text

    def test_experiment_requires_scenario(self):
        with pytest.raises(RuntimeModelError):
            Experiment("not a scenario")


# ---------------------------------------------------------------------------
# JSON round-trips (acceptance criterion: Fraction fields included)
# ---------------------------------------------------------------------------
class TestScenarioJson:
    def test_round_trip_with_fraction_fields(self):
        scenario = Scenario(
            workload="fig1",
            wcet={"InputA": Fraction(1, 3), "FilterA": 25},
            processors=2,
            n_frames=3,
            horizon=Fraction(400),
            heuristics=("alap", "arrival"),
            jitter_seed=7,
            jitter_low=0.25,
            overheads=OverheadModel.create(
                Fraction(41), Fraction(20), Fraction(1, 2)
            ),
            stimulus=Stimulus(
                input_samples={"InputChannel": [1.5, Fraction(2, 7), 3]},
                sporadic_arrivals={"CoefB": [Fraction(350), Fraction(2101, 2)]},
            ),
            records_only=True,
            collect_records=False,
            collect_trace=False,
            label="round-trip",
        )
        data = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(data) == scenario

    def test_round_trip_app_scenarios(self):
        for factory in (fig1_scenario, fms_scenario):
            scenario = factory(n_frames=2)
            data = json.loads(json.dumps(scenario_to_dict(scenario)))
            assert scenario_from_dict(data) == scenario

    def test_round_trip_complex_samples(self):
        # The FFT stimulus carries tuples of complex numbers.
        scenario = fft_scenario(n_frames=2)
        data = json.loads(json.dumps(scenario_to_dict(scenario)))
        restored = scenario_from_dict(data)
        assert restored == scenario
        assert restored.stimulus.input_samples == \
            scenario.stimulus.input_samples

    def test_execution_time_table_round_trip(self):
        scenario = Scenario(
            workload="fig1", wcet=25,
            execution_time={"InputA": Fraction(19, 2)},
        )
        data = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(data) == scenario

    def test_callable_workload_refused(self):
        with pytest.raises(FormatError):
            scenario_to_dict(Scenario(workload=lambda: None, wcet=25))

    def test_callable_wcet_refused(self):
        scenario = Scenario(
            workload="fig1", wcet={"InputA": lambda job, k: 1}
        )
        with pytest.raises(FormatError):
            scenario_to_dict(scenario)

    def test_bad_header_refused(self):
        with pytest.raises(FormatError):
            scenario_from_dict({"format": "fppn-taskgraph", "version": 1})

    def test_stimulus_round_trip_preserves_sample_keys(self):
        stim = Stimulus(
            input_samples={"in": {2: (1 + 2j, Fraction(1, 3)), 5: "x"}},
            sporadic_arrivals={},
        )
        restored = stimulus_from_dict(
            json.loads(json.dumps(stimulus_to_dict(stim)))
        )
        assert restored == stim
        assert restored.input_samples["in"][2] == (1 + 2j, Fraction(1, 3))

    def test_deserialised_scenario_runs(self):
        scenario = fig1_scenario(n_frames=1)
        restored = scenario_from_dict(
            json.loads(json.dumps(scenario_to_dict(scenario)))
        )
        # The restored scenario resolves its workload by name and runs the
        # full pipeline to the same observable (kernels come from the
        # registered factory, not the serialised form).
        assert Experiment(restored).run().observable() == \
            Experiment(scenario).run().observable()
