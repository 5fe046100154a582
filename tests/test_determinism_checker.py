"""Tests for the mechanical determinism checker (Prop. 2.1 verification)."""

from fractions import Fraction

import pytest

from repro.analysis import check_determinism, first_divergence
from repro.apps import (
    build_fig1_network,
    fig1_scenario,
    fig1_stimulus,
    fig1_wcets,
)
from repro.core.platform import Platform
from repro.experiment import Experiment
from repro.runtime import OverheadModel

BIG_LITTLE = Platform.of(("big", 2), ("little", 1, Fraction(1, 2)))


class TestFirstDivergence:
    def test_identical(self):
        obs = {"channels": {"c": [1, 2]}, "outputs": {}}
        assert first_divergence(obs, obs) is None

    def test_value_difference_reported(self):
        a = {"channels": {"c": [1, 2]}, "outputs": {}}
        b = {"channels": {"c": [1, 3]}, "outputs": {}}
        msg = first_divergence(a, b)
        assert "channels['c']" in msg

    def test_length_difference_reported(self):
        a = {"channels": {"c": [1, 2]}, "outputs": {}}
        b = {"channels": {"c": [1]}, "outputs": {}}
        assert "2 values" in first_divergence(a, b)

    def test_missing_channel_reported(self):
        a = {"channels": {"c": [1]}, "outputs": {}}
        b = {"channels": {}, "outputs": {}}
        assert "<absent>" in first_divergence(a, b)

    def test_output_section_checked(self):
        a = {"channels": {}, "outputs": {"o": [(1, "x")]}}
        b = {"channels": {}, "outputs": {"o": [(1, "y")]}}
        assert "outputs" in first_divergence(a, b)


class TestCheckDeterminism:
    def test_fig1_matrix_deterministic(self):
        net = build_fig1_network()
        report = check_determinism(
            net, fig1_wcets(), n_frames=3,
            stimulus=fig1_stimulus(3),
            processor_counts=(2, 3),
            heuristics=("alap", "arrival"),
            jitter_seeds=(0,),
        )
        assert report.deterministic
        assert report.failures() == []
        # 2 proc counts x 2 heuristics x (wcet + 1 jitter) = 8 variants
        assert len(report.variants) == 8

    def test_deterministic_under_overhead(self):
        net = build_fig1_network()
        report = check_determinism(
            net, fig1_wcets(), n_frames=2,
            stimulus=fig1_stimulus(2),
            processor_counts=(2,),
            heuristics=("alap",),
            jitter_seeds=(),
            overheads=OverheadModel.mppa_like(),
        )
        assert report.deterministic

    def test_summary_format(self):
        net = build_fig1_network()
        report = check_determinism(
            net, fig1_wcets(), n_frames=1,
            stimulus=fig1_stimulus(1),
            processor_counts=(2,),
            heuristics=("alap",),
            jitter_seeds=(),
        )
        text = report.summary()
        assert "DETERMINISTIC" in text
        assert "M=2 sp=alap wcet" in text

    def test_reference_job_count_reported(self):
        net = build_fig1_network()
        report = check_determinism(
            net, fig1_wcets(), n_frames=1,
            stimulus=fig1_stimulus(1, coef_arrivals=[]),
            processor_counts=(2,),
            heuristics=("alap",),
            jitter_seeds=(),
        )
        # 8 real jobs in one frame (no sporadic arrivals)
        assert report.reference_jobs == 8


class TestExperimentMatrix:
    """``Experiment.check_determinism`` on the scenario's own platform."""

    def tabled(self):
        wcets = dict(fig1_wcets())
        wcets["FilterA"] = {"big": Fraction(3, 10), "little": Fraction(2, 5)}
        return fig1_scenario(n_frames=2).replace(
            wcet=wcets, platform=BIG_LITTLE
        )

    def test_tabled_heterogeneous_scenario_passes(self):
        report = Experiment(self.tabled()).check_determinism()
        assert report.deterministic
        assert [v.label for v in report.variants] == [
            f"2xbig + 1xlittle(x1/2) sp={h} {run}"
            for h in ("alap", "arrival")
            for run in ("wcet", "jitter#0", "jitter#7")
        ]

    def test_platform_entries_in_the_loose_checker(self):
        report = check_determinism(
            build_fig1_network(), fig1_wcets(), 2,
            stimulus=fig1_stimulus(2),
            processor_counts=(BIG_LITTLE, Platform.homogeneous(2)),
            heuristics=("alap",), jitter_seeds=(),
        )
        assert report.deterministic
        assert [v.label for v in report.variants] == [
            "2xbig + 1xlittle(x1/2) sp=alap wcet", "M=2 sp=alap wcet",
        ]

    def test_homogeneous_scenarios_keep_their_matrix(self):
        report = Experiment(fig1_scenario(n_frames=2)).check_determinism()
        assert report.deterministic
        assert [v.label for v in report.variants] == [
            f"M={m} sp={h} {run}"
            for m in (1, 2, 4)
            for h in ("alap", "arrival")
            for run in ("wcet", "jitter#0", "jitter#7")
        ]

    def test_the_cached_task_graph_is_used(self):
        exp = Experiment(fig1_scenario(n_frames=1))
        exp.check_determinism(processor_counts=(2,), jitter_seeds=())
        assert exp.cache.derivations_computed == 1
        exp.check_determinism(processor_counts=(2,), jitter_seeds=())
        assert exp.cache.derivations_computed == 1
