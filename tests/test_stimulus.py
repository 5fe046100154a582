"""Tests for stimuli: sample normalisation, validation, random synthesis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import random as pyrandom

from repro.core import Stimulus
from repro.core.events import SporadicGenerator
from repro.core.invocations import random_sporadic_trace, random_stimulus
from repro.errors import EventError


class TestNormalisation:
    def test_sequence_becomes_one_based(self):
        s = Stimulus(input_samples={"i": ["a", "b"]})
        assert s.samples_for("i") == {1: "a", 2: "b"}

    def test_dict_kept(self):
        s = Stimulus(input_samples={"i": {3: "x"}})
        assert s.samples_for("i") == {3: "x"}

    def test_zero_index_rejected(self):
        with pytest.raises(EventError, match="1-based"):
            Stimulus(input_samples={"i": {0: "x"}})

    def test_arrivals_normalised_to_fractions(self):
        s = Stimulus(sporadic_arrivals={"p": [0.5]})
        assert s.arrivals_for("p") == [Fraction(1, 2)]

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            Stimulus(sporadic_arrivals={"p": [-1]})

    def test_missing_process_returns_empty(self):
        assert Stimulus().arrivals_for("ghost") == []


class TestValidation:
    def test_unknown_input_rejected(self, pair_network):
        with pytest.raises(EventError, match="unknown external input"):
            Stimulus(input_samples={"ghost": [1]}).validate(pair_network)

    def test_unknown_process_rejected(self, pair_network):
        with pytest.raises(EventError, match="unknown process"):
            Stimulus(sporadic_arrivals={"ghost": [1]}).validate(pair_network)

    def test_periodic_process_cannot_have_arrivals(self, pair_network):
        with pytest.raises(EventError, match="not sporadic"):
            Stimulus(sporadic_arrivals={"producer": [1]}).validate(pair_network)

    def test_sporadic_constraint_checked(self, sporadic_network):
        bad = Stimulus(sporadic_arrivals={"config": [0, 1, 2]})  # 3 in 300
        with pytest.raises(EventError, match="sporadic constraint"):
            bad.validate(sporadic_network)

    def test_valid_stimulus_passes(self, sporadic_network):
        Stimulus(
            input_samples={"cmd": [1]},
            sporadic_arrivals={"config": [10, 20]},
        ).validate(sporadic_network)


class TestTruncated:
    def test_arrivals_cut(self):
        s = Stimulus(sporadic_arrivals={"p": [10, 20, 30]})
        assert s.truncated(20).arrivals_for("p") == [10]

    def test_samples_untouched(self):
        s = Stimulus(input_samples={"i": ["a", "b", "c"]})
        assert s.truncated(0).samples_for("i") == {1: "a", 2: "b", 3: "c"}

    def test_original_unmodified(self):
        s = Stimulus(sporadic_arrivals={"p": [10, 20]})
        s.truncated(15)
        assert s.arrivals_for("p") == [10, 20]


class TestRandomTraces:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_traces_always_valid(self, seed, burst, intensity):
        gen = SporadicGenerator(250, 500, burst=burst)
        rng = pyrandom.Random(seed)
        trace = random_sporadic_trace(gen, 3000, rng, intensity)
        # validate_trace re-raises on violation; reaching here means valid.
        assert all(0 <= t < 3000 for t in trace)

    def test_reproducible_given_same_rng_state(self):
        gen = SporadicGenerator(100, 200, burst=2)
        t1 = random_sporadic_trace(gen, 1000, pyrandom.Random(5))
        t2 = random_sporadic_trace(gen, 1000, pyrandom.Random(5))
        assert t1 == t2

    def test_zero_intensity_empty(self):
        gen = SporadicGenerator(100, 200)
        assert random_sporadic_trace(gen, 1000, pyrandom.Random(0), 0.0) == []

    def test_intensity_validated(self):
        gen = SporadicGenerator(100, 200)
        with pytest.raises(ValueError):
            random_sporadic_trace(gen, 1000, pyrandom.Random(0), 1.5)

    def test_matches_naive_admission_filter(self):
        # Oracle: the windowed admission filter must keep exactly what
        # recounting every kept arrival per candidate keeps.
        cases = pyrandom.Random(2024)
        for _ in range(200):
            period = Fraction(cases.randint(1, 400), cases.choice([1, 2, 3]))
            burst = cases.randint(1, 5)
            horizon = period * cases.randint(1, 12) + cases.randint(0, 50)
            intensity = cases.choice([0.0, 0.3, 0.7, 1.0, cases.random()])
            time_unit = cases.choice([1, 7, 100, 1000])
            seed = cases.randrange(10_000)
            gen = SporadicGenerator(period, 2 * period, burst=burst)
            got = random_sporadic_trace(
                gen, horizon, pyrandom.Random(seed), intensity, time_unit
            )
            want = _naive_sporadic_trace(
                period, burst, horizon, pyrandom.Random(seed), intensity,
                time_unit,
            )
            assert got == want


def _naive_sporadic_trace(period, burst, horizon, rng, intensity, time_unit):
    """Reference synthesis with the quadratic recount admission filter."""
    candidates = []
    window_start = Fraction(0)
    while window_start < horizon:
        count = sum(1 for _ in range(burst) if rng.random() < intensity)
        offsets = sorted(rng.randrange(0, time_unit) for _ in range(count))
        for off in offsets:
            t = window_start + period * off / time_unit
            if t < horizon:
                candidates.append(t)
        window_start += period
    candidates.sort()
    trace = []
    for t in candidates:
        if sum(1 for kept in trace if kept > t - period) < burst:
            trace.append(t)
    return trace


class TestRandomStimulus:
    def test_covers_all_sporadics_and_inputs(self, sporadic_network):
        stim = random_stimulus(sporadic_network, 1000, seed=1)
        stim.validate(sporadic_network)
        assert "config" in stim.sporadic_arrivals
        assert "cmd" in stim.input_samples

    def test_reproducible(self, sporadic_network):
        a = random_stimulus(sporadic_network, 1000, seed=3)
        b = random_stimulus(sporadic_network, 1000, seed=3)
        assert a.sporadic_arrivals == b.sporadic_arrivals
        assert a.input_samples == b.input_samples

    def test_seed_changes_output(self, sporadic_network):
        a = random_stimulus(sporadic_network, 1000, seed=3)
        b = random_stimulus(sporadic_network, 1000, seed=4)
        assert (
            a.sporadic_arrivals != b.sporadic_arrivals
            or a.input_samples != b.input_samples
        )

    def test_custom_sample_value(self, sporadic_network):
        stim = random_stimulus(
            sporadic_network, 1000, seed=0,
            sample_value=lambda ch, k, rng: f"{ch}:{k}",
        )
        samples = stim.samples_for("cmd")
        assert all(v == f"cmd:{k}" for k, v in samples.items())
