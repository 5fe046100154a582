"""Unit tests for event generators (Section II-A)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import (
    Invocation,
    PeriodicGenerator,
    SporadicGenerator,
    merge_invocations,
)
from repro.core.timebase import time_str
from repro.errors import EventError


class TestPeriodicGenerator:
    def test_default_deadline_is_period(self):
        g = PeriodicGenerator(200)
        assert g.deadline == 200

    def test_invocations_simple(self):
        g = PeriodicGenerator(100)
        assert g.invocations(300) == [0, 100, 200]

    def test_invocations_burst(self):
        g = PeriodicGenerator(100, burst=2)
        assert g.invocations(200) == [0, 0, 100, 100]

    def test_invocations_offset(self):
        g = PeriodicGenerator(100, offset=30)
        assert g.invocations(300) == [30, 130, 230]

    def test_offset_must_be_less_than_period(self):
        with pytest.raises(EventError):
            PeriodicGenerator(100, offset=100)

    def test_horizon_exclusive(self):
        g = PeriodicGenerator(100)
        assert g.invocations(200) == [0, 100]

    def test_rational_period(self):
        g = PeriodicGenerator("1/2")
        assert g.invocations(2) == [0, Fraction(1, 2), 1, Fraction(3, 2)]

    def test_is_periodic(self):
        g = PeriodicGenerator(100)
        assert g.is_periodic and not g.is_sporadic

    def test_burst_validation(self):
        with pytest.raises(EventError):
            PeriodicGenerator(100, burst=0)

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicGenerator(-5)

    def test_describe_mentions_burst(self):
        assert "2 per" in PeriodicGenerator(700, burst=2).describe()


class TestSporadicGenerator:
    def test_no_fixed_invocations(self):
        with pytest.raises(EventError, match="no fixed invocation"):
            SporadicGenerator(100, 100).invocations(500)

    def test_is_sporadic(self):
        assert SporadicGenerator(100, 100).is_sporadic

    def test_validate_accepts_legal_trace(self):
        g = SporadicGenerator(300, 300, burst=2)
        assert g.validate_trace([0, 10, 310, 320]) == [0, 10, 310, 320]

    def test_validate_rejects_burst_overflow(self):
        g = SporadicGenerator(300, 300, burst=2)
        with pytest.raises(EventError, match="sporadic constraint violated"):
            g.validate_trace([0, 10, 20])

    def test_validate_rejects_cross_window_overflow(self):
        # Two at the end of one window and one just after: 3 within 300.
        g = SporadicGenerator(300, 300, burst=2)
        with pytest.raises(EventError):
            g.validate_trace([290, 295, 310])

    def test_window_is_half_open(self):
        # [0, 300) holds 2 arrivals; arrival exactly at 300 is a new window.
        g = SporadicGenerator(300, 300, burst=2)
        assert g.validate_trace([0, 299, 300]) == [0, 299, 300]

    def test_validate_rejects_unsorted(self):
        g = SporadicGenerator(300, 300, burst=2)
        with pytest.raises(EventError, match="sorted"):
            g.validate_trace([10, 5])

    def test_validate_rejects_negative(self):
        g = SporadicGenerator(300, 300)
        with pytest.raises(ValueError):
            g.validate_trace([-1])

    def test_max_events_in(self):
        g = SporadicGenerator(300, 300, burst=2)
        assert g.max_events_in(300) == 2
        assert g.max_events_in(301) == 4
        assert g.max_events_in(900) == 6

    def test_empty_trace_ok(self):
        assert SporadicGenerator(100, 100).validate_trace([]) == []

    @given(
        st.lists(st.integers(min_value=0, max_value=3000), max_size=20),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50)
    def test_validator_matches_bruteforce(self, raw, burst):
        """The window validator agrees with a brute-force check, and
        reports the first violating window the brute force finds."""
        trace = sorted(Fraction(t) for t in raw)
        g = SporadicGenerator(250, 250, burst=burst)

        def brute_first_violation():
            for t in trace:
                count = sum(1 for u in trace if t <= u < t + 250)
                if count > burst:
                    return (
                        f"sporadic constraint violated: {count} arrivals in "
                        f"[{time_str(t)}, {time_str(t + 250)}) but burst "
                        f"size is {burst}"
                    )
            return None

        expected = brute_first_violation()
        if expected is None:
            assert g.validate_trace(trace) == trace
        else:
            with pytest.raises(EventError) as info:
                g.validate_trace(trace)
            assert str(info.value) == expected


class TestMergeInvocations:
    def test_groups_by_time(self):
        merged = merge_invocations([("a", [0, 100]), ("b", [0])])
        assert [t for t, _ in merged] == [0, 100]
        assert {i.process for i in merged[0][1]} == {"a", "b"}

    def test_indices_are_per_process_counters(self):
        merged = merge_invocations([("a", [0, 0, 100])])
        indices = [(i.process, i.index) for _, evs in merged for i in evs]
        assert indices == [("a", 1), ("a", 2), ("a", 3)]

    def test_times_strictly_increasing(self):
        merged = merge_invocations([("a", [5, 5, 7])])
        times = [t for t, _ in merged]
        assert times == sorted(set(times))

    def test_unsorted_rejected(self):
        with pytest.raises(EventError, match="sorted"):
            merge_invocations([("a", [10, 5])])

    def test_invocation_index_one_based(self):
        with pytest.raises(EventError):
            Invocation("p", Fraction(0), 0)

    def test_empty(self):
        assert merge_invocations([]) == []
