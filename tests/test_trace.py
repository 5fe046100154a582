"""Tests for trace data structures and projections."""

from fractions import Fraction

from repro.core.trace import (
    COMPACT_CODES,
    Assign,
    ChannelRead,
    ChannelWrite,
    ExternalRead,
    ExternalWrite,
    JobEnd,
    JobStart,
    LazyTrace,
    Trace,
    Wait,
)


def sample_trace() -> Trace:
    t = Trace()
    t.append(Wait(Fraction(0)))
    t.append(JobStart("p", 1))
    t.append(ExternalRead("p", "I1", 1, 42))
    t.append(Assign("p", "x", 1764))
    t.append(ChannelWrite("p", "c1", 1764))
    t.append(JobEnd("p", 1))
    t.append(Wait(Fraction(100)))
    t.append(JobStart("q", 1))
    t.append(ChannelRead("q", "c1", 1764))
    t.append(ExternalWrite("q", "O1", 2, 1764))
    t.append(JobEnd("q", 1))
    return t


class TestContainer:
    def test_len_iter_getitem(self):
        t = sample_trace()
        assert len(t) == 11
        assert isinstance(t[0], Wait)
        assert sum(1 for _ in t) == 11

    def test_extend(self):
        t = Trace()
        t.extend([Wait(Fraction(0)), Wait(Fraction(1))])
        assert len(t) == 2


class TestRecord:
    """``Trace.record`` builds each compact action with its public
    constructor, equal to a ``LazyTrace``'s materialisation of it."""

    FIELD_VALUES = {
        "process": "p", "channel": "c", "variable": "x", "value": (1, "v"),
        "sample_index": 3, "k": 2, "time": Fraction(7, 3),
    }

    def compact(self, code):
        _, names = COMPACT_CODES[code]
        return (code, *(self.FIELD_VALUES[n] for n in names))

    def test_every_code_matches_the_public_constructor(self):
        for code, (cls, names) in COMPACT_CODES.items():
            trace = Trace()
            trace.record(self.compact(code))
            expected = cls(**{n: self.FIELD_VALUES[n] for n in names})
            assert trace.actions == [expected]
            assert type(trace.actions[0]) is cls

    def test_every_code_matches_lazy_materialisation(self):
        compacts = [self.compact(code) for code in COMPACT_CODES]
        eager = Trace()
        for rec in compacts:
            eager.record(rec)
        lazy = LazyTrace(list(compacts))
        assert lazy.actions == eager.actions
        assert lazy == eager

    def test_record_goes_through_append(self):
        seen = []

        class Spy(Trace):
            def append(self, action):
                seen.append(action)
                super().append(action)

        trace = Spy()
        trace.record(self.compact("W"))
        assert seen == [ChannelWrite("p", "c", (1, "v"))] == trace.actions


class TestProjections:
    def test_channel_writes(self):
        assert sample_trace().channel_writes() == [("c1", 1764)]

    def test_channel_writes_filtered(self):
        assert sample_trace().channel_writes("other") == []
        assert sample_trace().channel_writes("c1") == [("c1", 1764)]

    def test_external_writes(self):
        assert sample_trace().external_writes() == [("O1", 2, 1764)]

    def test_job_order(self):
        assert sample_trace().job_order() == [("p", 1), ("q", 1)]

    def test_waits(self):
        assert sample_trace().waits() == [0, 100]


class TestRendering:
    def test_action_strings_use_paper_notation(self):
        t = sample_trace()
        rendered = [str(a) for a in t]
        assert rendered[0] == "w(0)"
        assert rendered[2] == "p:42?[1]I1"          # x?[k]Ie
        assert rendered[3] == "p:x:=1764"           # assignment
        assert rendered[4] == "p:1764!c1"           # x!c
        assert "q:1764?c1" in rendered              # x?c
        assert "q:O1![2]1764" in rendered           # x![k]Oe

    def test_pretty_truncates(self):
        text = sample_trace().pretty(limit=3)
        assert "more actions" in text
        assert len(text.splitlines()) == 4

    def test_pretty_full(self):
        assert len(sample_trace().pretty().splitlines()) == 11

    def test_job_markers(self):
        assert str(JobStart("p", 3)) == "start p[3]"
        assert str(JobEnd("p", 3)) == "end p[3]"
