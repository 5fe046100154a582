"""Tests for trace data structures and projections."""

from fractions import Fraction

import pytest

from repro.core.trace import (
    COMPACT_CODES,
    Assign,
    ChannelRead,
    ChannelWrite,
    ExternalRead,
    ExternalWrite,
    JobEnd,
    JobStart,
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
    """Every compact code both ways: ``append`` of the public constructor
    encodes to the tuple, and materialising the tuple equals the public
    constructor."""

    FIELD_VALUES = {
        "process": "p", "channel": "c", "variable": "x", "value": (1, "v"),
        "sample_index": 3, "k": 2, "time": Fraction(7, 3),
    }

    def compact(self, code):
        _, names = COMPACT_CODES[code]
        return (code, *(self.FIELD_VALUES[n] for n in names))

    def public(self, code):
        cls, names = COMPACT_CODES[code]
        return cls(**{n: self.FIELD_VALUES[n] for n in names})

    def test_every_code_matches_the_public_constructor(self):
        for code, (cls, _) in COMPACT_CODES.items():
            trace = Trace()
            trace.append(self.public(code))
            assert trace.raw == [self.compact(code)]
            assert trace.actions == [self.public(code)]
            assert type(trace.actions[0]) is cls

    def test_every_code_matches_lazy_materialisation(self):
        trace = Trace()
        trace.raw.extend(self.compact(code) for code in COMPACT_CODES)
        expected = [self.public(code) for code in COMPACT_CODES]
        assert trace.actions == expected
        assert [type(a) for a in trace] == [type(a) for a in expected]
        assert trace == Trace(expected)

    def test_constructor_and_extend_encode_like_append(self):
        actions = [self.public(code) for code in COMPACT_CODES]
        appended = Trace()
        for action in actions:
            appended.append(action)
        extended = Trace()
        extended.extend(actions)
        assert Trace(actions).raw == extended.raw == appended.raw
        assert Trace(actions) == extended == appended
        assert Trace(actions) != Trace(actions[:-1])


class TestIncrementalView:
    """``actions`` always holds every recorded action, however reads and
    writes interleave."""

    WRITERS = {
        "raw": lambda trace, v: trace.raw.append(("W", "p", "c", v)),
        "append": lambda trace, v: trace.append(ChannelWrite("p", "c", v)),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("first_read", ["actions", "channel_writes"])
    def test_a_write_after_a_read_is_seen(self, writer, first_read):
        write, trace = self.WRITERS[writer], Trace()
        write(trace, 1)
        if first_read == "actions":
            assert trace.actions == [ChannelWrite("p", "c", 1)]
        else:
            assert trace.channel_writes() == [("c", 1)]
        write(trace, 2)
        assert len(trace) == 2
        assert trace.raw == [("W", "p", "c", 1), ("W", "p", "c", 2)]
        assert trace.channel_writes() == [("c", 1), ("c", 2)]
        assert trace.actions == [
            ChannelWrite("p", "c", 1), ChannelWrite("p", "c", 2)
        ]
        assert trace.actions is trace.actions


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
