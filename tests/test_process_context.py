"""Unit tests for JobContext: the capability object of a running job."""

from fractions import Fraction

import pytest

from repro.core.channels import (
    ChannelKind,
    ChannelSpec,
    ExternalOutputSpec,
    ExternalOutputState,
    is_no_data,
)
from repro.core.process import JobContext, KernelBehavior, Process
from repro.core.events import PeriodicGenerator
from repro.core.trace import Assign, ChannelRead, ChannelWrite, ExternalRead, ExternalWrite, Trace
from repro.errors import ChannelError


def make_ctx(trace=None, **overrides):
    fifo = ChannelSpec("in_c", ChannelKind.FIFO, "x", "p").new_state()
    out = ChannelSpec("out_c", ChannelKind.FIFO, "p", "y").new_state()
    ext_out = ExternalOutputState(ExternalOutputSpec("o", "p"))
    defaults = dict(
        process="p",
        k=1,
        now=Fraction(0),
        variables={},
        inputs={"in_c": fifo},
        outputs={"out_c": out},
        external_inputs={"i": {1: "sample-1", 2: "sample-2"}},
        external_outputs={"o": ext_out},
        trace=trace,
    )
    defaults.update(overrides)
    return JobContext(**defaults), fifo, out, ext_out


class TestChannelAccess:
    def test_read_empty_input(self):
        ctx, _, _, _ = make_ctx()
        assert is_no_data(ctx.read("in_c"))

    def test_read_consumes(self):
        ctx, fifo, _, _ = make_ctx()
        fifo.write("v")
        assert ctx.read("in_c") == "v"
        assert is_no_data(ctx.read("in_c"))

    def test_peek(self):
        ctx, fifo, _, _ = make_ctx()
        fifo.write("v")
        assert ctx.peek("in_c") == "v"
        assert ctx.read("in_c") == "v"

    def test_write_goes_to_output(self):
        ctx, _, out, _ = make_ctx()
        ctx.write("out_c", 7)
        assert out.read() == 7

    def test_cannot_read_output_channel(self):
        ctx, _, _, _ = make_ctx()
        with pytest.raises(ChannelError, match="no input channel"):
            ctx.read("out_c")

    def test_cannot_write_input_channel(self):
        ctx, _, _, _ = make_ctx()
        with pytest.raises(ChannelError, match="no output channel"):
            ctx.write("in_c", 1)

    def test_unknown_channel(self):
        ctx, _, _, _ = make_ctx()
        with pytest.raises(ChannelError):
            ctx.read("ghost")


class TestExternalAccess:
    def test_read_input_uses_sample_k(self):
        ctx, _, _, _ = make_ctx(k=2)
        assert ctx.read_input("i") == "sample-2"

    def test_read_input_missing_sample(self):
        ctx, _, _, _ = make_ctx(k=5)
        assert is_no_data(ctx.read_input("i"))

    def test_single_channel_name_optional(self):
        ctx, _, _, _ = make_ctx()
        assert ctx.read_input() == "sample-1"

    def test_ambiguous_channel_requires_name(self):
        ctx, _, _, _ = make_ctx(
            external_inputs={"i": {1: 1}, "j": {1: 2}}
        )
        with pytest.raises(ChannelError, match="specify the channel"):
            ctx.read_input()

    def test_write_output_records_sample_k(self):
        ctx, _, _, ext = make_ctx(k=3)
        ctx.write_output("val")
        assert ext.as_sequence() == [(3, "val")]

    def test_write_output_unknown(self):
        ctx, _, _, _ = make_ctx()
        with pytest.raises(ChannelError):
            ctx.write_output(1, "ghost")


class TestVariables:
    def test_assign_and_get(self):
        ctx, _, _, _ = make_ctx()
        ctx.assign("x", 10)
        assert ctx.get("x") == 10
        assert ctx.vars["x"] == 10

    def test_get_default(self):
        ctx, _, _, _ = make_ctx()
        assert ctx.get("missing", "dflt") == "dflt"

    def test_variables_shared_with_store(self):
        store = {"x": 1}
        ctx, _, _, _ = make_ctx(variables=store)
        ctx.assign("x", 2)
        assert store["x"] == 2


class TestTracing:
    def test_actions_recorded_in_order(self):
        trace = Trace()
        ctx, fifo, _, _ = make_ctx(trace=trace)
        fifo.write("v")
        ctx.read("in_c")
        ctx.write("out_c", 1)
        ctx.read_input("i")
        ctx.write_output("done")
        ctx.assign("x", 3)
        kinds = [type(a) for a in trace]
        assert kinds == [ChannelRead, ChannelWrite, ExternalRead, ExternalWrite, Assign]

    def test_trace_values(self):
        trace = Trace()
        ctx, _, _, _ = make_ctx(trace=trace)
        ctx.write("out_c", 42)
        action = trace[0]
        assert action.channel == "out_c" and action.value == 42

    def test_no_trace_means_no_recording(self):
        ctx, _, _, _ = make_ctx(trace=None)
        ctx.write("out_c", 1)  # must not raise

    @pytest.mark.parametrize("first_read", ["actions", "channel_writes"])
    def test_write_after_a_read_is_recorded(self, first_read):
        trace = Trace()
        ctx, _, _, _ = make_ctx(trace=trace)
        ctx.write("out_c", 1)
        if first_read == "actions":
            assert trace.actions == [ChannelWrite("p", "out_c", 1)]
        else:
            assert trace.channel_writes() == [("out_c", 1)]
        ctx.write("out_c", 2)
        assert len(trace) == 2
        assert trace.raw == [("W", "p", "out_c", 1), ("W", "p", "out_c", 2)]
        assert trace.channel_writes() == [("out_c", 1), ("out_c", 2)]
        assert trace.actions == [
            ChannelWrite("p", "out_c", 1), ChannelWrite("p", "out_c", 2)
        ]

    def test_every_action_is_recorded_as_its_compact_tuple(self):
        trace = Trace()
        ctx, fifo, _, _ = make_ctx(trace=trace)
        fifo.write("v")
        ctx.read("in_c")
        ctx.write("out_c", 1)
        ctx.read_input("i")
        ctx.write_output("done")
        ctx.assign("x", 3)
        assert trace.raw == [
            ("R", "p", "in_c", "v"),
            ("W", "p", "out_c", 1),
            ("r", "p", "i", 1, "sample-1"),
            ("w", "p", "o", 1, "done"),
            ("A", "p", "x", 3),
        ]
        assert trace.actions == [
            ChannelRead("p", "in_c", "v"),
            ChannelWrite("p", "out_c", 1),
            ExternalRead("p", "i", 1, "sample-1"),
            ExternalWrite("p", "o", 1, "done"),
            Assign("p", "x", 3),
        ]


class TestProcessAndBehavior:
    def test_process_generator_shortcuts(self):
        p = Process("p", PeriodicGenerator(100, deadline=80, burst=3),
                    KernelBehavior(lambda ctx: None))
        assert p.period == 100
        assert p.deadline == 80
        assert p.burst == 3
        assert not p.is_sporadic

    def test_kernel_behavior_initial_variables_are_copied(self):
        b = KernelBehavior(lambda ctx: None, initial={"x": 1})
        v1, v2 = b.initial_variables(), b.initial_variables()
        v1["x"] = 99
        assert v2["x"] == 1

    def test_kernel_must_be_callable(self):
        with pytest.raises(TypeError):
            KernelBehavior("not callable")

    def test_empty_process_name_rejected(self):
        from repro.errors import SemanticsError

        with pytest.raises(SemanticsError):
            Process("", PeriodicGenerator(1), KernelBehavior(lambda c: None))
