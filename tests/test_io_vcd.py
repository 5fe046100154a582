"""Tests for the VCD waveform exporter."""

import pytest

from repro.apps import build_fig1_network, fig1_stimulus, fig1_wcets
from repro.io import VcdError, runtime_result_to_vcd, trace_to_vcd, write_vcd
from repro.io.vcd import _ident, _merge_intervals
from repro.runtime import OverheadModel, TraceObserver, run_static_order
from repro.scheduling import find_feasible_schedule, list_schedule
from repro.taskgraph import derive_task_graph


@pytest.fixture(scope="module")
def result():
    net = build_fig1_network()
    g = derive_task_graph(net, fig1_wcets())
    s = find_feasible_schedule(g, 2)
    return run_static_order(net, s, 2, fig1_stimulus(2))


class TestHelpers:
    def test_ident_unique_and_printable(self):
        ids = [_ident(i) for i in range(500)]
        assert len(set(ids)) == 500
        assert all(all(33 <= ord(c) <= 126 for c in i) for i in ids)

    def test_merge_intervals(self):
        assert _merge_intervals([(0, 5), (5, 10), (20, 30), (25, 27)]) == [
            (0, 10), (20, 30)
        ]

    def test_merge_drops_empty(self):
        assert _merge_intervals([(5, 5), (7, 6)]) == []


class TestVcdStructure:
    def test_header(self, result):
        text = runtime_result_to_vcd(result)
        assert "$timescale 1 us $end" in text
        assert "$enddefinitions $end" in text
        assert "$dumpvars" in text

    def test_declares_processor_and_process_wires(self, result):
        text = runtime_result_to_vcd(result)
        assert " M0 $end" in text and " M1 $end" in text
        assert " p_InputA $end" in text
        assert " deadline_miss $end" in text

    def test_has_value_changes(self, result):
        text = runtime_result_to_vcd(result)
        ticks = [l for l in text.splitlines() if l.startswith("#")]
        assert len(ticks) > 5
        # ticks strictly increasing
        values = [int(t[1:]) for t in ticks]
        assert values == sorted(values)

    def test_millisecond_grid_exact(self, result):
        # timestamps are integer ms; with 1 us ticks everything lands exactly
        text = runtime_result_to_vcd(result)
        assert "#25000" in text  # 25 ms -> 25000 us

    def test_coarse_timescale_rejected_for_fractional_times(self):
        net = build_fig1_network()
        g = derive_task_graph(net, fig1_wcets())
        s = find_feasible_schedule(g, 2)
        res = run_static_order(
            net, s, 1, fig1_stimulus(1),
            execution_time=lambda job, frame: job.wcet / 3,
        )
        with pytest.raises(VcdError, match="timescale"):
            runtime_result_to_vcd(res, timescale_ms=1)

    def test_finer_timescale_accepts_fractional_times(self):
        net = build_fig1_network()
        g = derive_task_graph(net, fig1_wcets())
        s = find_feasible_schedule(g, 2)
        res = run_static_order(
            net, s, 1, fig1_stimulus(1),
            execution_time=lambda job, frame: job.wcet / 2,
        )
        text = runtime_result_to_vcd(res, timescale_ms="1/2")
        assert text.startswith("$date")


class TestSemantics:
    def test_miss_pulses_present_iff_misses(self):
        net = build_fig1_network()
        g = derive_task_graph(net, fig1_wcets())
        s2 = find_feasible_schedule(g, 2)
        clean = run_static_order(net, s2, 2, fig1_stimulus(2))
        clean_text = runtime_result_to_vcd(clean)
        miss_ident = _find_ident(clean_text, "deadline_miss")
        assert f"1{miss_ident}" not in clean_text

        s1 = list_schedule(g, 1, "alap")
        dirty = run_static_order(
            net, s1, 2, fig1_stimulus(2, coef_arrivals=[150]),
        )
        dirty_text = runtime_result_to_vcd(dirty)
        miss_ident = _find_ident(dirty_text, "deadline_miss")
        assert f"1{miss_ident}" in dirty_text

    def test_zero_length_late_jobs_pulse_the_miss_wire(self):
        # Jobs that run in no time after a frame-arrival overhead past
        # their deadline: late, with no busy interval to draw.
        net = build_fig1_network()
        s = list_schedule(derive_task_graph(net, fig1_wcets()), 2, "alap")
        live = TraceObserver()
        res = run_static_order(
            net, s, 2, fig1_stimulus(2), lambda job, frame: 0,
            OverheadModel.create(
                first_frame_arrival=150, steady_frame_arrival=150),
            observers=[live],
        )
        missed = sorted(r.deadline for r in res.misses())
        assert missed and all(r.end == r.start for r in res.misses())
        assert sorted(live.miss_times) == missed
        text = runtime_result_to_vcd(res, timescale_ms=1)
        assert text == trace_to_vcd(live, timescale_ms=1)
        ident = _find_ident(text, "deadline_miss")
        assert _high_ticks(text, ident) == {int(d) for d in missed}

    def test_overhead_signal(self):
        net = build_fig1_network()
        g = derive_task_graph(net, fig1_wcets())
        s = find_feasible_schedule(g, 2)
        res = run_static_order(
            net, s, 2, fig1_stimulus(2), overheads=OverheadModel.mppa_like()
        )
        text = runtime_result_to_vcd(res)
        ov_ident = _find_ident(text, "runtime_overhead")
        assert f"1{ov_ident}" in text

    def test_write_vcd(self, tmp_path, result):
        path = tmp_path / "trace.vcd"
        write_vcd(result, str(path))
        assert path.read_text().startswith("$date")


def _find_ident(text: str, name: str) -> str:
    for line in text.splitlines():
        if line.startswith("$var") and line.split()[4] == name:
            return line.split()[3]
    raise AssertionError(f"signal {name} not declared")


def _high_ticks(text: str, ident: str) -> set:
    """The ticks at which wire *ident* is 1 in the VCD *text*."""
    high, now, rise = set(), 0, None
    for line in text.splitlines():
        if line.startswith("#"):
            now = int(line[1:])
        elif line == f"1{ident}":
            rise = now
        elif line == f"0{ident}" and rise is not None:
            high.update(range(rise, now))
            rise = None
    return high
