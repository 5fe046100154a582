"""The ``python -m repro`` CLI (ISSUE 8): config round-trips, sweep rows
bit-identical to in-process runs, diff exit codes, progress and spans."""

import json
import subprocess
import sys

import pytest

from repro import ScenarioMatrix, run_sweep
from repro.apps import fig1_scenario
from repro.cli import main
from repro.io.json_io import (
    matrix_to_dict,
    scenario_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
)

METRICS = ["executed_jobs", "missed_jobs", "makespan"]


def write_json(path, payload):
    # No sort_keys: matrix axis order is enumeration order and must
    # survive the round trip.
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


@pytest.fixture
def run_config(tmp_path):
    return write_json(tmp_path / "run.json", {
        "format": "fppn-config",
        "version": 1,
        "scenario": scenario_to_dict(fig1_scenario(n_frames=2)),
        "metrics": METRICS,
    })


def sweep_matrix():
    return ScenarioMatrix(
        fig1_scenario(n_frames=1),
        {"processors": [2, 3], "jitter_seed": [0, 1]},
    )


@pytest.fixture
def sweep_config(tmp_path):
    return write_json(tmp_path / "sweep.json", {
        "format": "fppn-config",
        "version": 1,
        "matrix": matrix_to_dict(sweep_matrix()),
        "metrics": METRICS,
    })


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------
class TestRun:
    def test_run_config_round_trip(self, run_config, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["run", run_config, "-o", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["format"] == "fppn-sweep"
        result = sweep_result_from_dict(document)

        reference = run_sweep(
            ScenarioMatrix(fig1_scenario(n_frames=2), {}), tuple(METRICS)
        )
        assert result.rows == reference.rows
        assert result.metrics == tuple(METRICS)

    def test_run_writes_json_to_stdout_by_default(self, run_config, capsys):
        assert main(["run", run_config]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["format"] == "fppn-sweep"
        assert len(document["rows"]) == 1

    def test_bare_scenario_document_is_accepted(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "scenario.json",
            scenario_to_dict(fig1_scenario(n_frames=1)),
        )
        assert main(["run", config]) == 0
        document = json.loads(capsys.readouterr().out)
        # No metrics named: the full default metric set is computed.
        assert "kernel_busy" in document["metrics"]

    def test_spans_export(self, run_config, tmp_path, capsys):
        spans_path = tmp_path / "spans.json"
        out = tmp_path / "out.json"
        assert main([
            "run", run_config, "-o", str(out), "--spans", str(spans_path)
        ]) == 0
        document = json.loads(spans_path.read_text())
        assert document["format"] == "fppn-spans"
        spans = document["spans"]
        assert spans[0]["kind"] == "run" and spans[0]["parent_id"] is None
        frame_ids = {s["span_id"] for s in spans if s["kind"] == "frame"}
        assert frame_ids  # the frame level sits between run and kernels
        assert all(
            s["parent_id"] == 1 for s in spans if s["kind"] == "frame"
        )
        kernels = [s for s in spans if s["kind"] == "kernel"]
        assert kernels and all(s["parent_id"] in frame_ids for s in kernels)
        # The metrics table is still produced alongside the spans.
        assert json.loads(out.read_text())["rows"]

    def test_progress_renders_on_stderr(self, run_config, capsys):
        assert main(["run", run_config, "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[run] cell 1/1" in captured.err
        assert "[run] done:" in captured.err
        json.loads(captured.out)  # stdout stays pure JSON

    def test_matrix_config_is_refused_for_run(self, sweep_config, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", sweep_config])
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
class TestSweep:
    def test_parallel_store_sweep_rows_bit_identical(
        self, sweep_config, tmp_path, capsys
    ):
        # The acceptance criterion: CLI sweep with --workers 2 --store
        # produces rows bit-identical to an in-process serial run_sweep.
        out = tmp_path / "out.json"
        store = tmp_path / "s.db"
        assert main([
            "sweep", sweep_config, "--workers", "2",
            "--store", str(store), "-o", str(out),
        ]) == 0
        result = sweep_result_from_dict(json.loads(out.read_text()))
        reference = run_sweep(sweep_matrix(), tuple(METRICS))
        assert result.rows == reference.rows
        assert result.stats.workers == 2

        # Rerun resumes from the store: zero executions, same rows.
        out2 = tmp_path / "out2.json"
        assert main([
            "sweep", sweep_config, "--store", str(store), "-o", str(out2),
        ]) == 0
        resumed = sweep_result_from_dict(json.loads(out2.read_text()))
        assert resumed.rows == reference.rows
        assert resumed.stats.store_hits == len(sweep_matrix())
        assert resumed.stats.runs == 0

    def test_serial_sweep_to_stdout(self, sweep_config, capsys):
        assert main(["sweep", sweep_config]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["rows"]) == len(sweep_matrix())

    def test_progress_renders_cells_and_groups(self, sweep_config, capsys):
        assert main([
            "sweep", sweep_config, "--workers", "2", "--progress"
        ]) == 0
        captured = capsys.readouterr()
        assert "enqueued 4 cell(s) in 2 group(s)" in captured.err
        assert "cell 4/4" in captured.err
        assert "[sweep] done:" in captured.err
        json.loads(captured.out)

    def test_scenario_config_sweeps_as_single_cell(self, run_config, capsys):
        assert main(["sweep", run_config]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["rows"]) == 1

    def test_faults_from_config_become_error_rows(self, tmp_path, capsys):
        config = write_json(tmp_path / "faulted.json", {
            "format": "fppn-config",
            "version": 1,
            "matrix": matrix_to_dict(sweep_matrix()),
            "metrics": METRICS,
            "faults": {"raise_at": [1]},
        })
        assert main(["sweep", config]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["rows"]) == 3
        assert len(document["failed_rows"]) == 1
        assert document["stats"]["failed_cells"] == 1


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------
@pytest.fixture
def sweep_docs(tmp_path):
    result = run_sweep(sweep_matrix(), tuple(METRICS))
    doc = sweep_result_to_dict(result)
    a = write_json(tmp_path / "a.json", doc)
    regressed = json.loads(json.dumps(doc))
    regressed["rows"][0]["metrics"]["makespan"] = {"$frac": "99999/1"}
    b_same = write_json(tmp_path / "b_same.json", doc)
    b_reg = write_json(tmp_path / "b_reg.json", regressed)
    return a, b_same, b_reg


class TestDiff:
    def test_identical_files_exit_zero(self, sweep_docs, capsys):
        a, b_same, _ = sweep_docs
        assert main(["diff", a, b_same]) == 0
        assert "identical" in capsys.readouterr().out

    def test_regression_exits_one_and_names_the_metric(
        self, sweep_docs, capsys
    ):
        a, _, b_reg = sweep_docs
        assert main(["diff", a, b_reg]) == 1
        captured = capsys.readouterr()
        assert "makespan" in captured.out
        assert "regression(s) past tolerance" in captured.err

    def test_tolerance_admits_the_drift(self, sweep_docs):
        a, _, b_reg = sweep_docs
        # Enormous tolerance: the drift is reported but not a failure.
        assert main(["diff", a, b_reg, "--tolerance", "1e9"]) == 0

    def test_cross_cpus_bench_snapshots_refuse(self, tmp_path, capsys):
        a = write_json(tmp_path / "ba.json",
                       {"cpus": 1, "cases": {"x": {"wall_s": 0.1}}})
        b = write_json(tmp_path / "bb.json",
                       {"cpus": 8, "cases": {"x": {"wall_s": 0.1}}})
        assert main(["diff", a, b]) == 2
        assert "different hosts" in capsys.readouterr().err

    def test_bench_snapshots_gate_on_slowdown(self, tmp_path, capsys):
        a = write_json(tmp_path / "ba.json",
                       {"cpus": 2, "cases": {"x": {"wall_s": 0.1}}})
        b = write_json(tmp_path / "bb.json",
                       {"cpus": 2, "cases": {"x": {"wall_s": 0.2}}})
        assert main(["diff", a, b, "--tolerance", "0.5"]) == 1
        assert main(["diff", a, b, "--tolerance", "1.5"]) == 0
        capsys.readouterr()

    def test_mismatched_kinds_refuse(self, sweep_docs, tmp_path, capsys):
        a, _, _ = sweep_docs
        bench = write_json(tmp_path / "bench.json",
                           {"cpus": 2, "cases": {}})
        assert main(["diff", a, bench]) == 2
        assert "different kinds" in capsys.readouterr().err

    def test_mismatched_metric_sets_refuse(self, sweep_docs, tmp_path, capsys):
        a, _, _ = sweep_docs
        other = sweep_result_to_dict(
            run_sweep(sweep_matrix(), ("executed_jobs",))
        )
        b = write_json(tmp_path / "other.json", other)
        assert main(["diff", a, b]) == 2
        assert "metric sets differ" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config errors and the module entry point
# ---------------------------------------------------------------------------
class TestEntryPoint:
    def test_missing_file_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "/nonexistent/config.json"])
        assert excinfo.value.code == 2

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(path)])
        assert excinfo.value.code == 2

    def test_unknown_format_exits_two(self, tmp_path, capsys):
        config = write_json(tmp_path / "odd.json", {"format": "whatever"})
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", config])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("field", [
        "workers", "port", "max_retries", "max_cached_groups",
        "max_cached_payloads",
    ])
    @pytest.mark.parametrize("value", ["two", True, 2.0, None])
    def test_serve_refuses_a_non_integer_field(
        self, tmp_path, capsys, field, value
    ):
        # Refused before any server or worker starts, like "workers": 0.
        config = write_json(tmp_path / "server.json", {
            "format": "fppn-server", "version": 1, field: value,
        })
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", config])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"field {field!r} must be an integer" in err

    @pytest.mark.parametrize("value", ["x", -1, 0, True])
    def test_serve_refuses_a_bad_group_timeout(self, tmp_path, capsys, value):
        # null or seconds > 0; refused before any server or worker starts.
        config = write_json(tmp_path / "server.json", {
            "format": "fppn-server", "version": 1, "group_timeout": value,
        })
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", config])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "field 'group_timeout' must be" in err

    def test_serve_refuses_retry_backoff(self, tmp_path, capsys):
        # The retry backoff is a pool constant, not a server option.
        config = write_json(tmp_path / "server.json", {
            "format": "fppn-server", "version": 1, "retry_backoff": 0.1,
        })
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", config])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "retry_backoff" in err

    def test_python_dash_m_entry(self, run_config):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", run_config],
            capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        document = json.loads(proc.stdout)
        assert document["format"] == "fppn-sweep"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
