# Developer entry points.  PYTHONPATH is injected so no install is needed.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test test-faults test-pool test-hetero test-ticks test-semantics bench bench-smoke bench-json bench-diff bench-ab cov lint cli-smoke service-smoke

# Tier-1 verification: the full unit/integration suite plus benchmarks-as-tests.
test:
	$(PY) -m pytest -x -q

# Fault-tolerance lane: injected kernel faults, worker kills, timeouts and
# interrupts, the kill stress on a resident pool, and checkpoint-store
# resume.  Spawns real worker processes; also part of the tier-1 run.
test-faults:
	$(PY) -m pytest tests/test_sweep_faults.py tests/test_sweep_pool_kills.py \
		tests/test_sweep_store.py -q

# Sweep-engine lane: the pool's policy core in simulated time, the resident
# pool and its liveness, the serial/workers/pool backends against each other,
# the sweep-row codec at every boundary, and the served path's parent side.
# Spawns real worker processes; also part of the tier-1 run.
test-pool:
	$(PY) -m pytest tests/test_pool_core.py tests/test_sweep_pool.py \
		tests/test_sweep_parallel.py tests/test_sweep_backends.py \
		tests/test_sweep_wire.py tests/test_service_path.py \
		tests/test_pool_liveness.py -q

# Heterogeneous-platform lane: scheduling, search, feasibility and runs on
# homogeneous, speed-scaled and big/little platforms against the
# platform-aware Fraction oracles, plus JSON back-compat fixtures and the
# Scenario field table.  Also part of the tier-1 run.
test-hetero:
	$(PY) -m pytest tests/test_hetero_equivalence.py \
		tests/test_hetero_oracles.py tests/test_hetero_differential.py \
		tests/test_unsorted_arrivals.py tests/test_io_json.py \
		tests/test_field_table.py -q

# Tick-path lane: the integer-tick runtime (records, data phase, tick-fed
# metrics, packed jitter draws and their rule, tick-native schedules) against
# its Fraction oracles, plus the run plan, memos, observers, frozen task
# graphs and the perfbench entry points.  Also part of the tier-1 run.
test-ticks:
	$(PY) -m pytest tests/test_tick_equivalence.py \
		tests/test_data_phase_equivalence.py tests/test_tick_path.py \
		tests/test_jitter_draws.py tests/test_schedule_ticks.py \
		tests/test_observers.py tests/test_data_phase_events.py \
		tests/test_static_order_binding.py tests/test_stimulus_memo.py \
		tests/test_perfbench_surface.py tests/test_jobs_graph.py \
		tests/test_rank_memo.py tests/test_data_sharing.py -q

# Reference-semantics lane: the zero-delay and fixed-priority functional
# runs, traces and action recording, automata, the Prop. 2.1 checker, the
# data phase against its fresh-context oracle, and the replay consumers
# (data events, VCD, spans, Gantt and metrics).  Also part of tier-1.
test-semantics:
	$(PY) -m pytest tests/test_semantics.py tests/test_uniprocessor.py \
		tests/test_trace.py tests/test_process_context.py \
		tests/test_automaton.py tests/test_determinism_checker.py \
		tests/test_data_phase_equivalence.py tests/test_data_phase_events.py \
		tests/test_io_vcd.py tests/test_telemetry.py \
		tests/test_gantt_metrics.py -q

# Error-level lint (ruff.toml: syntax errors / undefined names only).
# Skips gracefully when ruff is not in the environment; CI installs it.
lint:
	@if $(PY) -c "import ruff" 2>/dev/null; then \
		$(PY) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed — skipping lint (pip install ruff)"; \
	fi

# Line coverage of the runtime, experiment and scheduling packages with a
# hard floor.  Skips gracefully when pytest-cov is not in the environment;
# CI installs it.
cov:
	@if $(PY) -c "import pytest_cov" 2>/dev/null; then \
		$(PY) -m pytest tests -q \
			--cov=repro.runtime --cov=repro.experiment \
			--cov=repro.scheduling \
			--cov-report=term-missing --cov-fail-under=85; \
	else \
		echo "pytest-cov not installed — skipping coverage (pip install pytest-cov)"; \
	fi

# The paper-experiment benchmark suite with pytest-benchmark timing tables.
bench:
	$(PY) -m pytest benchmarks -q -m experiment

# CI smoke lane: every experiment benchmark in fast mode (timing disabled,
# assertions on) and the perf-trajectory runner's --fast cases, including a
# workers=2 sweep.  Sweep cases refuse failed or unaccounted cells.
bench-smoke:
	$(PY) -m pytest benchmarks -q -m experiment --benchmark-disable
	$(PY) benchmarks/run_bench.py --fast

# Write a BENCH_<date>.json perf-trajectory snapshot (commit it in perf PRs).
bench-json:
	$(PY) benchmarks/run_bench.py --label $(or $(LABEL),dev)

# Compare two snapshots: make bench-diff A=benchmarks/BENCH_a.json B=...
# Refuses snapshots from hosts with different cpu counts — the
# parallel/pool lanes are not comparable across core counts.  Add
# TOLERANCE=0.05 to turn the report into a gate (exit 1 past 5%).
bench-diff:
	$(PY) benchmarks/run_bench.py --diff $(A) $(B) \
		$(if $(TOLERANCE),--tolerance $(TOLERANCE))

# A/B micro-benchmark of this checkout against another one:
#   make bench-ab PARENT=../parent [CASES="e9_schedule_40s ..."] [ROUNDS=15]
# PARENT is a checkout root holding src/ (e.g. `git archive` of the parent
# commit).  One resident process per tree runs the cases alternately for
# ROUNDS rounds; the report gives per-case medians, IQRs, the speedup of
# the medians and the change's win count.
bench-ab:
	@test -n "$(PARENT)" || { echo "usage: make bench-ab PARENT=<checkout>"; exit 2; }
	$(PY) benchmarks/run_bench.py --ab $(PARENT) \
		$(or $(CASES),e9_schedule_40s e9_schedule_loop_40s e4_fms_schedule e8_heuristics e8_search) \
		--rounds $(or $(ROUNDS),15)

# CLI smoke: the demo configs through `python -m repro` (run + spans,
# parallel sweep + sqlite resume), then `diff` of the two sweeps.  Last, a
# server config with "group_timeout": "x" and a sweep with a processors
# axis of ["two"] must each exit 2 with an `error:` line, no traceback.
cli-smoke:
	@rm -rf build/cli-smoke && mkdir -p build/cli-smoke
	$(PY) -m repro run examples/fig1_run.json \
		-o build/cli-smoke/run.json --spans build/cli-smoke/spans.json \
		--progress
	$(PY) -m repro sweep examples/fig1_sweep.json --workers 2 \
		--store build/cli-smoke/sweep.db -o build/cli-smoke/sweep_a.json \
		--progress
	$(PY) -m repro sweep examples/fig1_sweep.json \
		--store build/cli-smoke/sweep.db -o build/cli-smoke/sweep_b.json
	$(PY) -m repro diff build/cli-smoke/sweep_a.json \
		build/cli-smoke/sweep_b.json
	@echo '{"format": "fppn-server", "version": 1, "group_timeout": "x"}' \
		> build/cli-smoke/bad_server.json
	@$(PY) -c 'import json, sys; c = json.load(open(sys.argv[1])); \
		c["matrix"]["axes"]["processors"] = ["two"]; \
		json.dump(c, open(sys.argv[2], "w"))' \
		examples/fig1_sweep.json build/cli-smoke/bad_axis.json
	@for run in "serve build/cli-smoke/bad_server.json" \
		"sweep build/cli-smoke/bad_axis.json"; do \
		status=0; timeout 120 env $(PY) -m repro $$run < /dev/null > /dev/null \
			2> build/cli-smoke/refused.err || status=$$?; \
		cat build/cli-smoke/refused.err; \
		if [ $$status -ne 2 ] || ! grep -q '^error: ' build/cli-smoke/refused.err \
			|| grep -q Traceback build/cli-smoke/refused.err; then \
			echo "repro $$run was not refused cleanly (exit $$status)"; \
			exit 1; \
		fi; \
	done

# Served-sweep smoke: a real `python -m repro serve`, the demo sweep sent to
# it with `sweep --server`, gated against the in-process sweep at zero
# tolerance.  Then SIGINT must end the server and every process it spawned
# within 10 s; the trap's kill only cleans up after an earlier failure.
service-smoke:
	@rm -rf build/service-smoke && mkdir -p build/service-smoke
	@set -e; \
	$(PY) -m repro serve examples/sweep_server.json \
		--ready-file build/service-smoke/addr \
		> build/service-smoke/server.log 2>&1 < /dev/null & \
	server_pid=$$!; \
	trap 'kill $$server_pid 2>/dev/null || true; wait $$server_pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do \
		[ -s build/service-smoke/addr ] && break; \
		kill -0 $$server_pid 2>/dev/null || { \
			cat build/service-smoke/server.log; exit 1; }; \
		sleep 0.1; \
	done; \
	[ -s build/service-smoke/addr ] || { \
		echo "server never became ready"; \
		cat build/service-smoke/server.log; exit 1; }; \
	$(PY) -m repro sweep examples/fig1_sweep.json \
		--server "$$(cat build/service-smoke/addr)" --progress \
		-o build/service-smoke/remote.json; \
	$(PY) -m repro sweep examples/fig1_sweep.json \
		-o build/service-smoke/local.json; \
	$(PY) -m repro diff build/service-smoke/local.json \
		build/service-smoke/remote.json --tolerance 0.0; \
	children=$$(pgrep -P $$server_pid || true); \
	[ -n "$$children" ] || { echo "the server spawned no worker"; exit 1; }; \
	kill -INT $$server_pid; \
	for i in $$(seq 1 100); do \
		alive=$$(for pid in $$server_pid $$children; do \
			kill -0 $$pid 2>/dev/null && ps -o pid=,stat= -p $$pid \
				| grep -v ' Z' || true; done); \
		[ -z "$$alive" ] && break; \
		sleep 0.1; \
	done; \
	[ -z "$$alive" ] || { \
		echo "still running 10 s after SIGINT: $$alive"; \
		cat build/service-smoke/server.log; exit 1; }; \
	trap - EXIT; \
	wait $$server_pid
