# Developer entry points.  PYTHONPATH is injected so no install is needed.

PY := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python

.PHONY: test test-faults test-pool test-hetero test-ticks bench bench-smoke bench-json bench-diff bench-ab cov lint cli-smoke service-smoke

# Tier-1 verification: the full unit/integration suite plus benchmarks-as-tests.
test:
	$(PY) -m pytest -x -q

# Fault-tolerance lane: deterministic fault injection (kernel raises,
# worker kills, timeouts, interrupts), the kill stress that must never
# wedge a resident pool, and the checkpoint-store resume suite.  Spawns
# real worker processes; also part of the tier-1 run.
test-faults:
	$(PY) -m pytest tests/test_sweep_faults.py tests/test_sweep_pool_kills.py \
		tests/test_sweep_store.py -q

# Sweep-engine lane: the pool's policy core in simulated time (affinity,
# tag fairness, backoff, retry budget, deadlines, boot failures, cancel,
# interrupt drain, a seeded fuzz of event sequences; starts no process),
# the resident pool (warm-cache resubmits, streaming rows, submission
# queue/cancel, lifecycle: orphans, crash respawn), the
# run_sweep(workers=N) path, the serial/workers=2/pool differential
# suite — three backends of one cell runner and one bookkeeper — and the
# sweep-row codec at every boundary a row crosses (document, service row
# stream, worker reply, checkpoint store; byte-stable fixtures), the
# served path's parent side (store keys from one stimulus encoding per
# submission, finished tickets releasing their inputs, a busy key's group
# on an idle slot, wake on commands) and liveness (a worker that cannot
# boot fails fast, re-streamed tickets, no command waits on a closed or
# dead driver).  Spawns real worker processes; also part of the tier-1
# run.
test-pool:
	$(PY) -m pytest tests/test_pool_core.py tests/test_sweep_pool.py \
		tests/test_sweep_parallel.py tests/test_sweep_backends.py \
		tests/test_sweep_wire.py tests/test_service_path.py \
		tests/test_pool_liveness.py -q

# Heterogeneous-platform lane: list scheduling, priority search, feasibility
# checks and runs on six platforms (homogeneous, speed-scaled, big/little,
# per-class WCET tables), on seeded random workloads x platforms, and on
# seeded hand-built DAGs whose arrivals are out of index order (the list
# scheduler's arrival walk) x homogeneous and big/little platforms x every
# heuristic, against the platform-aware Fraction oracles; exact speed
# scaling, platform sweep axes, and the pre-platform JSON back-compat
# fixtures.  Also part of the tier-1 run.
test-hetero:
	$(PY) -m pytest tests/test_hetero_equivalence.py \
		tests/test_hetero_oracles.py tests/test_hetero_differential.py \
		tests/test_unsorted_arrivals.py tests/test_io_json.py -q

# Tick-path lane: the integer-tick runtime against its Fraction oracles —
# timing records and schedules (test_tick_equivalence), data-phase
# observables (test_data_phase_equivalence), the tick-fed metrics and
# tick-sampled jitter against MetricsObserver.on_record and the Fraction
# reference sampler (test_tick_path), the jitter draw rule itself — golden
# draws, bounds, uniformity, hash-seed independence and accepted seed
# types (test_jitter_draws) — and tick-native static schedules
# against hand-built ones and the Fraction list scheduler and feasibility
# check (test_schedule_ticks); plus the runtime paths around them: the
# per-class observer rule and fast modes (test_observers), live-vs-replay
# data events (test_data_phase_events), the run plan's rejections and the
# arrival binding (test_static_order_binding), the stimulus's run memo —
# validation and bindings shared across sweeps by network structure,
# misses on a changed sporadic constraint or server spec, no network
# kept alive, samplers dropped with their sweep (test_stimulus_memo) —
# and the entry points the perfbench benchmark calls
# (test_perfbench_surface).  Also part of the tier-1 run.
test-ticks:
	$(PY) -m pytest tests/test_tick_equivalence.py \
		tests/test_data_phase_equivalence.py tests/test_tick_path.py \
		tests/test_jitter_draws.py tests/test_schedule_ticks.py \
		tests/test_observers.py tests/test_data_phase_events.py \
		tests/test_static_order_binding.py tests/test_stimulus_memo.py \
		tests/test_perfbench_surface.py -q

# Error-level lint (ruff.toml: syntax errors / undefined names only).
# Skips gracefully when ruff is not in the environment; CI installs it.
lint:
	@if $(PY) -c "import ruff" 2>/dev/null; then \
		$(PY) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed — skipping lint (pip install ruff)"; \
	fi

# Line coverage of the runtime package (the executor hot paths this repo
# keeps optimising), the experiment layer (the public scenario API,
# including experiment.store / experiment.faults / experiment.pool —
# the fault-tolerance surface) and the scheduling package (the
# platform-aware list scheduler / search / optimizer paths) with a hard
# floor.  Skips gracefully when pytest-cov is not in the environment; CI
# installs it.
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

# CI smoke lane: run every experiment benchmark in fast mode (timing
# disabled, assertions on) plus the perf-trajectory runner in --fast mode,
# so the hot tick-domain paths stay continuously exercised and any error
# fails the lane.  The runner's fms_sweep_2x3_workers2 case spawns real
# worker processes (run_sweep(workers=2) on a transient experiment.pool
# SweepPool), so the multiprocess sweep path is exercised on every push
# alongside tests/test_sweep_parallel.py.  Every sweep case refuses a
# result with failed rows or with cells neither run nor store-served.
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

# Operational-surface smoke: drive the shipped demo configs through the
# `python -m repro` CLI (run + spans, parallel sweep + sqlite resume),
# then gate the sweep against itself with `diff` — a zero-drift check of
# the whole config -> execute -> serialise -> compare loop.
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

# Served-sweep smoke: start a real `python -m repro serve` process on an
# ephemeral port, route the demo sweep to it with `sweep --server`, run
# the same config in-process, and gate remote vs local with `diff` at
# zero tolerance — served rows must be bit-identical to local ones.
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
		build/service-smoke/remote.json --tolerance 0.0
