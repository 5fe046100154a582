"""``python -m repro`` — run scenarios and sweeps from JSON configs.

The operational surface over the experiment layer, STOMP-style (the
related toolchain drives everything through one JSON-configurable entry
point).  Three subcommands:

``run <config.json>``
    Execute one scenario and print its metrics table as an
    ``fppn-sweep`` JSON document (a one-row sweep, so ``run`` output and
    ``sweep`` output diff uniformly).  ``--spans <path>`` additionally
    exports the run as an OTel-style span list
    (:class:`repro.runtime.telemetry.SpanObserver`).

``sweep <config.json>``
    Execute a scenario matrix and print the ``SweepResult`` JSON.
    ``--workers`` fans out across worker processes, ``--store`` attaches
    a durable SQLite checkpoint (resumable sweeps), ``--group-timeout``
    / ``--max-retries`` / ``--on-error`` map onto the fault-tolerance
    knobs of :func:`repro.experiment.run_sweep`, and ``--progress``
    renders live per-cell/per-group progress on stderr
    (:class:`repro.runtime.telemetry.ProgressObserver`).
    ``--server HOST:PORT`` routes the same config to a remote sweep
    server instead of executing locally — rows stream back over the
    wire bit-identically (pool sizing and the store then live
    server-side, so ``--workers``/``--store``/``--group-timeout`` are
    rejected).

``serve <config.json>``
    Start a sweep server (:class:`repro.service.SweepServer`): one
    shared warm pool plus an optional shared SQLite store, serving
    JSON-RPC sweep traffic until a client sends ``shutdown`` or
    Ctrl-C.  The config is an ``fppn-server`` document; every field
    is optional, and an absent one takes the pool's default::

        {
          "format": "fppn-server", "version": 1,
          "host": "127.0.0.1", "port": 7341,
          "workers": 2,
          "store": "sweeps.db",
          "group_timeout": null, "max_retries": 2,
          "max_cached_groups": 8, "max_cached_payloads": 64
        }

    ``host`` is a string, ``port`` an integer >= 0 (0: any free port),
    ``store`` null or a SQLite path, ``workers``, ``max_cached_groups``
    and ``max_cached_payloads`` integers >= 1, ``max_retries`` an integer
    >= 0 and ``group_timeout`` null (no deadline) or seconds > 0; ``true``
    is no integer.  A bad field exits 2 before any worker starts.

    ``--host``/``--port`` override the config; ``--ready-file PATH``
    writes ``host:port`` once the socket is bound (scripts and CI poll
    it instead of parsing stderr — essential with ``port: 0``).

``diff <a.json> <b.json>``
    Compare two result files (sweep tables or ``BENCH_*.json``
    snapshots) through :mod:`repro.analysis.compare` and exit nonzero
    past ``--tolerance`` — the CI perf-gate primitive.  Exit codes:
    0 within tolerance, 1 regression, 2 not comparable.

Config files are either a bare artifact — an ``fppn-scenario`` document
(``run``) or an ``fppn-matrix`` document (``sweep``) — or an
``fppn-config`` wrapper naming one of those plus run options::

    {
      "format": "fppn-config",
      "version": 1,
      "scenario": { ... fppn-scenario ... },   // or "matrix": {...}
      "metrics": ["executed_jobs", "makespan"],
      "faults": {"raise_at": [1]}              // optional, for drills
    }

Results go to stdout (or ``-o``); progress and diagnostics go to
stderr, so ``python -m repro run cfg.json | jq .`` just works.
Workloads must be registered names (the built-in apps register
``fig1`` / ``fft`` / ``fms`` / ``fms-40s`` on import) — scenarios
carrying bare code cannot come from JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Mapping, NoReturn, Optional

from .errors import FPPNError

#: Ensures the built-in workload names resolve for scenarios loaded
#: from JSON before any run starts.
from . import apps as _apps  # noqa: F401

__all__ = ["main"]


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"{path} is not valid JSON: {exc}")


def _parse_config(data: Any, path: str) -> Dict[str, Any]:
    """Normalise any accepted config shape to the fppn-config fields."""
    from .experiment.fields import Field, decode_fields, names
    from .io.json_io import (
        fault_plan_from_dict,
        matrix_from_dict,
        scenario_from_dict,
    )

    if not isinstance(data, Mapping):
        _fail(f"{path}: expected a JSON object, got {type(data).__name__}")
    fmt = data.get("format")
    decoded = lambda value, what: value  # noqa: E731  (checked by its decoder)
    try:
        if fmt == "fppn-scenario":
            return {"scenario": scenario_from_dict(data)}
        if fmt == "fppn-matrix":
            return {"matrix": matrix_from_dict(data)}
        if fmt == "fppn-config":
            out = decode_fields((
                Field("scenario", decoded, decode=scenario_from_dict),
                Field("matrix", decoded, decode=matrix_from_dict),
                Field("metrics", names),
                Field("faults", decoded, decode=fault_plan_from_dict),
            ), data, "fppn-config")
            if "scenario" not in out and "matrix" not in out:
                _fail(f"{path}: fppn-config needs a 'scenario' or 'matrix'")
            return out
    except FPPNError as exc:
        _fail(f"{path}: {exc}")
    _fail(
        f"{path}: unrecognised config format {fmt!r} — expected "
        "fppn-config, fppn-scenario or fppn-matrix"
    )


def _emit(document: Mapping[str, Any], output: Optional[str]) -> None:
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {output}", file=sys.stderr)


def _progress_sinks(enabled: bool, total_cells: int, label: str):
    if not enabled:
        return None, None, None
    from .runtime.telemetry import ProgressObserver

    observer = ProgressObserver(total_cells=total_cells, label=label)
    return observer, observer.on_row, observer.on_event


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiment import DEFAULT_METRICS, ScenarioMatrix, run_sweep
    from .io.json_io import save_json, spans_to_jsonable, sweep_result_to_dict

    config = _parse_config(_load_json(args.config), args.config)
    scenario = config.get("scenario")
    if scenario is None:
        _fail(
            f"{args.config}: 'run' needs a scenario config — use "
            "'sweep' for matrix configs"
        )
    metrics = config.get("metrics", DEFAULT_METRICS)
    matrix = ScenarioMatrix(scenario, {})

    span_observer = None
    observer_factory = None
    if args.spans is not None:
        from .runtime.telemetry import SpanObserver

        span_observer = SpanObserver()
        # One cell, one live run: the factory forces the serial path and
        # a live (non-store, non-lean-skipped) execution, which is what
        # span collection needs anyway.
        observer_factory = lambda cell: [span_observer]  # noqa: E731
    progress, on_row, on_progress = _progress_sinks(
        args.progress, len(matrix), "run"
    )

    try:
        result = run_sweep(
            matrix, metrics,
            observer_factory=observer_factory,
            on_error="raise",
            on_row=on_row, on_progress=on_progress,
        )
    except FPPNError as exc:
        _fail(str(exc))
    except Exception as exc:  # the scenario's own code may raise anything
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if progress is not None:
        progress.finish(result.stats)
    if span_observer is not None:
        save_json(spans_to_jsonable(span_observer.spans), args.spans)
        print(
            f"wrote {len(span_observer.spans)} span(s) to {args.spans}",
            file=sys.stderr,
        )
    _emit(sweep_result_to_dict(result), args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiment import (
        DEFAULT_METRICS,
        ScenarioMatrix,
        SqliteSweepStore,
        run_sweep,
    )
    from .io.json_io import sweep_result_to_dict

    config = _parse_config(_load_json(args.config), args.config)
    matrix = config.get("matrix")
    if matrix is None:
        # A scenario-only config sweeps as a single-cell matrix, so one
        # config file can serve both subcommands.
        matrix = ScenarioMatrix(config["scenario"], {})
    metrics = config.get("metrics", DEFAULT_METRICS)
    progress, on_row, on_progress = _progress_sinks(
        args.progress, len(matrix), "sweep"
    )

    if args.server is not None:
        # Pool sizing and the checkpoint store are the server's to
        # configure; silently ignoring these flags would misreport what
        # actually ran.
        for name, given in (
            ("--workers", args.workers != 1),
            ("--store", args.store is not None),
            ("--group-timeout", args.group_timeout is not None),
        ):
            if given:
                _fail(
                    f"{name} is a server-side setting — configure it in "
                    "the fppn-server config, not together with --server"
                )
        return _sweep_remote(
            args, matrix, metrics, config, progress, on_row, on_progress
        )

    store = SqliteSweepStore(args.store) if args.store is not None else None
    try:
        result = run_sweep(
            matrix, metrics,
            workers=args.workers,
            store=store,
            faults=config.get("faults"),
            on_error=args.on_error,
            group_timeout=args.group_timeout,
            max_retries=args.max_retries,
            on_row=on_row, on_progress=on_progress,
        )
    except FPPNError as exc:
        _fail(str(exc))
    except Exception as exc:
        print(f"sweep failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if progress is not None:
        progress.finish(result.stats)
    _emit(sweep_result_to_dict(result), args.output)
    return 0


def _sweep_remote(
    args: argparse.Namespace,
    matrix: Any,
    metrics: Any,
    config: Mapping[str, Any],
    progress: Any,
    on_row: Any,
    on_progress: Any,
) -> int:
    from .errors import SweepError
    from .io.json_io import sweep_result_to_dict
    from .service import ServiceClient

    try:
        with ServiceClient.from_address(args.server) as client:
            result = client.run_sweep(
                matrix, metrics,
                faults=config.get("faults"),
                on_error=args.on_error,
                on_row=on_row, on_progress=on_progress,
            )
    except SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    except FPPNError as exc:
        _fail(str(exc))
    if progress is not None:
        progress.finish(result.stats)
    _emit(sweep_result_to_dict(result), args.output)
    return 0


def _parse_server_config(data: Any, path: str) -> Dict[str, Any]:
    """The fields an fppn-server document holds, checked, by name."""
    from .experiment.fields import Field, decode_fields, integer, optional, text
    from .experiment.pool_core import POOL_OPTIONS

    if not isinstance(data, Mapping):
        _fail(f"{path}: expected a JSON object, got {type(data).__name__}")
    fmt = data.get("format")
    if fmt != "fppn-server":
        _fail(
            f"{path}: unrecognised config format {fmt!r} — 'serve' "
            "expects an fppn-server document"
        )
    fields = (
        Field("host", text), Field("port", integer(0)),
        Field("store", optional(text)), *POOL_OPTIONS,
    )
    try:
        return decode_fields(fields, data, "fppn-server", ("format", "version"))
    except FPPNError as exc:
        _fail(f"{path}: {exc}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import SweepServer

    # A shell's background job ignores SIGINT: let it shut the server down.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    # Only the fields the document holds are forwarded: the defaults are
    # SweepServer's and SweepPool's.
    options = _parse_server_config(_load_json(args.config), args.config)
    for name in ("host", "port"):
        if getattr(args, name) is not None:
            options[name] = getattr(args, name)
    try:
        server = SweepServer(**options)
        bound_host, bound_port = server.start()
    except FPPNError as exc:
        _fail(str(exc))
    print(f"serving sweeps on {bound_host}:{bound_port}", file=sys.stderr)
    if args.ready_file is not None:
        with open(args.ready_file, "w", encoding="utf-8") as fh:
            fh.write(f"{bound_host}:{bound_port}\n")
    try:
        server.wait()
    except KeyboardInterrupt:
        print("interrupted — shutting down", file=sys.stderr)
    finally:
        server.close()
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .analysis.compare import compare_files

    comparison = compare_files(args.a, args.b, tolerance=args.tolerance)
    for warning in comparison.warnings:
        print(warning, file=sys.stderr)
    if comparison.refusal is not None:
        print(comparison.refusal, file=sys.stderr)
        return comparison.exit_code
    for line in comparison.lines:
        print(line)
    if comparison.regressions:
        print(
            f"\n{len(comparison.regressions)} regression(s) past "
            f"tolerance {args.tolerance:.0%}:",
            file=sys.stderr,
        )
        for line in comparison.regressions:
            print(f"  ! {line}", file=sys.stderr)
    return comparison.exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="execute one scenario from a JSON config"
    )
    run.add_argument("config", help="fppn-scenario or fppn-config JSON file")
    run.add_argument(
        "-o", "--output", default=None,
        help="write the result JSON here instead of stdout",
    )
    run.add_argument(
        "--spans", default=None, metavar="PATH",
        help="also export the run as an OTel-style JSON span list",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="render live progress on stderr",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="execute a scenario matrix from a JSON config"
    )
    sweep.add_argument("config", help="fppn-matrix or fppn-config JSON file")
    sweep.add_argument(
        "-o", "--output", default=None,
        help="write the SweepResult JSON here instead of stdout",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial in-process, the default)",
    )
    sweep.add_argument(
        "--store", default=None, metavar="PATH",
        help="SQLite checkpoint store — completed cells survive reruns",
    )
    sweep.add_argument(
        "--group-timeout", type=float, default=None, metavar="SECONDS",
        help="per-group deadline for the parallel supervisor",
    )
    sweep.add_argument(
        "--max-retries", type=int, default=2,
        help="group redispatches after worker crash/timeout (default 2)",
    )
    sweep.add_argument(
        "--on-error", choices=("capture", "raise"), default="capture",
        help="failing cells become error rows (capture, default) or "
             "abort the sweep (raise)",
    )
    sweep.add_argument(
        "--progress", action="store_true",
        help="render live per-cell/per-group progress on stderr",
    )
    sweep.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="route the sweep to a remote sweep server instead of "
             "executing locally (pool/store flags then live server-side)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve", help="serve sweep traffic over TCP from a shared warm pool"
    )
    serve.add_argument("config", help="fppn-server JSON config file")
    serve.add_argument(
        "--host", default=None,
        help="bind address (overrides the config; default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="bind port (overrides the config; 0 = ephemeral)",
    )
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write HOST:PORT here once the socket is bound",
    )
    serve.set_defaults(func=_cmd_serve)

    diff = sub.add_parser(
        "diff", help="compare two result files (sweep tables or "
                     "BENCH_*.json snapshots)"
    )
    diff.add_argument("a", help="baseline result file")
    diff.add_argument("b", help="candidate result file")
    diff.add_argument(
        "--tolerance", type=float, default=0.0, metavar="FRACTION",
        help="relative drift allowed before exit 1 (default 0.0 — exact)",
    )
    diff.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
