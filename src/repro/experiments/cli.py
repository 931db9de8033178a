"""The ``repro`` command-line interface.

Local subcommands run the hierarchical flow in-process::

    repro list                         # registered scenarios
    repro run table2                   # run (or resume) a scenario
    repro run table2 --evaluation serial --force
    repro report table2                # summarise cached artefacts

``run`` is resumable: artefacts are checkpointed per stage under the
scenario's config hash (see :mod:`repro.experiments.cache`), so a second
invocation of the same scenario loads the cached stages and is
bit-identical to the cold run.  ``--evaluation`` / ``--n-workers`` /
``--seed`` override the registered scenario; only ``--seed`` changes the
config hash (backends are bit-identical, so they share cache entries).

Service subcommands talk to the experiment service
(:mod:`repro.service`), which shares work between many clients::

    repro serve --workers 4 --port 8321    # job store + worker pool + HTTP API
    repro serve --workers 1 --max-workers 8       # autoscale on queue depth
    repro submit fast-smoke --wait         # POST /v1/jobs, poll, print the report
    repro submit-sweep 'vco-sweep-*' --technology generic012,generic065
                                           # glob x axis product, batched submits
    repro portfolio portfolio-table2 --submit     # fan one portfolio into child jobs
    repro portfolio portfolio-table2 --report     # merged cross-technology Pareto view
    repro status <job-id-or-scenario>      # GET /v1/jobs/<id> (+ stage events)
    repro cancel <job-id-or-scenario>      # DELETE /v1/jobs/<id>
    repro jobs --state queued              # GET /v1/jobs (paginated underneath)
    repro events <job-id-or-scenario>      # live SSE stream of progress events
    repro trace <job-id-or-scenario>       # per-job timing profile (span tree)

``serve`` boots the asyncio front end (keep-alive, SSE streaming, the
dashboard at ``/``); the dashboard is plain static files, so a browser
pointed at the service URL needs no extra setup.

The module doubles as ``python -m repro.experiments.cli`` for environments
where the console script is not installed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.cache import ArtefactCache, STAGES, default_cache_dir
from repro.experiments.config import ScenarioConfig
from repro.experiments.registry import (
    SCENARIOS,
    get_scenario,
    list_scenarios,
    scenario_names,
)
from repro.experiments.report import report_payload
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.optim.evaluation import EVALUATOR_CHOICES

__all__ = ["main", "build_parser"]

#: Default URL the client subcommands talk to (matches ``repro serve``).
DEFAULT_URL = "http://127.0.0.1:8321"


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scenario registry and resumable runner for the hierarchical PLL flow.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered scenarios")

    run = subparsers.add_parser("run", help="run (or resume) a scenario")
    run.add_argument("scenario", help="registered scenario name (see 'repro list')")
    run.add_argument(
        "--evaluation",
        choices=EVALUATOR_CHOICES,
        default=None,
        help="batch-evaluation backend override (does not change the cache key)",
    )
    run.add_argument(
        "--n-workers", type=int, default=None, help="worker count of the SPICE batch pool"
    )
    run.add_argument(
        "--seed", type=int, default=None, help="seed override (changes the cache key)"
    )
    run.add_argument("--cache-dir", default=None, help="cache root (default: .repro-cache)")
    run.add_argument(
        "--force", action="store_true", help="recompute every stage, overwriting checkpoints"
    )
    run.add_argument(
        "--output-dir",
        default=None,
        help="also export the combined model (.tbl files and Verilog-A) here",
    )
    run.add_argument(
        "--json", action="store_true", help="print the run summary as JSON instead of text"
    )

    report = subparsers.add_parser("report", help="summarise a scenario's cached artefacts")
    report.add_argument("scenario", help="registered scenario name")
    report.add_argument("--cache-dir", default=None, help="cache root (default: .repro-cache)")
    report.add_argument(
        "--seed", type=int, default=None, help="seed override used when the run was cached"
    )
    report.add_argument("--max-rows", type=int, default=10, help="Table-2 rows to print")
    report.add_argument(
        "--json", action="store_true", help="print the stored summary as JSON instead of text"
    )
    report.add_argument(
        "--timing",
        action="store_true",
        help="also print per-stage timings from the recorded trace (if any)",
    )

    serve = subparsers.add_parser(
        "serve", help="run the experiment service (job store + worker pool + HTTP API)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8321, help="bind port (0 picks a free one)")
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes, the pool's floor (crashed workers are replaced);"
            " 0 runs a coordinator-only service for remote workers"
        ),
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help=(
            "autoscale on queue depth up to this many worker processes"
            " (default: --workers, a fixed pool)"
        ),
    )
    serve.add_argument(
        "--cache-dir", default=None, help="artefact cache root (default: .repro-cache)"
    )
    serve.add_argument(
        "--db", default=None, help="job database path (default: <cache-dir>/service.db)"
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="seconds before an unheartbeated job is reclaimed",
    )
    serve.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="stdlib logging level of the repro.service.* loggers",
    )

    worker = subparsers.add_parser(
        "worker", help="run a remote worker against a coordinator's /v1 API"
    )
    worker.add_argument(
        "--coordinator",
        required=True,
        metavar="URL",
        help="coordinator base URL, e.g. http://host:8321",
    )
    worker.add_argument(
        "--cache-dir",
        default=None,
        help="local read-through artefact cache root (default: .repro-cache)",
    )
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="seconds between claim attempts when the queue is empty",
    )
    worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after executing this many jobs (default: run until terminated)",
    )
    worker.add_argument(
        "--name", default=None, help="worker name reported to the coordinator"
    )
    worker.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="stdlib logging level of the repro.service.* loggers",
    )

    submit = subparsers.add_parser("submit", help="submit a scenario to a running service")
    submit.add_argument("scenario", help="registered scenario name (see 'repro list')")
    submit.add_argument("--url", default=DEFAULT_URL, help="service URL")
    submit.add_argument(
        "--evaluation",
        choices=EVALUATOR_CHOICES,
        default=None,
        help="batch-evaluation backend override (does not change the job id)",
    )
    submit.add_argument(
        "--n-workers", type=int, default=None, help="worker count of the SPICE batch pool"
    )
    submit.add_argument(
        "--seed", type=int, default=None, help="seed override (changes the job id)"
    )
    submit.add_argument(
        "--wait", action="store_true", help="poll until the job finishes, then print it"
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout in seconds"
    )
    submit.add_argument("--json", action="store_true", help="print the job as JSON")

    status = subparsers.add_parser("status", help="show one job of a running service")
    status.add_argument(
        "job", help="job id (config hash) or registered scenario name to resolve"
    )
    status.add_argument("--url", default=DEFAULT_URL, help="service URL")
    status.add_argument(
        "--seed", type=int, default=None, help="seed override used when submitting"
    )
    status.add_argument("--json", action="store_true", help="print the job as JSON")

    cancel = subparsers.add_parser("cancel", help="cancel a job of a running service")
    cancel.add_argument(
        "job", help="job id (config hash) or registered scenario name to resolve"
    )
    cancel.add_argument("--url", default=DEFAULT_URL, help="service URL")
    cancel.add_argument(
        "--seed", type=int, default=None, help="seed override used when submitting"
    )
    cancel.add_argument("--json", action="store_true", help="print the job as JSON")

    jobs = subparsers.add_parser("jobs", help="list the jobs of a running service")
    jobs.add_argument("--url", default=DEFAULT_URL, help="service URL")
    jobs.add_argument(
        "--state",
        default=None,
        choices=("queued", "leased", "running", "done", "failed", "cancelled"),
        help="only jobs in this state",
    )
    jobs.add_argument("--json", action="store_true", help="print the job list as JSON")

    events = subparsers.add_parser(
        "events", help="stream a job's progress events live (SSE)"
    )
    events.add_argument(
        "job", help="job id (config hash) or registered scenario name to resolve"
    )
    events.add_argument("--url", default=DEFAULT_URL, help="service URL")
    events.add_argument(
        "--seed", type=int, default=None, help="seed override used when submitting"
    )
    events.add_argument(
        "--after", type=int, default=None, help="resume after this event sequence number"
    )
    events.add_argument(
        "--json", action="store_true", help="print each event as one JSON line"
    )

    trace = subparsers.add_parser(
        "trace", help="show a job's timing profile as an indented span tree"
    )
    trace.add_argument(
        "job", help="job id (config hash) or registered scenario name to resolve"
    )
    trace.add_argument("--url", default=DEFAULT_URL, help="service URL")
    trace.add_argument(
        "--seed", type=int, default=None, help="seed override used when submitting"
    )
    trace.add_argument(
        "--local",
        action="store_true",
        help="read trace.jsonl from the local cache instead of the service",
    )
    trace.add_argument(
        "--cache-dir", default=None, help="cache root for --local (default: .repro-cache)"
    )
    trace.add_argument(
        "--json", action="store_true", help="print the span records as JSON"
    )

    sweep = subparsers.add_parser(
        "submit-sweep",
        help="expand a scenario glob (x technology axis) into batched submissions",
    )
    sweep.add_argument(
        "pattern", help="glob over registered scenario names, e.g. 'vco-sweep-*'"
    )
    sweep.add_argument(
        "--technology",
        default=None,
        metavar="LIST",
        help=(
            "comma-separated technology axis fanned across every matched "
            "scenario, e.g. generic012,generic065 (default: each scenario's own)"
        ),
    )
    sweep.add_argument("--url", default=DEFAULT_URL, help="service URL")
    sweep.add_argument(
        "--seed", type=int, default=None, help="seed override (changes every job id)"
    )
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expansion without submitting anything",
    )
    sweep.add_argument(
        "--json", action="store_true", help="print the submitted jobs as JSON"
    )

    portfolio = subparsers.add_parser(
        "portfolio",
        help="cross-technology portfolios: list, run locally, submit, merged report",
    )
    portfolio.add_argument(
        "name",
        nargs="?",
        default=None,
        help="registered portfolio name (omit to list the registry)",
    )
    portfolio.add_argument(
        "--run",
        action="store_true",
        help="run every child scenario locally, then print the merged report",
    )
    portfolio.add_argument(
        "--submit",
        action="store_true",
        help="fan the children out as jobs of a running service",
    )
    portfolio.add_argument(
        "--report",
        action="store_true",
        help="print the merged cross-technology report",
    )
    portfolio.add_argument(
        "--local",
        action="store_true",
        help="with --report: read the local cache instead of asking the service",
    )
    portfolio.add_argument(
        "--url", default=DEFAULT_URL, help="service URL for --submit / --report"
    )
    portfolio.add_argument(
        "--cache-dir",
        default=None,
        help="cache root for --run / --report --local (default: .repro-cache)",
    )
    portfolio.add_argument(
        "--force", action="store_true", help="with --run: recompute every stage"
    )
    portfolio.add_argument("--json", action="store_true", help="JSON output")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "cancel":
        return _cmd_cancel(args)
    if args.command == "events":
        return _cmd_events(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "submit-sweep":
        return _cmd_submit_sweep(args)
    if args.command == "portfolio":
        return _cmd_portfolio(args)
    # Resolve the scenario up front: an unknown name or an invalid override
    # value is a usage error (one line on stderr, exit 2); anything raised
    # later is a genuine failure and propagates with its traceback.
    try:
        scenario = _scenario_with_overrides(args)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: invalid override: {error}", file=sys.stderr)
        return 2
    if args.command == "run":
        return _cmd_run(args, scenario)
    if args.command == "report":
        return _cmd_report(args, scenario)
    if args.command == "submit":
        return _cmd_submit(args, scenario)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


# -- subcommands -------------------------------------------------------------------------


def _cmd_list() -> int:
    # One row per registered scenario with its full metadata -- topology,
    # technology card, corner set and budgets -- not just the bare name,
    # so `repro list` answers "what would this run?" without opening the
    # registry source.
    scenarios = list_scenarios()
    print(
        f"{'name':<18} {'topology':<16} {'tech':<10} {'stages':>6} "
        f"{'circuit GA':>12} {'system GA':>11} {'MC/pt':>5} {'yield':>5} "
        f"{'corners':<8} {'specs':<14} description"
    )
    for scenario in scenarios:
        print(
            f"{scenario.name:<18} {scenario.topology:<16} {scenario.technology:<10} "
            f"{scenario.n_stages:>6} "
            f"{scenario.circuit_population:>5}x{scenario.circuit_generations:<3} "
            f"{scenario.system_population:>7}x{scenario.system_generations:<3} "
            f"{scenario.mc_samples_per_point:>5} {scenario.yield_samples:>5} "
            f"{scenario.corners or '-':<8} {scenario.specifications:<14} "
            f"{scenario.description}"
        )
    return 0


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The scenario overrides carried by the common CLI flags.

    One definition for every subcommand that accepts them: ``run`` and
    ``report`` apply them locally, ``submit`` forwards them to the server.
    """
    overrides = {}
    if getattr(args, "evaluation", None) is not None:
        overrides["evaluation"] = args.evaluation
    if getattr(args, "n_workers", None) is not None:
        overrides["n_workers"] = args.n_workers
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return overrides


def _scenario_with_overrides(args: argparse.Namespace) -> ScenarioConfig:
    scenario = get_scenario(args.scenario)
    overrides = _overrides_from_args(args)
    return scenario.with_overrides(**overrides) if overrides else scenario


def _cmd_run(args: argparse.Namespace, scenario: ScenarioConfig) -> int:
    runner = ExperimentRunner(scenario, cache_dir=args.cache_dir, force=args.force)
    result = runner.run(output_directory=args.output_dir)
    if args.json:
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
        return 0
    _print_run(result)
    return 0


def _print_run(result: ExperimentResult) -> None:
    print(f"scenario     : {result.scenario.name}")
    print(f"config hash  : {result.config_hash}")
    if result.cache_dir is not None:
        print(f"cache entry  : {result.cache_dir}")
    for outcome in result.outcomes:
        print(f"  stage {outcome.stage:<13}: {outcome.source:<9} ({outcome.seconds:.3f} s)")
    print(f"elapsed      : {result.elapsed:.3f} s")
    print("--- flow summary ---")
    for key, value in result.report.summary().items():
        print(f"  {key:28s}: {value:.6g}")
    if result.report.system_stage.selected is not None:
        print("--- selected design solution ---")
        for name, value in result.report.selected_values.items():
            print(f"  {name:8s}: {value:.6g}")


def _cmd_report(args: argparse.Namespace, scenario: ScenarioConfig) -> int:
    # The payload builder is shared with the service's GET /v1/jobs/<id>/report,
    # so both front ends report the identical JSON for one configuration.
    payload = report_payload(scenario, args.cache_dir)
    if payload is None:
        print(
            f"error: no cached artefacts for scenario {scenario.name!r} "
            f"(hash {scenario.config_hash()}) under {ArtefactCache(args.cache_dir).root}; "
            f"run 'repro run {scenario.name}' first",
            file=sys.stderr,
        )
        return 1
    present = payload["stages_present"]
    summary = payload["summary"]
    entry = ArtefactCache(args.cache_dir).entry_for(scenario)
    if args.json:
        if args.timing:
            payload = dict(payload, trace_spans=entry.read_trace() or [])
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"scenario     : {scenario.name}")
    print(f"config hash  : {scenario.config_hash()}")
    print(f"cache entry  : {entry.directory}")
    print(f"stages cached: {', '.join(present)} (of {', '.join(STAGES)})")
    if summary:
        print("--- last recorded summary ---")
        for key, value in sorted(summary.items()):
            print(f"  {key:28s}: {value}")
    if entry.has("system"):
        system = entry.load("system")
        rows = system.table2_records(max_rows=args.max_rows)
        if rows:
            print(f"--- Table-2 style rows (first {len(rows)}) ---")
            columns = list(rows[0])
            print("  " + " ".join(f"{column:>16s}" for column in columns))
            for row in rows:
                print("  " + " ".join(f"{row[column]:16.4g}" for column in columns))
    if args.timing:
        _print_stage_timings(entry.read_trace() or [])
    return 0


# -- service subcommands -----------------------------------------------------------------


def _configure_logging(level_name: str) -> None:
    """Wire the ``repro.service.*`` loggers to stderr at the given level."""
    import logging

    logging.basicConfig(
        level=getattr(logging, level_name.upper(), logging.INFO),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    # Service imports stay local so plain `repro run` never pays for them.
    import signal

    from repro.service.api import make_async_server
    from repro.service.store import SqliteJobStore
    from repro.service.worker import Autoscaler

    _configure_logging(args.log_level)
    maximum = args.max_workers if args.max_workers is not None else args.workers
    if args.workers == 0 and args.max_workers is not None:
        print("error: --max-workers needs a local pool (--workers >= 1)", file=sys.stderr)
        return 2
    if args.workers < 0 or maximum < args.workers:
        print(
            f"error: need 0 <= --workers ({args.workers}) <= --max-workers ({maximum})",
            file=sys.stderr,
        )
        return 2
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    db_path = Path(args.db) if args.db else cache_dir / "service.db"
    store = SqliteJobStore(db_path, lease_ttl=args.lease_ttl)
    # The asyncio front end: one event loop serves every connection
    # (keep-alive, SSE streams, the dashboard) and bridges store calls to
    # a thread pool, so the API stays responsive under hundreds of clients.
    server = make_async_server(args.host, args.port, store, cache_dir)
    try:
        host, port = server.start()
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    # With --workers 0 the service is coordinator-only: execution is
    # delegated to `repro worker --coordinator` processes on this or
    # other hosts.
    pool = None
    workers_label = "coordinator-only, remote workers"
    if args.workers:
        pool = Autoscaler(
            db_path,
            cache_dir,
            min_workers=args.workers,
            max_workers=maximum,
            lease_ttl=args.lease_ttl,
        )
        pool.start()
        workers_label = (
            f"{args.workers} worker(s)"
            if maximum == args.workers
            else f"{args.workers}-{maximum} autoscaled worker(s)"
        )
    # SIGTERM (docker stop, systemd, CI traps) must tear the worker pool
    # down like Ctrl+C does -- the default handler would kill this process
    # without running the finally block, orphaning the worker processes.
    # Raising from the handler unwinds serve_forever's select loop.
    def _sigterm(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _sigterm)
    print(
        f"repro service listening on http://{host}:{port} "
        f"({workers_label}, db {db_path}, cache {cache_dir})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if pool is not None:
            pool.stop()
        server.shutdown()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.service.worker import remote_worker_loop

    _configure_logging(args.log_level)
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()

    def _sigterm(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _sigterm)
    print(
        f"repro worker polling {args.coordinator} (cache {cache_dir})",
        flush=True,
    )
    try:
        executed = remote_worker_loop(
            args.coordinator,
            cache_dir,
            poll_interval=args.poll_interval,
            max_jobs=args.max_jobs,
            worker_name=args.name,
        )
    except KeyboardInterrupt:
        return 0
    print(f"repro worker done ({executed} job(s) executed)", flush=True)
    return 0


def _client(url: str):
    from repro.service.client import ServiceClient

    return ServiceClient(url)


def _service_call(call):
    """Run one client call, mapping service/transport errors to exit codes."""
    from repro.service.client import ServiceError

    try:
        return call(), 0
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return None, 2 if error.status == 404 else 1
    except TimeoutError as error:
        print(f"error: {error}", file=sys.stderr)
        return None, 1
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach the service: {error}", file=sys.stderr)
        return None, 1


def _print_job(job: dict) -> None:
    print(f"job          : {job['id']}")
    print(f"scenario     : {job['scenario']}")
    print(f"state        : {job['state']}")
    if job.get("cancel_requested"):
        print("cancel       : requested (worker will stop at its next checkpoint)")
    print(f"attempts     : {job['attempts']}")
    if job.get("worker"):
        print(f"worker       : {job['worker']}")
    if job.get("error"):
        print(f"error        : {job['error'].strip().splitlines()[-1]}")
    # The service answers a status with every non-progress event plus the
    # newest progress event per stage.
    for event in job.get("events", ()):
        payload = event.get("payload") or {}
        if "front" in payload:  # the Pareto points are chart data, not text
            payload = {key: value for key, value in payload.items() if key != "front"}
        numbers = ", ".join(
            f"{key}={value:.6g}" if isinstance(value, (int, float)) else f"{key}={value}"
            for key, value in payload.items()
        )
        print(f"  stage {event['stage']:<13}: {event['status']:<9} {numbers}")
    summary = job.get("summary")
    if summary:
        print("--- run summary ---")
        for key, value in sorted(summary.items()):
            print(f"  {key:28s}: {value}")


def _cmd_submit(args: argparse.Namespace, scenario: ScenarioConfig) -> int:
    client = _client(args.url)
    overrides = _overrides_from_args(args)
    job, code = _service_call(lambda: client.submit(scenario.name, overrides))
    if job is None:
        return code
    created = job.get("created")
    if args.wait:
        # wait() polls GET /v1/jobs/<id>, whose payload already carries the
        # stage events -- no re-fetch needed once it turns terminal.
        job, code = _service_call(
            lambda: client.wait(job["id"], timeout=args.timeout)
        )
        if job is None:
            return code
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
    else:
        if created is not None:
            print("submitted new job" if created else "joined existing job")
        _print_job(job)
    # failed AND cancelled are unsuccessful outcomes: a script chaining
    # `repro submit --wait && <use the report>` must not proceed when
    # someone cancelled the job mid-run.
    return 1 if job["state"] in ("failed", "cancelled") else 0


def _resolve_job_id(args: argparse.Namespace) -> str:
    """The job id addressed by ``args.job`` (scenario names resolve to hashes)."""
    if args.job in SCENARIOS:
        scenario = get_scenario(args.job)
        if args.seed is not None:
            scenario = scenario.with_overrides(seed=args.seed)
        return scenario.config_hash()
    return args.job


def _cmd_status(args: argparse.Namespace) -> int:
    client = _client(args.url)
    job, code = _service_call(lambda: client.job(_resolve_job_id(args)))
    if job is None:
        return code
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
    else:
        _print_job(job)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    client = _client(args.url)
    job, code = _service_call(lambda: client.cancel(_resolve_job_id(args)))
    if job is None:
        return code
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0
    print(
        "job cancelled"
        if job["state"] == "cancelled"
        else "cancel requested (the worker stops at its next checkpoint boundary)"
    )
    _print_job(job)
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    client = _client(args.url)
    # client.jobs is a transparently-paginating iterator; materialise it
    # inside _service_call so pagination errors map to exit codes too.
    jobs, code = _service_call(lambda: list(client.jobs(state=args.state)))
    if jobs is None:
        return code
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    print(f"{'job id':<18} {'scenario':<14} {'state':<8} {'attempts':>8} worker")
    for job in jobs:
        print(
            f"{job['id']:<18} {job['scenario']:<14} {job['state']:<8} "
            f"{job['attempts']:>8} {job.get('worker') or '-'}"
        )
    return 0


def _cmd_submit_sweep(args: argparse.Namespace) -> int:
    """Expand a registry glob (x technology axis) into batched submissions.

    ``repro submit-sweep 'vco-sweep-*' --technology generic012,generic065``
    posts one job per (matched scenario, technology) pair and prints a
    summary table of job ids; pairs whose config hash matches an existing
    job report as deduplicated rather than creating duplicate work.
    """
    import fnmatch

    matched = [
        name for name in scenario_names() if fnmatch.fnmatchcase(name, args.pattern)
    ]
    if not matched:
        print(
            f"error: no registered scenario matches {args.pattern!r} (see 'repro list')",
            file=sys.stderr,
        )
        return 2
    if args.technology is not None:
        technologies: List[Optional[str]] = [
            tech.strip() for tech in args.technology.split(",") if tech.strip()
        ]
        if not technologies:
            print("error: --technology must name at least one technology", file=sys.stderr)
            return 2
    else:
        technologies = [None]
    expansion = []
    for name in matched:
        for technology in technologies:
            overrides: dict = {}
            if technology is not None:
                # The name override is hash-excluded, so a pair whose
                # technology equals the scenario's own still dedups
                # against the plain scenario's job.
                overrides["technology"] = technology
                overrides["name"] = f"{name}@{technology}"
            if args.seed is not None:
                overrides["seed"] = args.seed
            expansion.append((name, technology, overrides))
    if args.dry_run:
        print(f"{'scenario':<18} {'technology':<12} job id")
        for name, technology, overrides in expansion:
            scenario = get_scenario(name)
            if overrides:
                scenario = scenario.with_overrides(**overrides)
            print(f"{name:<18} {technology or '(default)':<12} {scenario.config_hash()}")
        print(f"{len(expansion)} submission(s) (dry run, nothing posted)")
        return 0
    client = _client(args.url)
    rows: List[dict] = []

    def submit_all() -> List[dict]:
        for name, technology, overrides in expansion:
            job = client.submit(name, overrides or None)
            rows.append(
                dict(job, sweep_scenario=name, sweep_technology=technology)
            )
        return rows

    result, code = _service_call(submit_all)
    if result is None:
        return code
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(f"{'scenario':<18} {'technology':<12} {'job id':<18} {'state':<8} created")
    for row in rows:
        print(
            f"{row['sweep_scenario']:<18} {row['sweep_technology'] or '(default)':<12} "
            f"{row['id']:<18} {row['state']:<8} "
            f"{'new' if row.get('created') else 'dedup'}"
        )
    created = sum(1 for row in rows if row.get("created"))
    print(f"{len(rows)} submission(s): {created} new, {len(rows) - created} deduplicated")
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    """List, locally run, submit or report a cross-technology portfolio."""
    from repro.experiments.portfolio import (
        get_portfolio,
        list_portfolios,
        merged_portfolio_report,
    )

    if args.name is None:
        portfolios = list_portfolios()
        if args.json:
            print(
                json.dumps(
                    [portfolio.as_dict() for portfolio in portfolios],
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(f"{'name':<18} {'base':<12} {'technologies':<24} description")
        for portfolio in portfolios:
            print(
                f"{portfolio.name:<18} {portfolio.base_scenario:<12} "
                f"{','.join(portfolio.technologies):<24} {portfolio.description}"
            )
        return 0
    try:
        portfolio = get_portfolio(args.name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.submit:
        client = _client(args.url)
        result, code = _service_call(lambda: client.submit_portfolio(portfolio.name))
        if result is None:
            return code
        if args.json:
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        print(f"{'child':<28} {'job id':<18} {'state':<8} created")
        for job in result["jobs"]:
            print(
                f"{job['scenario']:<28} {job['id']:<18} {job['state']:<8} "
                f"{'new' if job.get('created') else 'dedup'}"
            )
        print(
            f"{len(result['jobs'])} child job(s): {result['created']} new, "
            f"{result['deduplicated']} deduplicated"
        )
        return 0
    if args.run:
        for child in portfolio.child_scenarios():
            runner = ExperimentRunner(child, cache_dir=args.cache_dir, force=args.force)
            result = runner.run()
            print(
                f"child {child.name:<28} hash {result.config_hash} "
                f"({result.elapsed:.3f} s)"
            )
        payload = merged_portfolio_report(portfolio, args.cache_dir)
    elif args.report and args.local:
        payload = merged_portfolio_report(portfolio, args.cache_dir)
    elif args.report:
        client = _client(args.url)
        payload, code = _service_call(lambda: client.portfolio_report(portfolio.name))
        if payload is None:
            return code
    else:
        if args.json:
            print(json.dumps(portfolio.as_dict(), indent=2, sort_keys=True))
        else:
            _print_portfolio_description(portfolio.as_dict())
        return 0
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    _print_portfolio_report(payload)
    return 0


def _print_portfolio_description(info: dict) -> None:
    print(f"portfolio    : {info['name']}")
    print(f"base         : {info['base_scenario']}")
    print(f"description  : {info['description']}")
    for child in info["children"]:
        print(f"  {child['name']:<28} {child['technology']:<12} {child['config_hash']}")


def _print_portfolio_report(payload: dict) -> None:
    info = payload["portfolio"]
    print(f"portfolio    : {info['name']}")
    print(f"base         : {info['base_scenario']}")
    for child in payload["children"]:
        stages = ", ".join(child["stages_present"]) or "nothing cached"
        extras = []
        if child.get("front_size") is not None:
            extras.append(f"front={child['front_size']}")
        if child.get("job_state"):
            extras.append(f"job={child['job_state']}")
        suffix = f"  ({', '.join(extras)})" if extras else ""
        print(f"  {child['name']:<28} {child['config_hash']}  {stages}{suffix}")
    print(f"merged front : {payload['merged_front_size']} point(s)")
    for technology, count in sorted(payload["merged_front_by_technology"].items()):
        print(f"  {technology:<12}: {count} point(s)")


def _cmd_events(args: argparse.Namespace) -> int:
    """Stream one job's events to stdout until it reaches a terminal state."""
    client = _client(args.url)
    job_id = _resolve_job_id(args)

    def stream() -> Optional[str]:
        final_state = None
        for event in client.stream_events(job_id, last_event_id=args.after):
            if event.get("event") == "end":
                final_state = event.get("state")
                break
            if args.json:
                print(json.dumps(event, sort_keys=True), flush=True)
                continue
            payload = event.get("payload") or {}
            if "front" in payload:
                payload = {k: v for k, v in payload.items() if k != "front"}
            numbers = ", ".join(
                f"{key}={value:.6g}" if isinstance(value, (int, float)) else f"{key}={value}"
                for key, value in payload.items()
            )
            print(
                f"#{event['seq']:<4} {event['stage']:<13} {event['status']:<9} {numbers}",
                flush=True,
            )
        return final_state

    final_state, code = _service_call(stream)
    if code:
        return code
    if not args.json:
        print(f"job finished: {final_state}")
    return 1 if final_state in ("failed", "cancelled") else 0


def _span_tree_lines(spans: List[dict]) -> List[str]:
    """Render span records as an indented duration tree.

    Spans whose parent is missing from the record set (e.g. a child
    process's spans whose parent was re-parented across a merge gap)
    print as roots rather than disappearing.
    """
    ids = {span["span_id"] for span in spans}
    children: dict = {}
    for span in spans:
        parent = span.get("parent_id")
        children.setdefault(parent if parent in ids else None, []).append(span)
    lines: List[str] = []

    def walk(parent: Optional[str], depth: int) -> None:
        ordered = sorted(
            children.get(parent, ()),
            key=lambda span: (span.get("start", 0.0), span["span_id"]),
        )
        for span in ordered:
            attrs = span.get("attrs") or {}
            detail = " ".join(
                f"{key}={value}" for key, value in sorted(attrs.items())
            )
            duration_ms = float(span.get("duration", 0.0)) * 1000.0
            line = f"{duration_ms:>10.1f} ms  {'  ' * depth}{span['name']}"
            lines.append(line + (f"  [{detail}]" if detail else ""))
            walk(span["span_id"], depth + 1)

    walk(None, 0)
    return lines


def _print_stage_timings(spans: List[dict]) -> None:
    """The per-stage timing table ``repro report --timing`` prints."""
    stages = [span for span in spans if str(span.get("name", "")).startswith("stage.")]
    if not stages:
        print("no stage spans recorded (run with REPRO_OBS enabled to collect them)")
        return
    checkpoint_seconds = sum(
        float(span.get("duration", 0.0))
        for span in spans
        if span.get("name") == "checkpoint.store"
    )
    print("--- stage timings (from trace.jsonl) ---")
    for span in sorted(stages, key=lambda record: record.get("start", 0.0)):
        attrs = span.get("attrs") or {}
        source = attrs.get("source", "?")
        name = str(span["name"])[len("stage."):]
        print(f"  {name:<13}: {float(span.get('duration', 0.0)):>9.3f} s  ({source})")
    print(f"  {'checkpoints':<13}: {checkpoint_seconds:>9.3f} s  (all stores)")


def _cmd_trace(args: argparse.Namespace) -> int:
    job_id = _resolve_job_id(args)
    if args.local:
        from repro.experiments.cache import CacheEntry

        entry = CacheEntry(ArtefactCache(args.cache_dir).root / job_id)
        spans = entry.read_trace()
        if not spans:
            print(
                f"error: no trace recorded for job {job_id}"
                f" under {entry.directory}",
                file=sys.stderr,
            )
            return 1
        payload = {"job_id": job_id, "spans": spans, "span_count": len(spans)}
    else:
        client = _client(args.url)
        payload, code = _service_call(lambda: client.trace(job_id))
        if payload is None:
            return code
        spans = payload["spans"]
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"job          : {payload.get('job_id', job_id)}")
    if payload.get("state"):
        print(f"state        : {payload['state']}")
    print(f"trace id     : {payload.get('trace_id', spans[0].get('trace_id', job_id))}")
    print(f"spans        : {len(spans)}")
    for line in _span_tree_lines(spans):
        print(line)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
