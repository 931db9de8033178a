"""The benchmark's four workloads.

Each workload is a closed loop with one client: it makes its next call
only after the previous one returned, and never keeps more than two
threads or processes of load busy.  A workload sets itself up, runs one
iteration of its timed body at a time, checks every iteration's outputs
and counts the operations it attempted and the ones that failed.  For the
traced run it also produces its per-layer metrics.  :mod:`run` decides
how many iterations to time and turns them into the end-to-end metrics.

The ``repro`` package is imported inside the methods, after :mod:`run`
has put the checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import checks
from harness import ENTRY_POINTS, Tracer, store_entry_points

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The paper's seed: the default workload seed, and the scenario seed of
#: every ``table2`` run, whose outputs ``expected.json`` records.
DEFAULT_SEED = 2009

@dataclass
class Iteration:
    """What one timed iteration of a workload produced."""

    #: Wall-clock seconds of the timed body.
    wall: float
    #: Operations attempted and failed (see each workload's docstring).
    attempted: int
    failed: int
    #: Output-check problems; empty when the outputs are correct.
    problems: List[str] = field(default_factory=list)
    #: Seconds of each status poll the client made.
    latencies: List[float] = field(default_factory=list)
    #: Jobs that completed.
    jobs: int = 1
    #: Records in the job's own ``trace.jsonl``.
    obs_spans: int = 0
    #: A cache directory kept for a warm rerun.
    cache: Optional[Path] = None


@dataclass
class TraceResult:
    """What a traced run produced."""

    #: Per-layer metrics by name (layers a workload does not reach are absent).
    metrics: Dict[str, float]
    #: The untraced and traced iterations, for the output checks.
    iterations: List[Iteration]
    #: Span records: name, start, end, parent index, thread.
    spans: List[Dict[str, Any]]


def python_env() -> Dict[str, str]:
    """The environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def percentile(values: List[float], q: float) -> float:
    """The ``q`` th percentile, interpolated between the two nearest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def per_iteration(tracer: Tracer, iterations: int) -> Dict[str, float]:
    return {name: value / iterations for name, value in tracer.metrics.items()}


def overhead_pct(plain: List[Iteration], traced: List[Iteration]) -> float:
    """How much slower the traced iterations ran than the untraced ones."""
    slowdown = statistics.median(it.wall for it in traced) / statistics.median(
        it.wall for it in plain
    )
    return 100.0 * (slowdown - 1.0)


def traced_pairs(workload: Any, state: Any, work: Path, seconds: float):
    """Alternate untraced and traced iterations until ``seconds`` are used.

    Returns the untraced iterations, the traced ones and the tracer.  The
    last traced iteration keeps its cache directory for a warm rerun.
    """
    tracer = Tracer(ENTRY_POINTS)
    plain: List[Iteration] = []
    traced: List[Iteration] = []
    started = time.perf_counter()
    while True:
        plain.append(workload.iterate(state, work))
        if traced and traced[-1].cache is not None:
            shutil.rmtree(traced[-1].cache, ignore_errors=True)
        with tracer:
            traced.append(workload.iterate(state, work, keep=True))
        elapsed = time.perf_counter() - started
        if elapsed + plain[-1].wall + traced[-1].wall > seconds:
            return plain, traced, tracer


class InProcessWorkload:
    """Defaults for a workload that runs entirely in this process."""

    def teardown(self, state: Any) -> float:
        """Release the set-up; returns the peak RSS in MB of any child process."""
        return 0.0

    def warm_up(self, state: Any, work: Path) -> None:
        """Untimed work before the first timed iteration."""


class Table2(InProcessWorkload):
    """The paper-scale ``table2`` scenario through ``ExperimentRunner``.

    One iteration is one cold run (fresh cache directory) of
    ``get_scenario("table2")`` on the given backend.  One operation per
    iteration: the run, which fails if it raises or its outputs fail the
    check.  The circuit, system and yield pickles must hash to the
    recorded digests on both backends, and the run must spend the paper's
    3,100 circuit evaluations and 500 yield samples and report a finite
    summary.

    The workload seed does not reach this workload's inputs: every run
    computes the paper's scenario (seed 2009).  The cost of a run follows
    its scenario seed, and the spread between seeds would swamp the
    run-to-run spread the benchmark must resolve.
    """

    modules = ("repro.experiments.registry", "repro.experiments.runner")

    def __init__(self, evaluation: str, expected: Dict[str, Any]) -> None:
        self.name = f"table2-{evaluation}"
        self.evaluation = evaluation
        self.expected = expected
        self._runs = 0

    def setup(self, work: Path) -> Any:
        from repro.experiments.registry import get_scenario

        return get_scenario("table2").with_overrides(
            evaluation=self.evaluation, seed=DEFAULT_SEED
        )

    def iterate(self, scenario: Any, work: Path, keep: bool = False) -> Iteration:
        from repro.experiments.runner import ExperimentRunner

        self._runs += 1
        cache = work / f"{self.name}-cache-{self._runs}"
        runner = ExperimentRunner(scenario, cache_dir=cache)
        started = time.perf_counter()
        try:
            result = runner.run()
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            wall = time.perf_counter() - started
            shutil.rmtree(cache, ignore_errors=True)
            return Iteration(wall, 1, 1, [traceback.format_exc()])
        wall = time.perf_counter() - started
        report = result.report
        problems = checks.check_table2(
            result.cache_dir,
            report.circuit_stage.evaluations,
            report.yield_report.n_samples if report.yield_report is not None else 0,
            report.summary(),
            self.expected,
        )
        trace_file = result.cache_dir / "trace.jsonl"
        spans = len(trace_file.read_text().splitlines()) if trace_file.is_file() else 0
        if not keep:
            shutil.rmtree(cache, ignore_errors=True)
        return Iteration(
            wall,
            attempted=1,
            failed=int(bool(problems)),
            problems=problems,
            obs_spans=spans,
            cache=cache if keep else None,
        )

    def trace(self, work: Path, seconds: float) -> TraceResult:
        from repro.experiments.runner import ExperimentRunner

        scenario = self.setup(work)
        plain, traced, tracer = traced_pairs(self, scenario, work, seconds)
        metrics = per_iteration(tracer, len(traced))
        if traced[-1].cache is not None:
            started = time.perf_counter()
            ExperimentRunner(scenario, cache_dir=traced[-1].cache).run()
            metrics["experiments.resume_s"] = time.perf_counter() - started
            shutil.rmtree(traced[-1].cache, ignore_errors=True)
        metrics["obs.spans"] = traced[-1].obs_spans
        metrics["obs.trace_overhead_pct"] = overhead_pct(plain, traced)
        return TraceResult(metrics, plain + traced, tracer.span_records())


class SpiceVerify(InProcessWorkload):
    """Transistor-level verification of the paper's ``table2`` model.

    Set-up builds the combined model of the registered ``table2`` scenario
    (circuit stage, vectorised backend) and the lane-engine SPICE
    evaluator with one worker.  One iteration runs
    ``flow.verification_stage`` on the model's default three points.  The
    operations are the SPICE lanes, two per point; a lane pair fails when
    its performance is the failure penalty.  The error summary must equal
    the recorded one within the stated relative tolerance.

    The workload seed does not reach this workload's inputs: the cost of
    a verification follows the Newton iterations its model points need,
    which differ by about 10 % between models of different seeds, and
    that would swamp the run-to-run spread the benchmark must resolve.
    """

    name = "spice-verify"
    modules = ("repro.experiments.registry", "repro.core.flow")

    def __init__(self, expected: Dict[str, Any]) -> None:
        self.expected = expected

    def setup(self, work: Path) -> Any:
        from repro.core.flow import HierarchicalFlow
        from repro.experiments.registry import get_scenario

        scenario = get_scenario("table2").with_overrides(
            evaluation="vectorised", spice_engine="lanes", n_workers=1
        )
        flow = HierarchicalFlow.from_scenario(scenario)
        model = flow.circuit_stage().model
        return flow, model, flow.spice_evaluator()

    def iterate(self, state: Any, work: Path, keep: bool = False) -> Iteration:
        flow, model, evaluator = state
        started = time.perf_counter()
        try:
            report = flow.verification_stage(model, verification_evaluator=evaluator)
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            wall = time.perf_counter() - started
            lanes = 2 * self.expected["spice_points"]
            return Iteration(wall, lanes, lanes, [traceback.format_exc()])
        wall = time.perf_counter() - started
        measured = [point.measured for point in report.points]
        attempted, failed = checks.spice_lane_failures(measured)
        problems = checks.check_spice(report.summary(), measured, self.expected)
        return Iteration(wall, attempted, failed, problems)

    def trace(self, work: Path, seconds: float) -> TraceResult:
        state = self.setup(work)
        plain, traced, tracer = traced_pairs(self, state, work, seconds)
        metrics = per_iteration(tracer, len(traced))
        metrics["obs.trace_overhead_pct"] = overhead_pct(plain, traced)
        return TraceResult(metrics, plain + traced, tracer.span_records())


@dataclass
class _Service:
    server: Any
    client: Any
    child: subprocess.Popen
    cache: Path


#: HTTP routes whose busy seconds the traced service drain reports by name.
ROUTE_METRICS = {
    ("POST", "/v1/jobs"): "service.http_s.submit",
    ("GET", "/v1/jobs/{job_id}"): "service.http_s.job",
    ("POST", "/v1/claim"): "service.http_s.claim",
    ("POST", "/v1/jobs/{job_id}/heartbeat"): "service.http_s.heartbeat",
    ("POST", "/v1/jobs/{job_id}/events"): "service.http_s.events",
    ("POST", "/v1/jobs/{job_id}/outcome"): "service.http_s.outcome",
    ("PUT", "/v1/artifacts/{config_hash}/{name}"): "service.http_s.artifact_put",
    ("GET", "/v1/artifacts/{config_hash}/{name}"): "service.http_s.artifact_get",
}
OTHER_ROUTES = "service.http_s.other"

_SAMPLE = re.compile(r"^repro_http_request_seconds_(sum|count)\{(.*)\} (\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def http_route_totals(exposition: str) -> Dict[Tuple[str, str], List[float]]:
    """``(method, route) -> [busy seconds, requests]`` from a metrics scrape."""
    totals: Dict[Tuple[str, str], List[float]] = {}
    for line in exposition.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        kind, labels, value = match.groups()
        label = dict(_LABEL.findall(labels))
        slot = totals.setdefault((label.get("method", ""), label.get("route", "")), [0.0, 0.0])
        slot[0 if kind == "sum" else 1] += float(value)
    return totals


def http_metrics(before: str, after: str) -> Dict[str, float]:
    """Per-route busy seconds and the request count between two scrapes."""
    start = http_route_totals(before)
    metrics = {name: 0.0 for name in list(ROUTE_METRICS.values()) + [OTHER_ROUTES]}
    requests = 0.0
    for route, (seconds, count) in http_route_totals(after).items():
        previous = start.get(route, [0.0, 0.0])
        metrics[ROUTE_METRICS.get(route, OTHER_ROUTES)] += seconds - previous[0]
        requests += count - previous[1]
    metrics["service.http_requests"] = requests
    return metrics


def process_peak_mb(pid: int) -> float:
    """Peak resident memory of a live process (``VmHWM``), 0 when unknown."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


#: ``fast-smoke`` seeds the service-drain jobs are drawn from.  The three
#: left out end ``failed``: with fast-smoke's small budgets their Monte
#: Carlo model degenerates and interpolation raises ``InterpolationError``.
JOB_SEEDS = tuple(seed for seed in range(10000, 10600) if seed not in (10169, 10393, 10589))


class ServiceDrain:
    """A remote worker draining a queue of small jobs through the service.

    Set-up starts a coordinator (``make_async_server`` over a fresh
    ``SqliteJobStore``) in this process and one ``repro worker
    --coordinator`` child process.  One iteration submits a batch of
    distinct-seed ``fast-smoke`` jobs (vectorised backend, the next seeds
    of :data:`JOB_SEEDS`), then polls every unfinished job in turn with
    ``ServiceClient.job`` until all finish.  The operations are the jobs
    plus the HTTP requests: a job fails unless it ends ``done`` in one
    attempt, a request fails on a non-2xx answer or a connection error.

    The workload seed does not reach this workload's inputs: every run
    drains the same sequence of jobs.  A job's cost follows its seed, and
    batches of other seeds took up to 40 % longer, which would swamp the
    run-to-run spread the benchmark must resolve.
    """

    name = "service-drain"
    modules = ("repro.service.api", "repro.service.client", "repro.service.store")
    #: Jobs submitted per iteration.
    BATCH = 12
    #: Pause between two status polls: about seventy polls per batch
    #: without the client taking the coordinator's core from the worker.
    #: Polling more often made each poll slower and the drain's
    #: wall-clock follow the host's load more closely.
    POLL_PAUSE = 0.035
    #: Longest a drain may take before the unfinished jobs count as failed.
    DRAIN_TIMEOUT = 120.0
    #: Lease TTL of the coordinator's store.  The worker heartbeats every
    #: third of it, so a job of about 0.3 s sends one or two beats.  With
    #: one worker a short TTL cannot cause a retry: only a claim reclaims
    #: an expired lease, and the worker claims only between its jobs.
    LEASE_TTL = 0.6

    def __init__(self) -> None:
        self._submitted = 0

    def setup(self, work: Path, trace_out: Optional[Path] = None) -> _Service:
        from repro.service.api import make_async_server
        from repro.service.client import ServiceClient
        from repro.service.store import SqliteJobStore

        work.mkdir(parents=True, exist_ok=True)
        store = SqliteJobStore(work / "service.db", lease_ttl=self.LEASE_TTL)
        server = make_async_server("127.0.0.1", 0, store, work / "coordinator-cache")
        host, port = server.start()
        url = f"http://{host}:{port}"
        client = ServiceClient(url)
        client.wait_until_ready()
        command = [sys.executable, str(HERE / "worker_child.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += [
            "--coordinator", url,
            "--cache-dir", str(work / "worker-cache"),
            "--poll-interval", "0.05",
            "--name", "perfbench-worker",
            "--log-level", "warning",
        ]
        child = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=python_env(), cwd=str(HERE.parent)
        )
        service = _Service(server, client, child, work / "coordinator-cache")
        try:
            self._wait_ready(child)
        except BaseException:
            self.teardown(service)
            raise
        return service

    @staticmethod
    def _wait_ready(child: subprocess.Popen, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([child.stdout], [], [], deadline - time.monotonic())
            if not ready:
                break
            line = child.stdout.readline()
            if not line:
                raise RuntimeError(f"worker exited during start-up (code {child.wait()})")
            if b"repro worker polling" in line:
                return
        raise RuntimeError("worker did not start polling in time")

    def teardown(self, service: _Service) -> float:
        """Stop the worker and the coordinator; returns the worker's peak RSS in MB."""
        peak = process_peak_mb(service.child.pid)
        service.child.terminate()
        try:
            service.child.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            service.child.kill()
            service.child.wait()
        service.child.stdout.close()
        service.server.shutdown()
        return peak

    def warm_up(self, service: _Service, work: Path) -> None:
        """One untimed batch: the worker's first jobs pay one-off costs."""
        self.iterate(service, work)

    def iterate(self, service: _Service, work: Path, keep: bool = False) -> Iteration:
        from repro.service.base import TERMINAL_STATES
        from repro.service.client import ServiceError

        client = service.client
        requests = failed_requests = 0
        latencies: List[float] = []
        job_ids: List[str] = []
        started = time.perf_counter()
        for _ in range(self.BATCH):
            job_seed = JOB_SEEDS[self._submitted % len(JOB_SEEDS)]
            self._submitted += 1
            requests += 1
            try:
                job = client.submit("fast-smoke", {"seed": job_seed, "evaluation": "vectorised"})
            except (ServiceError, OSError):
                failed_requests += 1
                continue
            job_ids.append(job["id"])
        pending = list(job_ids)
        finished: Dict[str, Dict[str, Any]] = {}
        while pending and time.perf_counter() - started < self.DRAIN_TIMEOUT:
            for job_id in list(pending):
                requests += 1
                polled = time.perf_counter()
                try:
                    job = client.job(job_id)
                except (ServiceError, OSError):
                    failed_requests += 1
                    continue
                latencies.append(time.perf_counter() - polled)
                if job["state"] in TERMINAL_STATES:
                    finished[job_id] = job
                    pending.remove(job_id)
                time.sleep(self.POLL_PAUSE)
        wall = time.perf_counter() - started
        jobs = list(finished.values())
        failed_jobs = checks.job_failures(jobs) + len(pending) + (self.BATCH - len(job_ids))
        problems = [
            f"job {job['id']} ended {job['state']!r} after {job['attempts']} attempt(s):"
            f" {job.get('error')}"
            for job in jobs
            if job["state"] != "done" or job["attempts"] != 1
        ]
        problems += [f"job {job_id} unfinished after {wall:.0f}s" for job_id in pending]
        spans = 0
        for job_id in job_ids:
            trace_file = service.cache / job_id / "trace.jsonl"
            if trace_file.is_file():
                spans += len(trace_file.read_text().splitlines())
        return Iteration(
            wall,
            self.BATCH + requests,
            failed_jobs + failed_requests,
            problems,
            latencies,
            jobs=len(jobs) - checks.job_failures(jobs),
            obs_spans=spans,
        )

    def trace(self, work: Path, seconds: float) -> TraceResult:
        service = self.setup(work / "plain")
        try:
            plain = self.iterate(service, work)
        finally:
            self.teardown(service)
        child_trace = work / "worker-trace.json"
        self._submitted = 0  # the traced batch drains the same jobs
        service = self.setup(work / "traced", trace_out=child_trace)
        tracer = Tracer(ENTRY_POINTS + store_entry_points())
        try:
            before = _scrape(service.client.base_url)
            with tracer:
                traced = self.iterate(service, work)
            after = _scrape(service.client.base_url)
        finally:
            self.teardown(service)
        worker = json.loads(child_trace.read_text(encoding="utf-8"))
        metrics: Dict[str, float] = dict(tracer.metrics)
        for name, value in worker["metrics"].items():
            metrics[name] = metrics.get(name, 0.0) + value
        metrics.update(http_metrics(before, after))
        # Poll latency from the untraced batch: on a shared 2-core machine
        # it spread too widely between runs to carry a regression bound.
        metrics["service.poll_p50_ms"] = 1e3 * statistics.median(plain.latencies)
        metrics["service.poll_p90_ms"] = 1e3 * percentile(plain.latencies, 90)
        metrics["obs.spans"] = traced.obs_spans
        metrics["obs.trace_overhead_pct"] = overhead_pct([plain], [traced])
        spans = [dict(record, process="coordinator") for record in tracer.span_records()]
        spans += [dict(record, process="worker") for record in worker["spans"]]
        return TraceResult(metrics, [plain, traced], spans)


def _scrape(base_url: str) -> str:
    with urllib.request.urlopen(f"{base_url}/v1/metrics", timeout=30.0) as response:
        return response.read().decode("utf-8")


def make_workload(name: str, expected: Dict[str, Any]) -> Any:
    if name == "table2-vectorised":
        return Table2("vectorised", expected)
    if name == "table2-serial":
        return Table2("serial", expected)
    if name == "spice-verify":
        return SpiceVerify(expected)
    if name == "service-drain":
        return ServiceDrain()
    raise KeyError(name)


WORKLOADS = ("table2-vectorised", "table2-serial", "spice-verify", "service-drain")
