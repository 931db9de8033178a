"""Tests for the benchmark's own code.

Run from the root of the repository::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import harness
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PENALTY = {"kvco": 0.0, "jitter": 1e-9, "current": 1.0, "fmin": 0.0, "fmax": 0.0}
GOOD = {"kvco": 9.2e7, "jitter": 6e-13, "current": 1.7e-3, "fmin": 1.7e8, "fmax": 2.3e8}


# -- failed_fraction accounting ---------------------------------------------------------


def test_penalty_lanes_count_as_failed():
    assert checks.is_penalty(PENALTY)
    assert not checks.is_penalty(GOOD)
    assert checks.spice_lane_failures([GOOD, PENALTY, GOOD]) == (6, 2)
    assert checks.spice_lane_failures([GOOD, GOOD, GOOD]) == (6, 0)


def test_failed_and_retried_jobs_count_as_failed():
    jobs = [
        {"id": "a", "state": "done", "attempts": 1},
        {"id": "b", "state": "done", "attempts": 2},
        {"id": "c", "state": "failed", "attempts": 1},
        {"id": "d", "state": "cancelled", "attempts": 1},
    ]
    assert checks.job_failures(jobs) == 3
    assert checks.job_failures(jobs[:1]) == 0


class _FlakyClient:
    """Answers submits and polls; some requests fail with non-2xx or a reset."""

    def __init__(self, fail_submit: int, fail_polls: int, final_attempts: int = 1) -> None:
        from repro.service.client import ServiceError

        self.error = ServiceError("internal_error", 500, "boom")
        self.fail_submit = fail_submit
        self.fail_polls = fail_polls
        self.final_attempts = final_attempts
        self.submitted = 0
        self.polls = {}

    def submit(self, scenario, overrides):
        self.submitted += 1
        if self.submitted <= self.fail_submit:
            raise self.error
        return {"id": f"job{self.submitted}"}

    def job(self, job_id):
        self.polls[job_id] = self.polls.get(job_id, 0) + 1
        if self.fail_polls:
            self.fail_polls -= 1
            raise ConnectionResetError("reset by peer")
        if self.polls[job_id] < 3:
            return {"id": job_id, "state": "running", "attempts": 1}
        return {"id": job_id, "state": "done", "attempts": self.final_attempts}


def _drain(client, tmp_path):
    drain = workloads.ServiceDrain()
    drain.BATCH = 4
    drain.POLL_PAUSE = 0.0
    service = workloads._Service(server=None, client=client, child=None, cache=tmp_path)
    return drain.iterate(service, tmp_path)


def test_non_2xx_and_connection_errors_count_as_failed(tmp_path):
    iteration = _drain(_FlakyClient(fail_submit=1, fail_polls=2), tmp_path)
    # 4 jobs + 4 submits + polls; 1 job never submitted, 1 failed submit,
    # 2 failed polls.
    polls = iteration.attempted - 4 - 4
    assert polls == len(iteration.latencies) + 2
    assert iteration.failed == 1 + 1 + 2
    assert iteration.jobs == 3
    assert iteration.problems == []


def test_retried_jobs_fail_the_drain(tmp_path):
    iteration = _drain(_FlakyClient(fail_submit=0, fail_polls=0, final_attempts=2), tmp_path)
    assert iteration.failed == 4
    assert iteration.jobs == 0
    assert len(iteration.problems) == 4


# -- output checks ----------------------------------------------------------------------


def _table2_entry(tmp_path):
    """Stand-in stage pickles, and ``expected`` with their digests recorded."""
    digests = {}
    for stage in checks.TABLE2_STAGES:
        path = tmp_path / f"{stage}.pkl"
        path.write_bytes(stage.encode() * 10)
        digests[stage] = checks.sha256_file(path)
    return dict(checks.load_expected(), table2_digests=digests)


def test_table2_check_passes_on_recorded_digests(tmp_path):
    expected = _table2_entry(tmp_path)
    assert checks.check_table2(tmp_path, 3100, 500, {"yield": 100.0}, expected) == []


def test_corrupted_digest_fails_the_table2_check(tmp_path):
    expected = _table2_entry(tmp_path)
    (tmp_path / "system.pkl").write_bytes(b"corrupted")
    problems = checks.check_table2(tmp_path, 3100, 500, {"yield": 100.0}, expected)
    assert len(problems) == 1 and "system.pkl" in problems[0]


def test_table2_check_checks_budgets_and_summary(tmp_path):
    expected = _table2_entry(tmp_path)
    assert len(checks.check_table2(tmp_path, 3099, 499, {"y": 1.0}, expected)) == 2
    assert checks.check_table2(tmp_path, 3100, 500, {"y": float("nan")}, expected)


def test_wrong_spice_summary_fails_the_spice_check():
    expected = checks.load_expected()
    recorded = expected["spice_summary"]
    measured = [GOOD] * 3
    assert checks.check_spice(dict(recorded), measured, expected) == []
    wrong = dict(recorded, mean_error_fmax=recorded["mean_error_fmax"] * 1.001)
    problems = checks.check_spice(wrong, measured, expected)
    assert len(problems) == 1 and "mean_error_fmax" in problems[0]
    not_finite = dict(recorded, worst_error=float("nan"))
    assert checks.check_spice(not_finite, measured, expected)
    assert checks.check_spice(dict(recorded), [GOOD, PENALTY, GOOD], expected)


# -- the tracer -------------------------------------------------------------------------


def _patched_attributes():
    """Every (owner, attribute) the tracer wraps, with its current value."""
    tracer = harness.Tracer(harness.ENTRY_POINTS + harness.store_entry_points())
    tracer.install()
    owners = [(owner, attribute) for owner, attribute, _ in tracer._patches]
    tracer.restore()
    return {(owner, attribute): owner.__dict__[attribute] for owner, attribute in owners}


def test_tracer_restores_every_original():
    before = _patched_attributes()
    tracer = harness.Tracer(harness.ENTRY_POINTS + harness.store_entry_points())
    with tracer:
        changed = [key for key, value in before.items() if key[0].__dict__[key[1]] is not value]
        assert len(changed) == len(before)
    assert all(owner.__dict__[attribute] is value for (owner, attribute), value in before.items())


def test_tracer_patches_functions_where_they_are_looked_up():
    import repro.optim.nsga2 as nsga2
    import repro.optim.sorting as sorting

    original = sorting.fast_non_dominated_sort
    with harness.Tracer(harness.ENTRY_POINTS):
        assert nsga2.fast_non_dominated_sort is not original
        assert nsga2.fast_non_dominated_sort is sorting.fast_non_dominated_sort
    assert nsga2.fast_non_dominated_sort is original


def test_self_time_excludes_wrapped_children():
    clock = iter(range(100)).__next__

    class Outer:
        def run(self):
            return Inner().work() + 1

    class Inner:
        def work(self):
            return 1

    module = type(sys)("repro_fake_layer")
    module.Outer, module.Inner = Outer, Inner
    sys.modules["repro_fake_layer"] = module
    try:
        tracer = harness.Tracer(
            [
                harness.EntryPoint("repro_fake_layer:Outer.run", "outer_s"),
                harness.EntryPoint(
                    "repro_fake_layer:Inner.work", "inner_s", (("inner_calls", harness.one),)
                ),
            ],
            clock=lambda: float(clock()),
        )
        with tracer:
            assert Outer().run() == 2
    finally:
        del sys.modules["repro_fake_layer"]
    # outer: 0 -> 3, inner: 1 -> 2
    assert tracer.metrics == {"inner_s": 1.0, "inner_calls": 1, "outer_s": 2.0}
    assert [span.parent for span in tracer.spans] == [None, 0]


def test_tracing_does_not_change_artefact_bytes(tmp_path):
    from repro.experiments.registry import get_scenario
    from repro.experiments.runner import ExperimentRunner

    scenario = get_scenario("fast-smoke").with_overrides(evaluation="vectorised")
    plain = ExperimentRunner(scenario, cache_dir=tmp_path / "plain").run()
    tracer = harness.Tracer(harness.ENTRY_POINTS)
    with tracer:
        traced = ExperimentRunner(scenario, cache_dir=tmp_path / "traced").run()
    assert tracer.metrics["optim.candidates"] > 0
    assert tracer.metrics["process.mc_samples"] > 0
    for stage in checks.TABLE2_STAGES:
        assert (plain.cache_dir / f"{stage}.pkl").read_bytes() == (
            traced.cache_dir / f"{stage}.pkl"
        ).read_bytes()


# -- metrics plumbing -------------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [float(value) for value in range(1, 1001)]
    assert workloads.percentile(values, 50) == pytest.approx(500.5)
    assert workloads.percentile(values, 90) == pytest.approx(900.1)
    assert workloads.percentile([3.0], 90) == 3.0


def test_http_metrics_take_the_difference_of_two_scrapes():
    line = 'repro_http_request_seconds_{kind}{{method="{m}",route="{r}",status="200"}} {v}'
    before = "\n".join(
        [
            line.format(kind="sum", m="GET", r="/v1/jobs/{job_id}", v=1.0),
            line.format(kind="count", m="GET", r="/v1/jobs/{job_id}", v=10),
        ]
    )
    after = "\n".join(
        [
            "# HELP repro_http_request_seconds latency",
            line.format(kind="sum", m="GET", r="/v1/jobs/{job_id}", v=1.5),
            line.format(kind="count", m="GET", r="/v1/jobs/{job_id}", v=30),
            line.format(kind="sum", m="GET", r="/v1/healthz", v=0.25),
            line.format(kind="count", m="GET", r="/v1/healthz", v=2),
        ]
    )
    metrics = workloads.http_metrics(before, after)
    assert metrics["service.http_s.job"] == pytest.approx(0.5)
    assert metrics["service.http_s.other"] == pytest.approx(0.25)
    assert metrics["service.http_requests"] == 22


def test_every_traced_metric_is_declared():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {entry["name"] for entry in config["per_layer"]}
    produced = {entry.seconds for entry in harness.ENTRY_POINTS}
    produced |= {name for entry in harness.ENTRY_POINTS for name, _ in entry.counts}
    produced |= set(workloads.ROUTE_METRICS.values()) | {workloads.OTHER_ROUTES}
    produced |= {"service.store_s", "service.store_calls", "service.http_requests"}
    produced |= {"service.artifact_bytes", "experiments.resume_s"}
    produced |= {"service.poll_p50_ms", "service.poll_p90_ms"}
    produced |= {"obs.spans", "obs.trace_overhead_pct"}
    assert produced == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2-vectorised", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
