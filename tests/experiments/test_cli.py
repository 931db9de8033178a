"""CLI smoke tests: in-process argument handling plus subprocess runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import cli
from repro.optim.evaluation import EVALUATOR_CHOICES

#: Environment for subprocesses: make ``import repro`` work from the src
#: layout even when the package is not installed in the interpreter.
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
    )


# -- in-process (fast) --------------------------------------------------------------------


def test_list_names_every_registered_scenario(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table2", "fast-smoke", "vco-sweep-3", "vco-sweep-9", "low-power"):
        assert name in out


def test_list_shows_scenario_metadata(capsys):
    """`repro list` surfaces topology/technology/corners/budgets, not
    just the names -- the listing answers "what would this run?"."""
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    for column in ("topology", "tech", "corners", "MC/pt", "yield"):
        assert column in header
    assert "pseudodiff-vco" in out
    assert "generic065" in out
    assert "standard" in out and "pvt" in out


def test_cli_portfolio_local_run_prints_merged_report(tmp_path, capsys):
    from repro.experiments.portfolio import (
        PORTFOLIOS,
        PortfolioConfig,
        register_portfolio,
    )
    from repro.experiments.registry import SCENARIOS, register
    from tests.experiments.test_runner import TINY

    if "tiny-portfolio-base" not in SCENARIOS:
        register(TINY.with_overrides(name="tiny-portfolio-base"))
    if "tiny-portfolio-cli" not in PORTFOLIOS:
        register_portfolio(
            PortfolioConfig(
                name="tiny-portfolio-cli",
                description="cli unit test",
                base_scenario="tiny-portfolio-base",
                technologies=("generic012", "generic065"),
            )
        )
    code = cli.main(
        ["portfolio", "tiny-portfolio-cli", "--run", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "child tiny-portfolio-cli/generic012" in out
    assert "child tiny-portfolio-cli/generic065" in out
    assert "merged front :" in out

    # --report --local reads the same cache without recomputing anything.
    code = cli.main(
        [
            "portfolio", "tiny-portfolio-cli", "--report", "--local",
            "--cache-dir", str(tmp_path), "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["merged_front_size"] >= 1
    assert all(child["front_size"] >= 1 for child in payload["children"])


def test_unknown_scenario_is_a_usage_error(capsys):
    """`repro run` of an unknown name: one line on stderr, exit 2, no traceback."""
    assert cli.main(["run", "no-such-scenario"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_unknown_scenario_usage_error_in_subprocess(tmp_path):
    """The console-script path too: clean one-liner, nonzero exit."""
    result = run_cli("run", "no-such-scenario", cwd=str(tmp_path))
    assert result.returncode == 2
    assert "unknown scenario 'no-such-scenario'" in result.stderr
    assert "Traceback" not in result.stderr


def test_spice_engine_choices_match_the_api():
    # The SPICE layer has one engine and no engine flag: naming one, even
    # ``lanes``, is a usage error on both subcommands.
    parser = cli.build_parser()
    for command in ("run", "submit"):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([command, "fast-smoke", "--spice-engine", "lanes"])
        assert excinfo.value.code == 2


def test_invalid_override_value_is_a_usage_error(capsys):
    assert cli.main(["run", "fast-smoke", "--n-workers", "0"]) == 2
    err = capsys.readouterr().err
    assert "invalid override" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("shard_count", ["0", "-1"])
def test_worker_rejects_a_shard_count_below_one(monkeypatch, capsys, shard_count):
    """Every claim with a shard count below one is refused by the
    coordinator, so the worker would poll forever: reject it up front."""
    from repro.service import worker

    calls = []
    monkeypatch.setattr(worker, "remote_worker_loop", lambda *a, **k: calls.append(a))
    argv = ["worker", "--coordinator", "http://127.0.0.1:1", "--shard-count", shard_count]
    assert cli.main(argv) == 2
    assert calls == []
    assert "shard count" in capsys.readouterr().err


def test_submit_unknown_scenario_fails_before_contacting_server(capsys):
    # Validated against the local registry, so no server is needed.
    assert cli.main(["submit", "no-such-scenario", "--url", "http://127.0.0.1:1"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_submit_unreachable_server_is_a_clean_error(capsys):
    assert cli.main(["submit", "fast-smoke", "--url", "http://127.0.0.1:1"]) == 1
    err = capsys.readouterr().err
    assert "cannot reach the service" in err
    assert "Traceback" not in err


def test_jobs_unreachable_server_is_a_clean_error(capsys):
    assert cli.main(["jobs", "--url", "http://127.0.0.1:1"]) == 1
    assert "cannot reach the service" in capsys.readouterr().err


# -- service subcommands against a live in-process server ---------------------------------


@pytest.fixture()
def live_service(tmp_path):
    from repro.service.api import make_async_server
    from repro.service.store import SqliteJobStore

    store = SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)
    server = make_async_server("127.0.0.1", 0, store, tmp_path / "cache")
    host, port = server.start()
    yield f"http://{host}:{port}", store, tmp_path / "cache"
    server.shutdown()


def test_submit_status_jobs_roundtrip(live_service, capsys):
    url, store, cache = live_service
    assert cli.main(["submit", "fast-smoke", "--url", url, "--seed", "41"]) == 0
    out = capsys.readouterr().out
    assert "submitted new job" in out
    assert "state        : queued" in out

    # Re-submitting the same configuration joins the existing job.
    assert cli.main(["submit", "fast-smoke", "--url", url, "--seed", "41"]) == 0
    assert "joined existing job" in capsys.readouterr().out

    # `repro status <scenario-name>` resolves the job id via the registry.
    assert cli.main(["status", "fast-smoke", "--seed", "41", "--url", url]) == 0
    assert "state        : queued" in capsys.readouterr().out

    assert cli.main(["jobs", "--url", url]) == 0
    assert "fast-smoke" in capsys.readouterr().out

    # Drain with the in-process worker loop, then status shows done + events.
    from repro.service.worker import worker_loop

    assert worker_loop(store.path, cache, max_jobs=1) == 1
    assert cli.main(["status", "fast-smoke", "--seed", "41", "--url", url]) == 0
    out = capsys.readouterr().out
    assert "state        : done" in out
    assert "stage circuit" in out

    assert cli.main(["jobs", "--url", url, "--state", "done", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1 and payload[0]["state"] == "done"


def test_submit_wait_prints_summary(live_service, capsys):
    import threading

    url, store, cache = live_service
    from repro.experiments.registry import get_scenario
    from repro.service.worker import worker_loop

    # Queue the configuration first so the bounded worker loop has work
    # the moment it starts; the CLI submission below dedups onto it.
    store.submit(get_scenario("fast-smoke").with_overrides(seed=43))
    worker = threading.Thread(
        target=worker_loop, args=(store.path, cache), kwargs={"max_jobs": 1}, daemon=True
    )
    worker.start()
    code = cli.main(
        ["submit", "fast-smoke", "--url", url, "--seed", "43", "--wait", "--timeout", "60"]
    )
    worker.join(timeout=60)
    assert code == 0
    out = capsys.readouterr().out
    assert "state        : done" in out
    assert "yield_percent" in out


def test_status_unknown_job_id(live_service, capsys):
    url, _, _ = live_service
    assert cli.main(["status", "deadbeef", "--url", url]) == 2
    assert "unknown job" in capsys.readouterr().err


def test_events_streams_until_terminal(live_service, capsys):
    """`repro events` replays the persisted trail, follows the live
    stream, and exits 1 for an unsuccessful terminal state."""
    url, store, _ = live_service
    assert cli.main(["submit", "fast-smoke", "--url", url, "--seed", "44"]) == 0
    capsys.readouterr()
    job_id = store.jobs()[0].id
    store.record_event(
        job_id, "circuit", "progress", "w1",
        {"generation": 0, "front_size": 3, "evaluations": 16, "front": [{"power": 1.0}]},
    )
    store.cancel(job_id)

    assert cli.main(["events", "fast-smoke", "--seed", "44", "--url", url]) == 1
    out = capsys.readouterr().out
    assert "circuit" in out and "generation=0" in out
    assert "front=" not in out  # the raw front array is chart data, not CLI text
    assert "job finished: cancelled" in out

    # --json prints one machine-readable line per event; --after resumes
    # mid-stream (only the cancel marker remains after seq 1).
    assert cli.main(
        ["events", job_id, "--url", url, "--json", "--after", "1"]
    ) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line]
    assert [event["seq"] for event in lines] == [2]
    assert lines[0]["stage"] == "cancel"


def test_events_unknown_job_id(live_service, capsys):
    url, _, _ = live_service
    assert cli.main(["events", "deadbeef", "--url", url]) == 2
    assert "unknown job" in capsys.readouterr().err


def test_report_before_run_fails_cleanly(tmp_path, capsys):
    code = cli.main(["report", "table2", "--cache-dir", str(tmp_path), "--seed", "424242"])
    assert code == 1
    assert "no cached artefacts" in capsys.readouterr().err


def test_run_and_report_in_process(tmp_path, capsys):
    # Tiny seed override keeps this isolated from any shared cache state.
    args = ["--cache-dir", str(tmp_path), "--seed", "99"]
    assert cli.main(["run", "fast-smoke", "--evaluation", "vectorised", *args]) == 0
    out = capsys.readouterr().out
    assert "stage circuit      : computed" in out

    assert cli.main(["run", "fast-smoke", *args]) == 0
    out = capsys.readouterr().out
    assert "stage circuit      : cached" in out

    assert cli.main(["report", "fast-smoke", "--json", *args]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["scenario"] == "fast-smoke"
    assert set(payload["stages_present"]) >= {"circuit", "system"}


def test_evaluation_choices_match_the_api(tmp_path, capsys):
    # Both subcommands offer exactly the optimiser's EVALUATOR_CHOICES.
    parser = cli.build_parser()
    for command in ("run", "submit"):
        for name in EVALUATOR_CHOICES:
            args = parser.parse_args([command, "fast-smoke", "--evaluation", name])
            assert args.evaluation == name
        for name in ("vectorized", "process"):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([command, "fast-smoke", "--evaluation", name])
            assert excinfo.value.code == 2
    code = cli.main(
        [
            "run", "fast-smoke", "--evaluation", "serial",
            "--cache-dir", str(tmp_path), "--seed", "97",
        ]
    )
    assert code == 0
    assert "stage circuit" in capsys.readouterr().out


def test_run_json_summary(tmp_path, capsys):
    code = cli.main(
        ["run", "fast-smoke", "--json", "--cache-dir", str(tmp_path), "--seed", "98"]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["scenario"] == "fast-smoke"
    assert summary["stages"]["circuit"] == "computed"
    assert "circuit_front_size" in summary


# -- subprocess (the real console entry point path) --------------------------------------


@pytest.mark.slow
def test_cli_subprocess_run_resumes_from_cache(tmp_path):
    cache = str(tmp_path / "cache")
    first = run_cli("run", "fast-smoke", "--cache-dir", cache, "--evaluation", "vectorised")
    assert first.returncode == 0, first.stderr
    assert "computed" in first.stdout

    second = run_cli("run", "fast-smoke", "--cache-dir", cache)
    assert second.returncode == 0, second.stderr
    assert "stage circuit      : cached" in second.stdout
    # Bit-identity of the reported summaries (same numbers, cold vs resumed).
    for line in ("selected_lock_time_us", "yield_percent"):
        cold = [ln for ln in first.stdout.splitlines() if line in ln]
        warm = [ln for ln in second.stdout.splitlines() if line in ln]
        assert cold == warm

    report = run_cli("report", "fast-smoke", "--cache-dir", cache)
    assert report.returncode == 0, report.stderr
    assert "stages cached" in report.stdout


@pytest.mark.slow
def test_serve_sigterm_tears_down_workers_cleanly(tmp_path):
    """SIGTERM (docker stop, CI traps) must run the pool teardown, not
    orphan the spawned worker processes."""
    import signal

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--workers", "2", "--port", "0", "--cache-dir", str(tmp_path / "cache"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    try:
        line = process.stdout.readline()
        assert "listening" in line, line
        process.send_signal(signal.SIGTERM)
        # A clean exit means the finally block ran: workers terminated and
        # joined, server socket closed.  A hang here (timeout) means the
        # teardown never happened.
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()


@pytest.mark.slow
def test_cli_subprocess_list(tmp_path):
    result = run_cli("list", cwd=str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert "table2" in result.stdout


def test_submit_wait_exit_codes_for_terminal_states(monkeypatch):
    """--wait must fail the process for both unsuccessful outcomes: a
    cancelled job produced no result, exactly like a failed one."""
    from repro.experiments import cli
    from repro.experiments.registry import get_scenario

    def run_with_final_state(state):
        class FakeClient:
            def submit(self, scenario, overrides):
                return {
                    "id": "abc", "scenario": scenario, "state": "queued",
                    "attempts": 1, "created": True,
                }

            def wait(self, job_id, timeout):
                return {
                    "id": job_id, "scenario": "fast-smoke", "state": state,
                    "attempts": 1,
                }

        monkeypatch.setattr(cli, "_client", lambda url: FakeClient())
        args = cli.build_parser().parse_args(["submit", "fast-smoke", "--wait"])
        return cli._cmd_submit(args, get_scenario("fast-smoke"))

    assert run_with_final_state("done") == 0
    assert run_with_final_state("failed") == 1
    assert run_with_final_state("cancelled") == 1
