"""RemoteJobStore-specific behaviour (beyond the shared contract suite).

test_store.py proves the *contract* holds over both backends; this file
pins down what only the remote backend has: the lazily-learned lease
TTL, client-side pagination, the error envelope, and -- most subtle --
the **at-least-once outcome reconciliation**: a terminal update whose
response was lost on the wire must reconcile to success on retry, while
a *clean* ``ok: false`` stays an authoritative lost-lease verdict.
"""

import re
import threading

import pytest

from conftest import tiny_scenario
from repro.experiments.artifacts import ArtifactTransportError, HttpTransport
from repro.service.remote import DEFAULT_LEASE_TTL, RemoteJobStore, RemoteStoreError


class DeadTransport:
    """Every request dies on the wire (an unreachable coordinator)."""

    base_url = "http://unreachable.invalid"

    def request(self, method, path, body=None, headers=None):
        raise ArtifactTransportError(f"injected dead wire: {method} {path}")


class BlackholeOnce:
    """Performs the first matching exchange but loses its response.

    The minimal at-least-once ambiguity: the side effect lands on the
    coordinator, the caller sees a transport error and retries.
    """

    def __init__(self, inner, match):
        self.inner = inner
        self.match = re.compile(match)
        self.fired = 0

    @property
    def base_url(self):
        return self.inner.base_url

    def request(self, method, path, body=None, headers=None):
        if not self.fired and self.match.search(f"{method} {path}"):
            self.fired += 1
            self.inner.request(method, path, body, headers)  # lands...
            raise ArtifactTransportError(f"injected response loss: {method} {path}")
        return self.inner.request(method, path, body, headers)


# -- lease TTL -------------------------------------------------------------------------


def test_lease_ttl_learned_from_healthz_and_cached(coordinator):
    remote = RemoteJobStore(coordinator.url)
    assert remote.lease_ttl == coordinator.store.lease_ttl == 30.0
    # Cached: once learned, no further exchange is needed.
    remote.transport = DeadTransport()
    assert remote.lease_ttl == 30.0


def test_lease_ttl_falls_back_while_unreachable():
    remote = RemoteJobStore(
        "http://unreachable.invalid", transport=DeadTransport(), retries=1
    )
    assert remote.lease_ttl == DEFAULT_LEASE_TTL


def test_claim_refreshes_cached_lease_ttl(coordinator):
    remote = RemoteJobStore(coordinator.url)
    remote._lease_ttl = 999.0  # a stale value from a restarted coordinator
    remote.submit(tiny_scenario("remote-ttl", seed=201))
    assert remote.claim("w1") is not None
    assert remote.lease_ttl == coordinator.store.lease_ttl == 30.0


# -- pagination ------------------------------------------------------------------------


def test_jobs_pagination_windows_match_the_authority(coordinator):
    remote = RemoteJobStore(coordinator.url)
    for index in range(12):
        remote.submit(tiny_scenario("remote-page", seed=400 + index))
    full = [job.id for job in remote.jobs()]
    assert len(full) == 12
    assert full == [job.id for job in coordinator.store.jobs()]
    assert [job.id for job in remote.jobs(limit=5)] == full[:5]
    assert [job.id for job in remote.jobs(limit=5, offset=5)] == full[5:10]
    assert [job.id for job in remote.jobs(limit=100, offset=10)] == full[10:]
    assert remote.count() == 12
    assert remote.count(state="queued") == 12
    assert remote.count(state="done") == 0


def test_invalid_state_filter_raises_valueerror(coordinator):
    remote = RemoteJobStore(coordinator.url)
    with pytest.raises(ValueError):
        remote.jobs(state="bogus")
    with pytest.raises(ValueError):
        remote.count(state="bogus")


# -- error envelope --------------------------------------------------------------------


def test_remote_store_error_carries_status_and_code(coordinator):
    remote = RemoteJobStore(coordinator.url)
    with pytest.raises(RemoteStoreError) as unknown_route:
        remote._json("GET", "/v1/definitely/not/a/route")
    assert unknown_route.value.status == 404
    assert unknown_route.value.code == "unknown_route"
    with pytest.raises(RemoteStoreError) as malformed:
        remote._json("POST", "/v1/claim", {})
    assert malformed.value.status == 400
    assert malformed.value.code == "malformed_body"


# -- at-least-once outcome reconciliation ----------------------------------------------


def test_lost_outcome_response_reconciles_to_success(coordinator):
    """The first ``complete`` attempt lands but its response is lost;
    the retry answers ``ok: false`` (the job is already done) -- and the
    store recognises its own duplicate and reports success."""
    scenario = tiny_scenario("remote-reconcile", seed=303)
    clean = RemoteJobStore(coordinator.url)
    job, _ = clean.submit(scenario)
    assert clean.claim("w1").id == job.id
    assert clean.start(job.id, "w1")

    flaky = RemoteJobStore(
        coordinator.url,
        transport=BlackholeOnce(HttpTransport(coordinator.url), r"/outcome$"),
        retry_delay=0.0,
    )
    assert flaky.complete(job.id, "w1", {"yield_percent": 50.0}) is True
    assert flaky.transport.fired == 1, "the blackhole never fired -- test is vacuous"
    final = coordinator.store.get(job.id)
    assert final.state == "done" and final.worker == "w1"
    assert final.summary == {"yield_percent": 50.0}


def test_clean_ok_false_stays_an_authoritative_lost_lease(coordinator):
    """No wire loss -> no reconciliation: a clean ``ok: false`` is the
    coordinator's ownership verdict, identical to the SQLite backend."""
    scenario = tiny_scenario("remote-clean-false", seed=304)
    remote = RemoteJobStore(coordinator.url)
    job, _ = remote.submit(scenario)
    assert remote.claim("w1").id == job.id
    assert remote.start(job.id, "w1")
    # A peer that never held the lease is rejected outright...
    assert remote.complete(job.id, "w2", {"yield_percent": 1.0}) is False
    # ...and the job is untouched by the rejected outcome.
    assert coordinator.store.get(job.id).state == "running"


def test_lossy_retry_does_not_steal_peer_outcomes(coordinator):
    """Reconciliation requires the terminal state to be credited to
    *this* worker: a lossy retry against a job another worker finished
    must still answer ``False``."""
    scenario = tiny_scenario("remote-no-steal", seed=305)
    clean = RemoteJobStore(coordinator.url)
    job, _ = clean.submit(scenario)
    assert clean.claim("w1").id == job.id
    assert clean.start(job.id, "w1")
    assert clean.complete(job.id, "w1", {"yield_percent": 50.0}) is True

    flaky = RemoteJobStore(
        coordinator.url,
        transport=BlackholeOnce(HttpTransport(coordinator.url), r"/outcome$"),
        retry_delay=0.0,
    )
    assert flaky.complete(job.id, "w2", {"yield_percent": 99.0}) is False
    assert flaky.transport.fired == 1
    final = coordinator.store.get(job.id)
    assert final.worker == "w1" and final.summary == {"yield_percent": 50.0}


# -- per-thread exchanges ------------------------------------------------------------------


def test_concurrent_heartbeat_does_not_change_the_claimed_trace_id(coordinator):
    """Response headers belong to the calling thread's exchange: a
    heartbeat another thread completes between the claim's exchange and
    the read of its ``X-Repro-Trace`` header leaves the trace id alone."""
    scenario = tiny_scenario("remote-trace-race", seed=306)

    class HeartbeatAfterClaim(HttpTransport):
        def request(self, method, path, body=None, headers=None):
            answer = super().request(method, path, body, headers)
            if path == "/v1/claim":
                beat = threading.Thread(
                    target=lambda: beats.append(remote.heartbeat(job.id, "w1"))
                )
                beat.start()
                beat.join()
            return answer

    beats = []
    remote = RemoteJobStore(coordinator.url, transport=HeartbeatAfterClaim(coordinator.url))
    job, _ = remote.submit(scenario)
    assert remote.claim("w1").id == job.id
    assert beats == [True], "the heartbeat never landed -- test is vacuous"
    assert remote.last_trace_id == job.id
