"""Shared fixtures for the service suite.

The distributed PR's test backbone:

* ``any_store`` parametrises the :class:`~repro.service.base.JobStore`
  contract over **both** backends -- the coordinator's
  :class:`~repro.service.store.SqliteJobStore` directly, and a
  :class:`~repro.service.remote.RemoteJobStore` speaking the ``/v1`` API
  of a live loopback coordinator.  A test written against ``any_store``
  proves the two backends agree.
* ``live`` is the deduplicated serve+client boilerplate previously
  copied across test_api / test_concurrency: a real asyncio HTTP server
  plus a ready client, torn down after the test.
* ``tiny_scenario`` builds the standard smallest-possible scenario
  budget used throughout the suite.
"""

import pickle

import pytest

from repro.experiments.config import ScenarioConfig
from repro.service.api import make_async_server
from repro.service.client import ServiceClient
from repro.service.remote import RemoteJobStore
from repro.service.store import SqliteJobStore

#: Smallest scenario budget that still runs every stage (a couple of
#: seconds serial); tests override the name/seed to get distinct jobs.
TINY_BUDGET = dict(
    circuit_population=8,
    circuit_generations=2,
    system_population=8,
    system_generations=2,
    mc_samples_per_point=4,
    yield_samples=10,
    max_model_points=6,
)


def tiny_scenario(name: str, seed: int = 17, **overrides) -> ScenarioConfig:
    """The standard tiny scenario, named and seeded per test."""
    budget = dict(TINY_BUDGET, **overrides)
    return ScenarioConfig(name=name, seed=seed, **budget)


def assert_artefacts_byte_identical(entry_a, entry_b):
    """Bit-exact artefact comparison via the pickle byte streams.

    Pickle round-trips floats and numpy arrays exactly, so two artefacts
    produced by bit-identical computations serialise to identical bytes.
    """
    assert entry_a.stages_present() == entry_b.stages_present()
    for stage in entry_a.stages_present():
        assert pickle.dumps(entry_a.load(stage), protocol=4) == pickle.dumps(
            entry_b.load(stage), protocol=4
        ), f"stage {stage} diverged"


@pytest.fixture()
def sqlite_store(tmp_path):
    """A fresh SQLite job store (the coordinator-side backend)."""
    return SqliteJobStore(tmp_path / "service.db", lease_ttl=30.0)


@pytest.fixture()
def coordinator(tmp_path, sqlite_store):
    """A live asyncio coordinator on the loopback.

    Yields an object with ``url``, ``store`` (the authoritative SQLite
    store behind the API), ``cache_dir`` and ``server``.
    """

    class Coordinator:
        store = sqlite_store
        cache_dir = tmp_path / "cache"

    server = make_async_server("127.0.0.1", 0, sqlite_store, Coordinator.cache_dir)
    host, port = server.start()
    Coordinator.url = f"http://{host}:{port}"
    Coordinator.server = server
    yield Coordinator
    server.shutdown()


@pytest.fixture()
def live(coordinator):
    """(client, store, cache_dir) against a live asyncio coordinator."""
    client = ServiceClient(coordinator.url)
    client.wait_until_ready()
    return client, coordinator.store, coordinator.cache_dir


@pytest.fixture(params=["sqlite", "remote"])
def any_store(request, tmp_path, sqlite_store):
    """The JobStore contract, over both backends.

    ``sqlite``: the store itself.  ``remote``: a RemoteJobStore speaking
    the /v1 API of a loopback coordinator whose authority is that same
    SQLite store -- every contract test then proves wire parity.
    """
    if request.param == "sqlite":
        yield sqlite_store
        return
    server = make_async_server("127.0.0.1", 0, sqlite_store, tmp_path / "cache")
    host, port = server.start()
    try:
        yield RemoteJobStore(f"http://{host}:{port}")
    finally:
        server.shutdown()
