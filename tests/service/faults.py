"""Deterministic fault injection for the distributed-service tests.

Two wrappers around the PR's injection seams:

* :class:`FlakyTransport` wraps the byte-level
  :class:`~repro.experiments.artifacts.HttpTransport` shared by
  :class:`~repro.service.remote.RemoteJobStore` and
  :class:`~repro.experiments.artifacts.HttpArtifactStore` -- it drops
  (request never sent), blackholes (request sent, response lost),
  delays, or duplicates exchanges according to a **seeded** schedule,
  so every failure interleaving is replayable from its seed.
* :class:`FlakyStore` wraps any
  :class:`~repro.service.base.JobStore`, raising transient
  ``ConnectionError`` from selected methods on the same kind of seeded
  schedule -- the store-level analogue for tests that do not need a
  real wire.

Both keep a ``log`` of what they did to each call, so tests can assert
that faults actually fired (a fault test that never faulted is green
noise).  :class:`CountingTransport` injects nothing: it only logs each
exchange, for tests that pin a worker's wire traffic.
:class:`PartialGate` injects no fault either: it holds a run at a known
checkpoint until the test releases it, so what a test observes does not
depend on how fast the host computes.
"""

import random
import re
import threading
import time

from repro.experiments.artifacts import ArtifactStore, ArtifactTransportError

__all__ = ["CountingTransport", "FlakyStore", "FlakyTransport", "Partition", "PartialGate"]


class CountingTransport:
    """Passes every exchange through, logging ``"METHOD path"``."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    @property
    def base_url(self):
        return self.inner.base_url

    def request(self, method, path, body=None, headers=None):
        self.log.append(f"{method} {path}")
        return self.inner.request(method, path, body, headers)


class Partition:
    """A switchable network partition shared by any number of wrappers.

    While :meth:`cut` is active every wrapped call fails; :meth:`heal`
    restores the network.  Usable as a context manager::

        with partition:
            ...  # every transport/store call raises
    """

    def __init__(self) -> None:
        self.active = False

    def cut(self) -> None:
        self.active = True

    def heal(self) -> None:
        self.active = False

    def __enter__(self) -> "Partition":
        self.cut()
        return self

    def __exit__(self, *exc_info) -> None:
        self.heal()


class PartialGate(ArtifactStore):
    """An artifact store that holds a run at one NSGA-II generation.

    Wraps any :class:`~repro.experiments.artifacts.ArtifactStore` and
    observes the mid-stage partials stored through its entries.  It
    records when each ``stage`` generation was first stored (``stored``,
    on the monotonic clock); once the partial of ``generation`` is
    persisted, the storing thread sets ``held`` and waits until
    :meth:`release` -- before the run reaches its checkpoint boundary's
    cancel check.  The run's heartbeat thread keeps beating and
    publishing meanwhile.
    """

    def __init__(self, inner, stage, generation, timeout=60.0) -> None:
        self.inner = inner
        self.root = inner.root
        self.stage = stage
        self.generation = generation
        self.timeout = timeout
        self.stored = {}
        self.held = threading.Event()
        self._released = threading.Event()

    def entry(self, config_hash):
        return _GatedEntry(self.inner.entry(config_hash), self)

    def publish(self, config_hash) -> None:
        self.inner.publish(config_hash)

    def release(self) -> None:
        self._released.set()

    def observe(self, stage, state) -> None:
        if stage != self.stage:
            return
        generation = state.get("generation")
        self.stored.setdefault(generation, time.monotonic())
        if generation == self.generation and not self.held.is_set():
            self.held.set()
            if not self._released.wait(self.timeout):
                raise RuntimeError(f"gate at generation {generation} was never released")

    def generation_s(self, first, last):
        """Mean time per generation between two stored generations."""
        return (self.stored[last] - self.stored[first]) / (last - first)


class _GatedEntry:
    """An entry of a :class:`PartialGate`: the inner entry, observed."""

    def __init__(self, inner, gate) -> None:
        self._inner = inner
        self._gate = gate

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def store_partial(self, stage, state):
        path = self._inner.store_partial(stage, state)
        self._gate.observe(stage, state)
        return path


class FlakyTransport:
    """A seeded, fault-injecting wrapper of the HttpTransport interface.

    Parameters
    ----------
    inner:
        The real transport to wrap.
    seed:
        Seeds the fault schedule; the same seed replays the same faults.
    drop:
        Probability a matching call is dropped *before* it is sent (the
        request never reaches the coordinator).
    blackhole:
        Probability a matching call is performed but its *response* is
        lost -- the side effect lands, the caller sees a transport
        error.  This is the case that exercises at-least-once retry
        reconciliation.
    duplicate:
        Probability a matching call is sent **twice** (the retry a
        flaky network performs on its own); the second response wins.
    delay:
        Probability a matching call is delayed by up to ``max_delay``
        seconds before being sent.
    match:
        Optional regex (string) applied to ``"METHOD path"``; calls
        that do not match pass through unharmed.  Lets a test drop only
        heartbeats, or duplicate only artifact PUTs.
    partition:
        Optional shared :class:`Partition`; while cut, every matching
        call raises without reaching the wire.
    """

    def __init__(
        self,
        inner,
        seed,
        drop=0.0,
        blackhole=0.0,
        duplicate=0.0,
        delay=0.0,
        max_delay=0.005,
        match=None,
        partition=None,
    ) -> None:
        self.inner = inner
        self.rng = random.Random(seed)
        self.drop = drop
        self.blackhole = blackhole
        self.duplicate = duplicate
        self.delay = delay
        self.max_delay = max_delay
        self.match = re.compile(match) if match else None
        self.partition = partition
        #: ``(fault, "METHOD path")`` per call; fault is one of
        #: "pass", "drop", "blackhole", "duplicate", "delay", "partition".
        self.log = []

    # Mirrors HttpTransport attributes some callers read.
    @property
    def base_url(self):
        return self.inner.base_url

    def faults_fired(self, kind=None):
        """How many injected faults (optionally of one kind) fired."""
        return sum(
            1
            for fault, _ in self.log
            if fault != "pass" and (kind is None or fault == kind)
        )

    def request(self, method, path, body=None, headers=None):
        label = f"{method} {path}"
        if self.match is not None and not self.match.search(label):
            return self.inner.request(method, path, body, headers)
        if self.partition is not None and self.partition.active:
            self.log.append(("partition", label))
            raise ArtifactTransportError(f"injected partition: {label}")
        roll = self.rng.random()
        threshold = self.drop
        if roll < threshold:
            self.log.append(("drop", label))
            raise ArtifactTransportError(f"injected drop: {label}")
        threshold += self.blackhole
        if roll < threshold:
            self.log.append(("blackhole", label))
            self.inner.request(method, path, body, headers)  # lands...
            raise ArtifactTransportError(f"injected response loss: {label}")
        threshold += self.duplicate
        if roll < threshold:
            self.log.append(("duplicate", label))
            self.inner.request(method, path, body, headers)
            return self.inner.request(method, path, body, headers)
        threshold += self.delay
        if roll < threshold:
            self.log.append(("delay", label))
            time.sleep(self.rng.uniform(0.0, self.max_delay))
            return self.inner.request(method, path, body, headers)
        self.log.append(("pass", label))
        return self.inner.request(method, path, body, headers)


class FlakyStore:
    """A seeded fault-injecting proxy around any JobStore.

    Selected methods raise transient ``ConnectionError`` with the given
    probability (and always while a shared :class:`Partition` is cut);
    everything else delegates untouched.
    """

    #: Store methods eligible for fault injection by default -- the
    #: calls a remote worker performs mid-job.
    DEFAULT_METHODS = (
        "claim",
        "start",
        "heartbeat",
        "complete",
        "fail",
        "mark_cancelled",
        "append_events",
        "pending_count",
    )

    def __init__(self, inner, seed, drop=0.0, methods=None, partition=None) -> None:
        self.inner = inner
        self.rng = random.Random(seed)
        self.drop = drop
        self.methods = tuple(methods if methods is not None else self.DEFAULT_METHODS)
        self.partition = partition
        self.log = []

    @property
    def lease_ttl(self):
        return self.inner.lease_ttl

    def faults_fired(self):
        return sum(1 for fault, _ in self.log if fault != "pass")

    def __getattr__(self, name):
        value = getattr(self.inner, name)
        if not callable(value) or name not in self.methods:
            return value

        def flaky(*args, **kwargs):
            if self.partition is not None and self.partition.active:
                self.log.append(("partition", name))
                raise ConnectionError(f"injected partition: {name}")
            if self.rng.random() < self.drop:
                self.log.append(("drop", name))
                raise ConnectionError(f"injected drop: {name}")
            self.log.append(("pass", name))
            return value(*args, **kwargs)

        return flaky
