"""Cooperative cancellation of long-running computations.

The flow's expensive loops (the circuit stage's NSGA-II generations, the
yield stage's Monte Carlo batches) only observe cancellation at their
**checkpoint boundaries**: each loop persists its mid-stage partial first
and polls the token right after, so a cancelled run always leaves a
consistent, resumable artefact behind -- cancellation can interrupt a
computation but never corrupt it.  Resubmitting the same configuration
resumes from the last persisted generation/batch bit-identically.

The token is deliberately dependency-free and duck-simple so every layer
(optimiser, flow stages, experiment runner, service workers) can accept
one without importing anything heavier than this module:

* local callers flip it directly with :meth:`CancelToken.cancel` (e.g. a
  signal handler);
* the experiment service's workers construct it with a ``should_cancel``
  callable polling the job store's ``cancel_requested`` flag, throttled
  by ``poll_interval`` so checking at every boundary stays cheap; an
  answer the worker learns on another exchange is handed in with
  :meth:`CancelToken.observe` and counts as a poll.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["CancelToken", "JobCancelled"]


class JobCancelled(Exception):
    """Raised at a checkpoint boundary once cancellation was observed.

    Deliberately *not* a ``RuntimeError`` subclass: generic error handling
    (e.g. the worker's catch-all that marks jobs ``failed``) must not
    swallow a cancellation, which is an orderly outcome, not a failure.
    """


class CancelToken:
    """Cooperative, poll-based cancellation flag.

    Parameters
    ----------
    should_cancel:
        Optional zero-argument callable consulted by :meth:`is_cancelled`
        (e.g. a job-store query).  Once it returns ``True`` the token
        latches: the source is never polled again and the token stays
        cancelled.
    poll_interval:
        Minimum seconds between two ``should_cancel`` polls.  Checkpoint
        boundaries can be microseconds apart on small problems; the
        throttle keeps the (possibly database-backed) source from being
        hammered.  ``0`` polls on every check.
    """

    def __init__(
        self,
        should_cancel: Optional[Callable[[], bool]] = None,
        poll_interval: float = 0.0,
    ) -> None:
        if poll_interval < 0:
            raise ValueError("poll_interval must be >= 0")
        self._should_cancel = should_cancel
        self._poll_interval = float(poll_interval)
        self._cancelled = False
        self._last_poll: Optional[float] = None

    def cancel(self) -> None:
        """Latch the token cancelled (local/manual cancellation)."""
        self._cancelled = True

    def observe(self, cancelled: bool) -> None:
        """Record an answer of the source learned outside a poll.

        Latches the token when ``cancelled`` is true and restarts the
        poll throttle: the next ``should_cancel`` call is due one
        ``poll_interval`` from now.
        """
        self._last_poll = time.monotonic()
        if cancelled:
            self._cancelled = True

    def is_cancelled(self) -> bool:
        """Whether cancellation has been requested (latches once true)."""
        if self._cancelled:
            return True
        if self._should_cancel is None:
            return False
        now = time.monotonic()
        if (
            self._last_poll is not None
            and now - self._last_poll < self._poll_interval
        ):
            return False
        self._last_poll = now
        if self._should_cancel():
            self._cancelled = True
        return self._cancelled

    def raise_if_cancelled(self) -> None:
        """Raise :class:`JobCancelled` when cancellation was requested.

        The one call sites use at checkpoint boundaries: state has just
        been persisted, so unwinding here is always safe.
        """
        if self.is_cancelled():
            raise JobCancelled("cancellation requested")
