"""Exception hierarchy of the circuit simulator."""

from __future__ import annotations

__all__ = [
    "SpiceError",
    "NetlistError",
    "AnalysisError",
]


class SpiceError(Exception):
    """Base class for all simulator errors."""


class NetlistError(SpiceError):
    """The circuit description is malformed (bad nodes, duplicate names...)."""


class AnalysisError(SpiceError):
    """An analysis was configured incorrectly or failed to run."""
