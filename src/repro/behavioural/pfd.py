"""Phase-frequency detector behavioural model.

A tri-state PFD compares the arrival times of the reference edge and the
feedback (divider) edge in each comparison cycle and produces an UP or
DOWN pulse whose width equals the time difference.  Non-idealities that
matter for lock behaviour -- a dead zone and a minimum (reset) pulse width
-- are modelled because they bound the achievable static phase error.

:class:`PhaseFrequencyDetector` holds one detector's parameters;
:class:`PfdLanes` stacks them and evaluates the comparison rule for
``n_lanes`` feedback edges at once inside the PLL cycle loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["PhaseErrorLanes", "PhaseFrequencyDetector", "PfdLanes"]


@dataclass
class PhaseFrequencyDetector:
    """Parameters of a tri-state PFD with dead zone and reset pulse width."""

    #: Phase errors smaller than this produce no net output (s).
    dead_zone: float = 0.0
    #: Both outputs stay high for at least this long each cycle (s); the
    #: anti-backlash pulse of a real PFD.
    reset_pulse: float = 20e-12
    #: Maximum pulse width, bounded by the reference period in a real PFD (s).
    max_pulse: float = 1e-6


@dataclass(frozen=True)
class PhaseErrorLanes:
    """Phase-comparison results of one cycle across all lanes."""

    #: Signed timing errors (s), shape ``(n_lanes,)``; positive when the
    #: feedback edge is late, i.e. the VCO must speed up (UP pulse).
    timing_error: np.ndarray
    #: UP pulse widths (s), shape ``(n_lanes,)``.
    up_width: np.ndarray
    #: DOWN pulse widths (s), shape ``(n_lanes,)``.
    down_width: np.ndarray

    @property
    def net_width(self) -> np.ndarray:
        """Net charge-pump drive ``up - down`` (s) per lane."""
        return self.up_width - self.down_width


@dataclass(frozen=True)
class PfdLanes:
    """Lane-parallel tri-state PFD: one parameter entry per lane."""

    dead_zone: np.ndarray
    reset_pulse: np.ndarray
    max_pulse: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "_no_dead_zone", bool(np.all(self.dead_zone == 0.0)))

    @classmethod
    def from_blocks(cls, pfds: Sequence[PhaseFrequencyDetector]) -> "PfdLanes":
        """Stack the parameters of N PFD blocks into lane arrays.

        Parameters
        ----------
        pfds:
            The detector parameters, one block per lane.

        Returns
        -------
        PfdLanes
            A lane-parallel detector whose lane ``i`` carries ``pfds[i]``.
        """
        return cls(
            dead_zone=np.array([pfd.dead_zone for pfd in pfds], dtype=float),
            reset_pulse=np.array([pfd.reset_pulse for pfd in pfds], dtype=float),
            max_pulse=np.array([pfd.max_pulse for pfd in pfds], dtype=float),
        )

    @property
    def n_lanes(self) -> int:
        """Number of parallel lanes."""
        return self.dead_zone.size

    def compare(self, reference_edge: float, feedback_edges: np.ndarray) -> PhaseErrorLanes:
        """Compare one reference edge with every lane's feedback edge.

        The error beyond the dead zone, capped at ``max_pulse``, widens the
        UP pulse when the feedback edge is late and the DOWN pulse when it
        is early; both pulses last at least ``reset_pulse``.

        Parameters
        ----------
        reference_edge:
            Arrival time (s) of the shared reference edge.
        feedback_edges:
            Per-lane feedback edge times (s), shape ``(n_lanes,)``.

        Returns
        -------
        PhaseErrorLanes
            Timing errors and UP/DOWN pulse widths for every lane.
        """
        error = feedback_edges - reference_edge
        magnitude = np.abs(error)
        if self._no_dead_zone:
            # |e| - 0.0 == |e| bit-for-bit, and the dead-zone branch's 0.0
            # for |e| == 0 is reproduced by 0.0 - 0.0, so the select can go.
            effective = magnitude - self.dead_zone
        else:
            effective = np.where(
                magnitude <= self.dead_zone, 0.0, magnitude - self.dead_zone
            )
        effective = np.minimum(effective, self.max_pulse)
        up = self.reset_pulse + np.where(error > 0.0, effective, 0.0)
        down = self.reset_pulse + np.where(error < 0.0, effective, 0.0)
        return PhaseErrorLanes(timing_error=error, up_width=up, down_width=down)
