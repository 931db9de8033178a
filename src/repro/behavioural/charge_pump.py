"""Charge-pump behavioural model.

Converts the PFD pulse widths into packets of charge delivered to the loop
filter.  Up/down current mismatch and leakage are modelled because they
set the static phase offset and the reference spur level of a real PLL.
The pump's supply draw is part of :attr:`PllDesign.peripheral_current
<repro.behavioural.pll.PllDesign.peripheral_current>`.

:class:`ChargePump` holds one pump's parameters; :class:`ChargePumpLanes`
resolves the mismatch-adjusted up/down currents once per lane and runs
the per-cycle charge rule as array math inside the PLL cycle loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.behavioural.pfd import PhaseErrorLanes

__all__ = ["ChargePump", "ChargePumpLanes"]


@dataclass
class ChargePump:
    """Parameters of an ideal-switch charge pump with mismatch and leakage."""

    #: Nominal pump current (A).
    current: float = 100e-6
    #: Relative mismatch between the up and down current sources.
    mismatch: float = 0.0
    #: Constant leakage current out of the loop filter (A).
    leakage: float = 0.0

    def __post_init__(self) -> None:
        if self.current <= 0.0:
            raise ValueError("charge-pump current must be positive")

    @property
    def up_current(self) -> float:
        """Source (UP) current including mismatch."""
        return self.current * (1.0 + 0.5 * self.mismatch)

    @property
    def down_current(self) -> float:
        """Sink (DOWN) current including mismatch."""
        return self.current * (1.0 - 0.5 * self.mismatch)


@dataclass(frozen=True)
class ChargePumpLanes:
    """Lane-parallel charge pump with pre-resolved up/down currents."""

    up_current: np.ndarray
    down_current: np.ndarray
    leakage: np.ndarray

    @classmethod
    def from_blocks(cls, pumps: Sequence[ChargePump]) -> "ChargePumpLanes":
        """Stack N charge pumps into lane arrays.

        The mismatch-adjusted :attr:`ChargePump.up_current` /
        :attr:`ChargePump.down_current` are evaluated once per lane here
        instead of once per cycle.
        """
        return cls(
            up_current=np.array([pump.up_current for pump in pumps], dtype=float),
            down_current=np.array([pump.down_current for pump in pumps], dtype=float),
            leakage=np.array([pump.leakage for pump in pumps], dtype=float),
        )

    @property
    def n_lanes(self) -> int:
        """Number of parallel lanes."""
        return self.up_current.size

    def charge(self, phase_error: PhaseErrorLanes, comparison_period: float) -> np.ndarray:
        """Net charge (C) delivered to every lane's loop filter this cycle.

        Parameters
        ----------
        phase_error:
            The cycle's lane-parallel PFD comparison result.
        comparison_period:
            Duration (s) of the comparison cycle (shared by all lanes).

        Returns
        -------
        numpy.ndarray
            ``up_current * up_width - down_current * down_width - leakage *
            comparison_period`` per lane (C), shape ``(n_lanes,)``.
        """
        if comparison_period <= 0.0:
            raise ValueError("comparison period must be positive")
        delivered = self.up_current * phase_error.up_width
        delivered = delivered - self.down_current * phase_error.down_width
        delivered = delivered - self.leakage * comparison_period
        return delivered
