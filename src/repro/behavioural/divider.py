"""Feedback divider behavioural model.

An integer divide-by-``ratio`` counter: one feedback edge is produced for
every ``ratio`` VCO edges.  Its supply draw is part of
:attr:`PllDesign.peripheral_current
<repro.behavioural.pll.PllDesign.peripheral_current>`.

:class:`Divider` holds one divider's ratio; :class:`DividerLanes` stacks
the ratios for the PLL cycle loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Divider", "DividerLanes"]


@dataclass
class Divider:
    """Integer feedback divider."""

    ratio: int = 24

    def __post_init__(self) -> None:
        if self.ratio < 1:
            raise ValueError("divide ratio must be at least 1")


@dataclass(frozen=True)
class DividerLanes:
    """Lane-parallel integer feedback divider."""

    #: Per-lane divide ratios as floats (integers are exactly representable,
    #: so ``ratio * period`` matches the int-times-float product).
    ratio: np.ndarray

    @classmethod
    def from_blocks(cls, dividers: Sequence[Divider]) -> "DividerLanes":
        """Stack N dividers into lane arrays."""
        return cls(ratio=np.array([divider.ratio for divider in dividers], dtype=float))

    @property
    def n_lanes(self) -> int:
        """Number of parallel lanes."""
        return self.ratio.size
