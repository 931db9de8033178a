"""Passive loop-filter behavioural model.

The paper's PLL uses the classic second-order passive filter: ``R1`` in
series with ``C1`` to ground, in parallel with a ripple capacitor ``C2``
(designable parameters C1, C2 and R1 in Table 2).  The model integrates the
charge-pump current exactly over one comparison interval (treating the
pump as a charge packet followed by a hold interval), which is accurate for
the narrow pulses produced near lock and robust for the large pulses during
acquisition.

:class:`LoopFilter` holds one filter's components and its transfer
function ``Z(s)``, used by the linear loop analysis.
:class:`LoopFilterLanes` stacks the components and runs the exact
charge-deposit + relaxation update inside the PLL cycle loop, with a
cached per-interval relaxation factor so the ``exp`` evaluation leaves the
cycle loop entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, pi
from typing import Dict, Sequence

import numpy as np

__all__ = ["LoopFilter", "LoopFilterLanesState", "LoopFilterLanes"]


@dataclass
class LoopFilter:
    """Second-order passive charge-pump loop filter (R1 + C1) || C2."""

    c1: float = 2.0e-12
    c2: float = 0.5e-12
    r1: float = 2.0e3

    def __post_init__(self) -> None:
        if self.c1 <= 0.0 or self.r1 <= 0.0:
            raise ValueError("C1 and R1 must be positive")
        if self.c2 < 0.0:
            raise ValueError("C2 must be non-negative")

    # -- small-signal description -----------------------------------------------------

    def impedance(self, s: complex) -> complex:
        """Transimpedance ``Vctrl(s) / Icp(s)`` of the filter."""
        z1 = self.r1 + 1.0 / (s * self.c1)
        if self.c2 == 0.0:
            return z1
        z2 = 1.0 / (s * self.c2)
        return z1 * z2 / (z1 + z2)

    @property
    def zero_frequency(self) -> float:
        """Stabilising zero ``1 / (2 pi R1 C1)`` in Hz."""
        return 1.0 / (2.0 * pi * self.r1 * self.c1)

    @property
    def pole_frequency(self) -> float:
        """Parasitic pole ``1 / (2 pi R1 (C1 || C2))`` in Hz (inf when C2=0)."""
        if self.c2 == 0.0:
            return float("inf")
        c_series = self.c1 * self.c2 / (self.c1 + self.c2)
        return 1.0 / (2.0 * pi * self.r1 * c_series)


@dataclass
class LoopFilterLanesState:
    """Capacitor voltages of every lane, shape ``(n_lanes,)`` each."""

    v_c1: np.ndarray
    v_c2: np.ndarray


class LoopFilterLanes:
    """Lane-parallel second-order passive loop filter.

    Holds per-lane component arrays and advances all lanes through the
    exact charge-deposit + relaxation update (:meth:`apply_charge`).  The
    per-interval relaxation factor is computed once per lane with libm's
    ``math.exp`` and cached: numpy's SIMD ``exp`` can differ from libm by
    an ulp, and the recorded artefact digests depend on the libm value.
    """

    def __init__(self, c1: np.ndarray, c2: np.ndarray, r1: np.ndarray) -> None:
        self.c1 = np.asarray(c1, dtype=float)
        self.c2 = np.asarray(c2, dtype=float)
        self.r1 = np.asarray(r1, dtype=float)
        if np.any(self.c1 <= 0.0) or np.any(self.r1 <= 0.0):
            raise ValueError("C1 and R1 must be positive in every lane")
        if np.any(self.c2 < 0.0):
            raise ValueError("C2 must be non-negative in every lane")
        self.has_c2 = self.c2 > 0.0
        self._all_c2 = bool(np.all(self.has_c2))
        # (C1 + C2) is the same every cycle, so it is computed once.
        self._c1_plus_c2 = self.c1 + self.c2
        self._decay_cache: Dict[float, np.ndarray] = {}

    @classmethod
    def from_blocks(cls, filters: Sequence[LoopFilter]) -> "LoopFilterLanes":
        """Stack N loop filters into lane arrays."""
        return cls(
            c1=np.array([f.c1 for f in filters], dtype=float),
            c2=np.array([f.c2 for f in filters], dtype=float),
            r1=np.array([f.r1 for f in filters], dtype=float),
        )

    @property
    def n_lanes(self) -> int:
        """Number of parallel lanes."""
        return self.c1.size

    def relaxation(self, interval: float) -> np.ndarray:
        """Per-lane relaxation factors of the C2-to-C1 difference.

        ``exp(-interval / (R1 (C1 || C2)))``, or 0 for lanes without a
        ripple capacitor; cached per interval.
        """
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        cached = self._decay_cache.get(interval)
        if cached is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                c_series = self.c1 * self.c2 / (self.c1 + self.c2)
            taus = (self.r1 * c_series).tolist()
            cached = np.array(
                [
                    exp(-interval / tau) if (has and tau > 0.0) else 0.0
                    for tau, has in zip(taus, self.has_c2.tolist())
                ]
            )
            self._decay_cache[interval] = cached
        return cached

    def initialise(self, control_voltage: np.ndarray) -> LoopFilterLanesState:
        """All lanes pre-charged to their ``control_voltage`` entry."""
        voltage = np.broadcast_to(
            np.asarray(control_voltage, dtype=float), self.c1.shape
        )
        return LoopFilterLanesState(v_c1=voltage.copy(), v_c2=voltage.copy())

    def apply_charge(
        self,
        state: LoopFilterLanesState,
        charge: np.ndarray,
        interval: float,
        decay: np.ndarray | None = None,
    ) -> LoopFilterLanesState:
        """Advance every lane by one comparison interval (exact update).

        The charge packet is deposited at the start of the interval (on C2
        when the lane has one, else on C1), after which the two capacitors
        relax towards each other through R1 for the rest of the interval
        while their total charge is conserved.

        Parameters
        ----------
        state:
            Capacitor voltages entering the interval.
        charge:
            Charge-pump deposit (C) per lane, shape ``(n_lanes,)``.
        interval:
            Comparison interval duration (s), shared by all lanes.
        decay:
            Optional pre-computed :meth:`relaxation` factors; pass them
            when the caller hoisted the lookup out of its cycle loop.

        Returns
        -------
        LoopFilterLanesState
            The post-interval capacitor voltages.
        """
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        if decay is None:
            decay = self.relaxation(interval)
        if self._all_c2:
            # Fast path (every lane has a ripple capacitor, the usual
            # system-stage shape): no masked selects needed.
            v_c2 = state.v_c2 + charge / self.c2
            difference = v_c2 - state.v_c1
            settled_difference = difference * decay
            total_charge = self.c1 * state.v_c1 + self.c2 * v_c2
            new_v_c2 = (total_charge + self.c1 * settled_difference) / self._c1_plus_c2
            return LoopFilterLanesState(
                v_c1=new_v_c2 - settled_difference, v_c2=new_v_c2
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            v_c2 = np.where(self.has_c2, state.v_c2 + charge / self.c2, state.v_c2)
            v_c1 = np.where(self.has_c2, state.v_c1, state.v_c1 + charge / self.c1)
            difference = v_c2 - v_c1
            settled_difference = difference * decay
            total_charge = self.c1 * v_c1 + self.c2 * v_c2
            relaxed_v_c2 = (total_charge + self.c1 * settled_difference) / self._c1_plus_c2
        new_v_c2 = np.where(self.has_c2, relaxed_v_c2, v_c2)
        new_v_c1 = np.where(self.has_c2, relaxed_v_c2 - settled_difference, v_c1)
        return LoopFilterLanesState(v_c1=new_v_c1, v_c2=new_v_c2)

    def output_voltage(self, state: LoopFilterLanesState) -> np.ndarray:
        """Per-lane control voltage (C2's voltage, or C1's where C2=0)."""
        if self._all_c2:
            return state.v_c2
        return np.where(self.has_c2, state.v_c2, state.v_c1)
