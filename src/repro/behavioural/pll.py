"""Time-domain behavioural PLL simulator.

The paper's system-level example is a charge-pump PLL (figure 5): PFD,
charge pump, passive loop filter, VCO and feedback divider.  The simulator
here advances the loop one reference cycle at a time, exactly like the
behavioural Verilog-A models of reference [13], for N loops at once (one
lane per design or variation sample; a single loop is a batch of one):

1. the PFD compares the reference edge with the divider edge,
2. the charge pump converts the pulse widths to a charge packet,
3. the loop filter integrates the packet and relaxes for the rest of the
   comparison interval,
4. the VCO runs at the frequency given by the new control voltage (with
   per-cycle jitter injection when a random generator is supplied), and
5. the divider produces the next feedback edge.

Every quantity can be evaluated for the ``nominal``, ``min`` or ``max``
variant of the VCO block, which is how the combined performance +
variation model propagates block-level spread to the system performances
(lock time, jitter, current) -- the central mechanism of section 4.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.behavioural.charge_pump import ChargePump, ChargePumpLanes
from repro.behavioural.divider import Divider, DividerLanes
from repro.behavioural.loop_filter import LoopFilter, LoopFilterLanes
from repro.behavioural.pfd import PfdLanes, PhaseFrequencyDetector
from repro.behavioural.vco import VARIANTS, BehaviouralVco, VcoLanes
from repro.spice.waveform import Waveform

__all__ = [
    "PllDesign",
    "PllPerformance",
    "PllTransient",
    "PllBatchTransient",
    "BehaviouralPll",
]


@dataclass(frozen=True)
class PllDesign:
    """System-level design point of the PLL.

    The designable parameters of the paper's system-level optimisation are
    the VCO gain and current (carried by the :class:`BehaviouralVco`) plus
    the loop-filter components ``c1``, ``c2`` and ``r1``; the remaining
    fields configure the fixed parts of the architecture.
    """

    c1: float = 2.0e-12
    c2: float = 0.5e-12
    r1: float = 2.0e3
    charge_pump_current: float = 100e-6
    divide_ratio: int = 24
    reference_frequency: float = 40e6
    #: Supply current of the non-VCO blocks (PFD, CP bias, divider, buffers).
    peripheral_current: float = 10e-3

    @property
    def target_frequency(self) -> float:
        """Locked output frequency ``N * f_ref``."""
        return self.divide_ratio * self.reference_frequency

    def loop_filter(self) -> LoopFilter:
        """Loop filter built from the designable components."""
        return LoopFilter(c1=self.c1, c2=self.c2, r1=self.r1)


@dataclass
class PllPerformance:
    """System performances of one PLL evaluation variant."""

    lock_time: float
    jitter: float
    current: float
    locked: bool
    final_frequency: float

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for optimiser / reporting use."""
        return {
            "lock_time": self.lock_time,
            "jitter": self.jitter,
            "current": self.current,
            "locked": float(self.locked),
            "final_frequency": self.final_frequency,
        }


@dataclass
class PllTransient:
    """Recorded loop trajectory of one simulation run."""

    time: np.ndarray
    control_voltage: np.ndarray
    frequency: np.ndarray
    phase_error: np.ndarray

    def control_waveform(self) -> Waveform:
        """Control voltage as a waveform (the paper's figure-8 style plot)."""
        return Waveform(self.time, self.control_voltage, "vctrl")

    def frequency_waveform(self) -> Waveform:
        """Instantaneous VCO frequency as a waveform."""
        return Waveform(self.time, self.frequency, "fvco")


@dataclass
class PllBatchTransient:
    """Loop trajectories of a lane-parallel simulation run.

    ``time`` is shared by every lane (all lanes advance on the same
    reference-cycle grid); the recorded quantities are ``(n_lanes,
    n_cycles)`` matrices, one row per lane.
    """

    time: np.ndarray
    control_voltage: np.ndarray
    frequency: np.ndarray
    phase_error: np.ndarray

    @property
    def n_lanes(self) -> int:
        """Number of simulated lanes."""
        return self.control_voltage.shape[0]

    @property
    def n_cycles(self) -> int:
        """Number of reference cycles simulated."""
        return self.control_voltage.shape[1]

    def lane(self, index: int) -> PllTransient:
        """The single-loop transient view of one lane."""
        return PllTransient(
            time=self.time.copy(),
            control_voltage=self.control_voltage[index].copy(),
            frequency=self.frequency[index].copy(),
            phase_error=self.phase_error[index].copy(),
        )


@dataclass
class _PllLaneBundle:
    """Lane-parallel block twins plus per-lane measurement constants."""

    pfd: PfdLanes
    pump: ChargePumpLanes
    filters: LoopFilterLanes
    vco: VcoLanes
    divider: DividerLanes
    reference_frequency: float
    peripheral_current: np.ndarray
    target_frequency: np.ndarray
    lock_tolerance: np.ndarray


class BehaviouralPll:
    """Cycle-by-cycle behavioural simulation of the charge-pump PLL.

    The blocks are parameter holders; :meth:`simulate_batch` stacks them
    into their ``*Lanes`` twins and runs the one cycle loop, and every
    single-loop method is a one-lane batch call.
    """

    def __init__(
        self,
        vco: BehaviouralVco,
        design: PllDesign,
        pfd: Optional[PhaseFrequencyDetector] = None,
        charge_pump: Optional[ChargePump] = None,
        divider: Optional[Divider] = None,
        lock_tolerance: float = 0.005,
    ) -> None:
        self.vco = vco
        self.design = design
        self.pfd = pfd or PhaseFrequencyDetector()
        self.charge_pump = charge_pump or ChargePump(current=design.charge_pump_current)
        self.divider = divider or Divider(ratio=design.divide_ratio)
        if self.divider.ratio != design.divide_ratio:
            raise ValueError("divider ratio must match the design's divide_ratio")
        if self.charge_pump.current != design.charge_pump_current:
            raise ValueError(
                "charge-pump current must match the design's charge_pump_current"
            )
        self.lock_tolerance = lock_tolerance
        # The loop filter only depends on the (frozen) design, so it is
        # built once here instead of once per batch / variant.
        self._loop_filter = design.loop_filter()

    # -- simulation ----------------------------------------------------------------------

    def simulate(
        self,
        variant: str = "nominal",
        max_time: float = 3e-6,
        seed: Optional[int] = None,
        initial_control_voltage: Optional[float] = None,
    ) -> PllTransient:
        """Run the loop until ``max_time`` and record its trajectory.

        A one-lane :meth:`simulate_batch`: the lane engine is the only
        cycle loop.
        """
        return self.simulate_batch(
            [self],
            variant=variant,
            max_time=max_time,
            seed=seed,
            initial_control_voltage=initial_control_voltage,
        ).lane(0)

    # -- lane-parallel simulation ----------------------------------------------------------

    @classmethod
    def simulate_batch(
        cls,
        plls: Sequence["BehaviouralPll"],
        variant: Union[str, Sequence[str]] = "nominal",
        max_time: float = 3e-6,
        seed: Optional[int] = None,
        initial_control_voltage: Optional[float] = None,
    ) -> PllBatchTransient:
        """Advance N loops through the reference-cycle loop simultaneously.

        Every lane is one :class:`BehaviouralPll` (one candidate design or
        one variation sample); ``variant`` is either one variant shared by
        all lanes or a per-lane sequence, which is how
        :meth:`evaluate_all_variants_batch` runs the nominal, minimum and
        maximum populations inside a single cycle loop.

        The update rules run on ``(n_lanes,)`` arrays, and jitter is drawn
        as one bulk ``standard_normal(n_cycles)`` block from the seeded
        generator, so every lane sees the same noise sequence and
        ``sigma * noise[cycle]`` equals ``rng.normal(0.0, sigma)`` of a
        per-cycle draw bit for bit.  No lane reads another lane's state, so
        a lane's trajectory does not depend on the batch it runs in.

        All lanes must share the reference frequency (they advance on one
        comparison grid); every other parameter may vary per lane.
        """
        lanes = cls._build_lanes(plls, variant)
        return cls._simulate_lanes(
            lanes,
            max_time=max_time,
            seed=seed,
            initial_control_voltage=initial_control_voltage,
        )

    @classmethod
    def _build_lanes(
        cls,
        plls: Sequence["BehaviouralPll"],
        variant: Union[str, Sequence[str]],
    ) -> _PllLaneBundle:
        """Stack N loops into the lane-parallel block bundle."""
        plls = list(plls)
        if not plls:
            raise ValueError("simulate_batch needs at least one PLL lane")
        reference_frequency = plls[0].design.reference_frequency
        if any(
            pll.design.reference_frequency != reference_frequency for pll in plls
        ):
            raise ValueError(
                "all lanes must share the same reference frequency; "
                "split the batch by reference frequency instead"
            )
        targets = np.array([pll.design.target_frequency for pll in plls])
        return _PllLaneBundle(
            pfd=PfdLanes.from_blocks([pll.pfd for pll in plls]),
            pump=ChargePumpLanes.from_blocks([pll.charge_pump for pll in plls]),
            filters=LoopFilterLanes.from_blocks([pll._loop_filter for pll in plls]),
            vco=VcoLanes.from_blocks([pll.vco for pll in plls], variant),
            divider=DividerLanes.from_blocks([pll.divider for pll in plls]),
            reference_frequency=reference_frequency,
            peripheral_current=np.array(
                [pll.design.peripheral_current for pll in plls]
            ),
            target_frequency=targets,
            lock_tolerance=np.array([pll.lock_tolerance for pll in plls]),
        )

    @classmethod
    def _simulate_lanes(
        cls,
        lanes: _PllLaneBundle,
        max_time: float,
        seed: Optional[int],
        initial_control_voltage: Optional[float] = None,
    ) -> PllBatchTransient:
        """Advance a prepared lane bundle through the cycle loop."""
        pfd, pump, filters = lanes.pfd, lanes.pump, lanes.filters
        vco, divider = lanes.vco, lanes.divider
        n_lanes = vco.n_lanes
        t_ref = 1.0 / lanes.reference_frequency
        n_cycles = max(int(np.ceil(max_time / t_ref)), 2)
        ratio = divider.ratio
        if initial_control_voltage is None:
            vctrl0 = vco.vctrl_min
        else:
            vctrl0 = np.broadcast_to(
                np.asarray(initial_control_voltage, dtype=float), (n_lanes,)
            )
        state = filters.initialise(vctrl0)
        decay = filters.relaxation(t_ref)
        if seed is not None:
            noise = np.random.default_rng(seed).standard_normal(n_cycles)
            sigma = vco.period_jitter * np.sqrt(ratio)
        else:
            noise = None
            sigma = None
        # Pre-allocated lane buffers for the recorded trajectories.
        vctrls = np.empty((n_lanes, n_cycles))
        frequencies = np.empty((n_lanes, n_cycles))
        errors = np.empty((n_lanes, n_cycles))
        fb_edge = np.zeros(n_lanes)
        # A stalled VCO (e.g. a min-variant fmin floored at 0) never
        # produces an edge: IEEE 1/0 gives it an infinite period.
        with np.errstate(divide="ignore"):
            for cycle in range(n_cycles):
                ref_edge = cycle * t_ref
                error = pfd.compare(ref_edge, fb_edge)
                charge = pump.charge(error, t_ref)
                state = filters.apply_charge(state, charge, t_ref, decay=decay)
                vctrl = filters.output_voltage(state)
                vctrl = np.minimum(np.maximum(vctrl, vco.vctrl_min), vco.vctrl_max)
                frequency = vco.frequency_from_clamped(vctrl)
                vco_period = 1.0 / frequency
                if noise is not None:
                    fb_period = ratio * vco_period + sigma * noise[cycle]
                else:
                    fb_period = ratio * vco_period
                # The next feedback edge follows one divided period after the
                # later of the previous edge and its comparison instant (keeps
                # the loop causal during frequency acquisition).
                fb_edge = np.maximum(fb_edge, ref_edge) + fb_period
                vctrls[:, cycle] = vctrl
                frequencies[:, cycle] = frequency
                errors[:, cycle] = error.timing_error
        times = np.arange(n_cycles, dtype=float) * t_ref + t_ref
        return PllBatchTransient(
            time=times,
            control_voltage=vctrls,
            frequency=frequencies,
            phase_error=errors,
        )

    # -- measurements ----------------------------------------------------------------------

    def lock_time(self, transient: PllTransient) -> float:
        """Time after which the output frequency stays within tolerance."""
        target = np.array([self.design.target_frequency])
        lock_times = self._lock_times_from_arrays(
            transient.time,
            transient.frequency[None, :],
            target,
            np.array([self.lock_tolerance]) * target,
        )
        return float(lock_times[0])

    @classmethod
    def lock_times_batch(
        cls, plls: Sequence["BehaviouralPll"], transient: PllBatchTransient
    ) -> np.ndarray:
        """Per-lane lock times of a batched transient.

        Lanes that never leave the tolerance band lock at the first
        sample, lanes still outside at the end never lock (``inf``), and
        every other lane locks one sample after its last out-of-tolerance
        cycle.
        """
        plls = list(plls)
        targets = np.array([pll.design.target_frequency for pll in plls])
        tolerances = np.array([pll.lock_tolerance for pll in plls]) * targets
        return cls._lock_times_from_arrays(
            transient.time, transient.frequency, targets, tolerances
        )

    @staticmethod
    def _lock_times_from_arrays(
        time: np.ndarray,
        frequency: np.ndarray,
        targets: np.ndarray,
        tolerances: np.ndarray,
    ) -> np.ndarray:
        outside = np.abs(frequency - targets[:, None]) > tolerances[:, None]
        any_outside = outside.any(axis=1)
        still_outside = outside[:, -1]
        n_cycles = frequency.shape[1]
        # Index of the last out-of-tolerance cycle per lane (garbage for
        # all-inside lanes, overridden below).
        last_outside = (n_cycles - 1) - np.argmax(outside[:, ::-1], axis=1)
        next_index = np.minimum(last_outside + 1, n_cycles - 1)
        lock_times = time[next_index]
        lock_times = np.where(still_outside, np.inf, lock_times)
        lock_times = np.where(any_outside, lock_times, time[0])
        return lock_times

    def output_jitter(self, variant: str = "nominal") -> float:
        """PLL output jitter from the VCO jitter accumulated over one
        divided period (``jvco * sqrt(2 * ratio)``, paper Listing 2)."""
        return self.vco.output_edge_jitter(self.divider.ratio, variant)

    def supply_current(self, variant: str = "nominal") -> float:
        """Total PLL supply current: VCO variant plus the fixed peripherals."""
        return self.vco.current(variant) + self.design.peripheral_current

    def evaluate(
        self,
        variant: str = "nominal",
        max_time: float = 3e-6,
        seed: Optional[int] = None,
    ) -> PllPerformance:
        """Simulate one variant and return its system performances."""
        return self.evaluate_batch(
            [self], variant=variant, max_time=max_time, seed=seed
        )[0]

    def evaluate_all_variants(
        self, max_time: float = 3e-6, seed: Optional[int] = None
    ) -> Dict[str, PllPerformance]:
        """Evaluate the nominal, minimum and maximum variants.

        This is the paper's mechanism for propagating block variation to
        the system level: the optimiser sees nominal as well as worst-case
        system performances for every candidate design.
        """
        return self.evaluate_all_variants_batch([self], max_time=max_time, seed=seed)[0]

    @classmethod
    def evaluate_batch(
        cls,
        plls: Sequence["BehaviouralPll"],
        variant: Union[str, Sequence[str]] = "nominal",
        max_time: float = 3e-6,
        seed: Optional[int] = None,
    ) -> List[PllPerformance]:
        """Lane-parallel :meth:`evaluate`: one performance record per lane.

        The jitter and supply-current measurements come from the lane
        constants already resolved for the transient (the same values
        :meth:`output_jitter` / :meth:`supply_current` compute), so no
        per-lane table lookups remain in this path.

        Parameters
        ----------
        plls:
            The loops to evaluate, one per lane; all must share the
            reference frequency.
        variant:
            One variation variant shared by all lanes, or one per lane
            (``"nominal"`` / ``"min"`` / ``"max"``).
        max_time:
            Simulated time horizon (s) of the locking transient.
        seed:
            Jitter-noise seed.  An int draws one standard-normal stream
            shared by every lane; ``None`` injects no jitter.

        Returns
        -------
        list of PllPerformance
            One record per lane, the same bits at any batch width.
        """
        plls = list(plls)
        lanes = cls._build_lanes(plls, variant)
        transient = cls._simulate_lanes(lanes, max_time=max_time, seed=seed)
        tolerances = lanes.lock_tolerance * lanes.target_frequency
        lock_times = cls._lock_times_from_arrays(
            transient.time, transient.frequency, lanes.target_frequency, tolerances
        )
        jitters = lanes.vco.output_edge_jitter(lanes.divider.ratio)
        currents = lanes.vco.current + lanes.peripheral_current
        final_frequencies = transient.frequency[:, -1]
        return [
            PllPerformance(
                lock_time=float(lock),
                jitter=float(jitter),
                current=float(current),
                locked=bool(np.isfinite(lock)),
                final_frequency=float(final),
            )
            for lock, jitter, current, final in zip(
                lock_times, jitters, currents, final_frequencies
            )
        ]

    @classmethod
    def evaluate_all_variants_batch(
        cls,
        plls: Sequence["BehaviouralPll"],
        max_time: float = 3e-6,
        seed: Optional[int] = None,
    ) -> List[Dict[str, PllPerformance]]:
        """Lane-parallel :meth:`evaluate_all_variants` for N designs.

        The nominal, minimum and maximum populations are concatenated into
        one ``3 N``-lane batch and advanced through a single cycle loop;
        every lane consumes the same seeded noise stream regardless of
        variant.

        Parameters
        ----------
        plls:
            The candidate loops, one per design.
        max_time:
            Simulated time horizon (s) of the locking transient.
        seed:
            Jitter-noise seed.  An int draws one standard-normal stream
            shared by every lane; ``None`` injects no jitter.

        Returns
        -------
        list of dict
            One ``{"nominal" | "min" | "max": PllPerformance}`` mapping
            per design.
        """
        plls = list(plls)
        n = len(plls)
        lanes = [pll for _ in VARIANTS for pll in plls]
        lane_variants = [variant for variant in VARIANTS for _ in plls]
        performances = cls.evaluate_batch(
            lanes, variant=lane_variants, max_time=max_time, seed=seed
        )
        return [
            {
                variant: performances[block * n + index]
                for block, variant in enumerate(VARIANTS)
            }
            for index in range(n)
        ]
