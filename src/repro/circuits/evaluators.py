"""VCO performance evaluators.

Two evaluators implement the same interface (:class:`VcoEvaluator`):

* :class:`RingVcoSpiceEvaluator` runs the transistor-level test bench of
  :mod:`repro.circuits.testbench` on the MNA engine.  It is the
  ground-truth engine used for bottom-up verification and spot checks, but
  a single evaluation runs two transistor-level transients, orders of
  magnitude slower than the analytical evaluator.

* :class:`RingVcoAnalyticalEvaluator` computes the same five performances
  from first-order device physics (starving current from the shared MOSFET
  model equations, delay = C V / I, thermal-noise jitter, dynamic +
  crowbar supply current).  It has one kernel, numpy arithmetic over the
  batch axis, and evaluating a single design is a batch of one.  A whole
  population or Monte Carlo batch is one call, which makes the paper's
  3,000-sample NSGA-II run and the per-Pareto-point Monte Carlo analysis
  laptop-scale.  Its calibration factors were fitted against the SPICE
  evaluator so that both engines agree on trends and roughly on magnitude
  (see ``examples/vco_characterisation.py`` and the unit tests).

Both evaluators accept a technology override and a mismatch sample, which
is how the Monte Carlo engine injects global process variation and local
device mismatch.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.performance import VcoPerformance
from repro.circuits.ring_vco import N_STAGES, VcoDesign
from repro.circuits.testbench import VcoTestbench
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.process.mismatch import MismatchSample
from repro.process.montecarlo import SampleBatch
from repro.process.technology import TECH_012UM, Technology
from repro.spice.mosfet import _ELECTRON_CHARGE, _EPS_OX

__all__ = ["VcoEvaluator", "RingVcoAnalyticalEvaluator", "RingVcoSpiceEvaluator"]

_BOLTZMANN = 1.380649e-23

#: VCO evaluations performed, labelled by evaluator backend.
EVALUATIONS = obs_metrics.get_registry().counter(
    "repro_evaluations_total",
    "VCO evaluations performed, by evaluator backend",
    ("backend",),
)

#: Batch adapter signature used by ``MonteCarloEngine.run_batch``: one
#: :class:`~repro.process.montecarlo.SampleBatch` in, one performance
#: dictionary per sample out.
BatchMonteCarloEvaluator = Callable[[SampleBatch], List[Dict[str, float]]]


class VcoEvaluator:
    """Interface shared by the analytical and the SPICE evaluator."""

    technology: Technology

    def evaluate(
        self,
        design: VcoDesign,
        technology: Optional[Technology] = None,
        mismatch: Optional[MismatchSample] = None,
    ) -> VcoPerformance:
        """Evaluate the five performances of one design point."""
        raise NotImplementedError

    def evaluate_batch(
        self,
        designs: Sequence[VcoDesign],
        technology: Optional[Technology] = None,
        samples: Optional[SampleBatch] = None,
    ) -> List[VcoPerformance]:
        """Evaluate many design points and/or Monte Carlo samples at once.

        ``samples`` is a :class:`~repro.process.montecarlo.SampleBatch`
        drawn around its own nominal technology; without it every design
        is evaluated under ``technology`` (default: the evaluator's).
        Length-1 inputs broadcast against the longer one, covering both
        batch shapes the flow needs: N designs under one technology (the
        NSGA-II population) and one design under N samples (the Monte
        Carlo analysis).  The base implementation loops :meth:`evaluate`
        over materialised samples; the analytical evaluator overrides it
        with numpy array math, and its :meth:`evaluate` is a batch of one.
        """
        designs, technologies, mismatches = _broadcast_batch(
            designs, _batch_or_nominal(samples, technology or self.technology)
        )
        return [
            self.evaluate(design, technology=tech, mismatch=mismatch)
            for design, tech, mismatch in zip(designs, technologies, mismatches)
        ]

    def monte_carlo_evaluator(
        self, design: VcoDesign
    ) -> Callable[[Technology, MismatchSample], Dict[str, float]]:
        """Adapter with the signature expected by the Monte Carlo engine."""

        def _evaluate(technology: Technology, mismatch: MismatchSample) -> Dict[str, float]:
            return self.evaluate(design, technology=technology, mismatch=mismatch).as_dict()

        return _evaluate

    def monte_carlo_batch_evaluator(self, design: VcoDesign) -> BatchMonteCarloEvaluator:
        """Batch adapter for ``MonteCarloEngine.run_batch``."""

        def _evaluate(samples: SampleBatch) -> List[Dict[str, float]]:
            performances = self.evaluate_batch([design], samples=samples)
            return [performance.as_dict() for performance in performances]

        return _evaluate


def _batch_or_nominal(samples: Optional[SampleBatch], technology: Technology) -> SampleBatch:
    """The given sample batch, or a one-sample batch of the nominal technology."""
    return samples if samples is not None else SampleBatch.nominal(technology)


def _broadcast_designs(designs: Sequence, n_samples: int) -> List:
    """Designs broadcast against ``n_samples`` draws (each side length 1 or N)."""
    designs = list(designs)
    n = max(len(designs), n_samples)
    if len(designs) not in (1, n) or n_samples not in (1, n):
        raise ValueError(
            f"cannot broadcast {len(designs)} design(s) against {n_samples} sample(s)"
        )
    return designs * n if len(designs) == 1 else designs


def _broadcast_batch(designs, samples: SampleBatch):
    """Per-element (design, technology, mismatch) lists of a batch.

    The batch's samples are materialised into technologies and mismatch
    samples, for evaluators that take one sample at a time.
    """
    designs = _broadcast_designs(designs, len(samples))
    drawn = list(samples)
    if len(drawn) == 1:
        drawn = drawn * len(designs)
    return designs, [sample.technology for sample in drawn], [sample.mismatch for sample in drawn]


def _softplus_overdrive(vov: np.ndarray, n_vt: np.ndarray) -> np.ndarray:
    """Elementwise smoothed overdrive of the MOSFET model.

    This is the softplus transition of
    :meth:`repro.spice.mosfet.MOSFET._channel_current`.  The ratio, the
    branch selection and the final products run in numpy, which rounds
    them like the scalar code; the transcendentals deliberately go
    through ``math.exp`` / ``math.log1p``, mapped over the elements,
    instead of the numpy ufuncs: numpy's SIMD transcendentals can differ
    from libm by an ulp, which is enough to push a seeded NSGA-II run
    onto a different trajectory.  The recorded artefact digests
    (``table2`` and the smoke-scenario stage pickles) were computed with
    libm, so switching to the ufuncs is a byte-changing edit that
    re-records them.

    Every element gets the scalar code's branch: the overdrive itself
    above a ratio of 40, ``n_vt * exp(ratio)`` below -40, and
    ``n_vt * log1p(exp(ratio))`` otherwise, a NaN ratio (``inf / inf``
    included) too.  The ratio is capped at 40 before ``exp`` so that the
    values the first branch discards cannot overflow.
    """
    with np.errstate(invalid="ignore"):
        ratio = np.divide(vov, n_vt, dtype=float)
    exp = np.fromiter(map(math.exp, np.minimum(ratio, 40.0).ravel().tolist()), float, ratio.size)
    log1p_exp = np.fromiter(map(math.log1p, exp.tolist()), float, ratio.size)
    smooth = n_vt * np.where(ratio.ravel() < -40.0, exp, log1p_exp).reshape(ratio.shape)
    return np.where(ratio > 40.0, vov, smooth)


@dataclass
class _DeviceArrays:
    """Model-card and geometry parameters of one device type, as arrays.

    Every field mirrors an attribute consumed by the scalar
    :meth:`repro.spice.mosfet.MOSFET._channel_current`; values are
    scalars, length-N arrays (N = batch size) or stacks of several
    devices with the batch on the last axis, so the same expressions
    evaluate them all at once.
    """

    polarity: int
    width: np.ndarray
    length: np.ndarray
    vth0: np.ndarray
    u0: np.ndarray
    tox: np.ndarray
    lambda_: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    n_sub: np.ndarray
    e_crit: np.ndarray
    ld: np.ndarray
    temperature: np.ndarray

    def channel_current(self, vgs, vds, vbs) -> np.ndarray:
        """Vectorised transcription of :meth:`MOSFET._channel_current`.

        The expressions below keep the scalar code's operation order so
        results stay bit-identical (IEEE arithmetic is deterministic for a
        fixed evaluation order).  The biases broadcast against the
        parameters like any other operand: the stage kernel passes them
        constant over the batch axis.
        """
        effective_length = np.maximum(self.length - 2.0 * self.ld, 1.0e-9)
        cox = _EPS_OX / self.tox
        kp = self.u0 * cox
        beta = kp * self.width / effective_length
        phi_minus_vbs = np.maximum(self.phi - vbs, 1e-6)
        vth = self.vth0 + self.gamma * (np.sqrt(phi_minus_vbs) - np.sqrt(self.phi))
        vov = vgs - vth
        thermal_voltage = _BOLTZMANN * self.temperature / _ELECTRON_CHARGE
        n_vt = self.n_sub * thermal_voltage
        vov_eff = _softplus_overdrive(vov, n_vt)
        theta = 1.0 / (self.e_crit * effective_length)
        vov_eff = vov_eff / (1.0 + theta * vov_eff)
        vdsat = np.maximum(vov_eff, 1e-9)
        clm = 1.0 + self.lambda_ * vds
        triode = beta * (vov_eff * vds - 0.5 * vds * vds) * clm
        saturation = 0.5 * beta * vov_eff * vov_eff * clm
        ids = np.where(vds < vdsat, triode, saturation)
        return np.maximum(ids, 0.0)


#: Model-card attributes passed unchanged to every row of a stacked
#: :class:`_DeviceArrays` (``vth0`` and ``u0`` carry the mismatch).
_CHANNEL_ATTRIBUTES = ("tox", "lambda_", "gamma", "phi", "n_sub", "e_crit", "ld", "temperature")

#: Model-card attributes consumed by the vectorised kernel.
_CARD_ATTRIBUTES = (
    "vth0",
    "u0",
    "tox",
    "lambda_",
    "gamma",
    "phi",
    "n_sub",
    "e_crit",
    "ld",
    "cgso",
    "cj",
    "drain_extension",
    "temperature",
)


def _sample_card(samples: SampleBatch, polarity: str) -> Dict:
    """A batch's model card as attribute values: shifted columns where varied.

    Parameters without global variation stay nominal scalars, which keeps
    the array expressions cheap; scalar and column operands give the same
    elementwise bits.
    """
    model = samples.technology.model(polarity)
    columns = samples.card_columns(polarity)
    values = {attr: columns.get(attr, getattr(model, attr)) for attr in _CARD_ATTRIBUTES}
    values["polarity"] = model.polarity
    return values


#: The four devices of a starved inverter stage, per polarity: mismatch
#: name prefix, width and length design parameters, and the terminal
#: voltages ``(vd, vg, vs, vb)`` at control voltage ``vctrl`` and supply
#: ``vdd``.  The NMOS tail sets the discharge current; the PMOS tail
#: mirrors the bias branch (its gate sits near the diode's ``|Vgs|``);
#: the inverter devices limit the current when smaller than the tails.
_STAGE_ROLES = {
    "nmos": (
        ("mtn", "tail_nmos_width", "tail_length", lambda vctrl, vdd, half: (half, vctrl, 0.0, 0.0)),
        ("mn", "nmos_width", "nmos_length", lambda vctrl, vdd, half: (half, vdd, 0.0, 0.0)),
    ),
    "pmos": (
        (
            "mtp",
            "tail_pmos_width",
            "tail_length",
            lambda vctrl, vdd, half: (half, half - vdd + half, vdd, vdd),
        ),
        ("mp", "pmos_width", "pmos_length", lambda vctrl, vdd, half: (half, 0.0 - 0.0, vdd, vdd)),
    ),
}


def _forward_bias(polarity: int, vd: float, vg: float, vs: float, vb: float):
    """``(vgs, vds, vbs)`` of :meth:`MOSFET.drain_current` in the NMOS frame.

    Every stage role has its drain at ``vdd / 2`` and its source at a
    rail (0 for NMOS, ``vdd`` for PMOS), so for any ``vdd > 0`` all four
    take the forward (``vd >= vs``) branch and none swaps source and
    drain.
    """
    nvd, nvg, nvs, nvb = polarity * vd, polarity * vg, polarity * vs, polarity * vb
    if nvd < nvs:
        raise ValueError("the stage-bias kernel needs vdd > 0")
    return nvg - nvs, nvd - nvs, nvb - nvs


class RingVcoAnalyticalEvaluator(VcoEvaluator):
    """Calibrated first-order performance model of the current-starved ring VCO.

    Parameters
    ----------
    technology:
        Nominal process description.
    vctrl_min / vctrl_max:
        Control-voltage window over which gain and tuning range are defined
        (matches the SPICE test bench defaults).
    frequency_scale / current_scale / jitter_scale:
        Calibration factors multiplying the first-order expressions.  The
        defaults (0.42 / 0.52 / 3.0) were fitted against
        :class:`RingVcoSpiceEvaluator` on the default design point so both
        engines agree on magnitude; trends with respect to the designable
        parameters agree by construction because both use the same device
        equations.  Use :meth:`calibrate` to re-fit for a different
        technology.
    """

    #: Topology hooks consumed by :mod:`repro.circuits.topology`: the seam
    #: resolves an evaluator back to its registered topology through
    #: ``topology_name``, and the vectorised kernel reads the design space
    #: from ``design_cls`` instead of hardcoding the ring parameters.
    #: Class attributes keep pickled instances byte-identical (they never
    #: enter ``__dict__``).
    topology_name = "ring-vco"
    design_cls = VcoDesign
    _WIDTH_PARAMS = ("nmos_width", "pmos_width", "tail_nmos_width", "tail_pmos_width")
    _LENGTH_PARAMS = ("nmos_length", "pmos_length", "tail_length")

    def __init__(
        self,
        technology: Technology = TECH_012UM,
        vctrl_min: float = 0.5,
        vctrl_max: float | None = None,
        n_stages: int = N_STAGES,
        frequency_scale: float = 0.42,
        current_scale: float = 0.52,
        jitter_scale: float = 3.0,
    ) -> None:
        self.technology = technology
        self.vctrl_min = vctrl_min
        self.vctrl_max = technology.vdd if vctrl_max is None else vctrl_max
        self.n_stages = n_stages
        self.frequency_scale = frequency_scale
        self.current_scale = current_scale
        self.jitter_scale = jitter_scale

    # -- calibration -----------------------------------------------------------------

    @classmethod
    def calibrate(
        cls,
        spice_evaluator: "RingVcoSpiceEvaluator",
        designs: Sequence[VcoDesign],
        technology: Optional[Technology] = None,
        **kwargs,
    ) -> "RingVcoAnalyticalEvaluator":
        """Fit the calibration factors against the transistor-level evaluator.

        The scale factors are the geometric-mean ratios of the SPICE
        measurements to the uncalibrated analytical predictions over the
        given design sample.  This is how the default factors were obtained.
        """
        if not designs:
            raise ValueError("calibration needs at least one design point")
        tech = technology or spice_evaluator.technology
        raw = cls(
            technology=tech,
            vctrl_min=spice_evaluator.vctrl_min,
            vctrl_max=spice_evaluator.vctrl_max,
            n_stages=spice_evaluator.n_stages,
            frequency_scale=1.0,
            current_scale=1.0,
            jitter_scale=1.0,
        )
        freq_ratios, current_ratios, jitter_ratios = [], [], []
        for design in designs:
            reference = spice_evaluator.evaluate(design)
            prediction = raw.evaluate(design)
            if reference.fmax > 0.0 and prediction.fmax > 0.0:
                freq_ratios.append(reference.fmax / prediction.fmax)
            if reference.current > 0.0 and prediction.current > 0.0:
                current_ratios.append(reference.current / prediction.current)
            if (
                math.isfinite(reference.jitter)
                and reference.jitter > 0.0
                and prediction.jitter > 0.0
            ):
                jitter_ratios.append(reference.jitter / prediction.jitter)

        def geometric_mean(ratios: Sequence[float], fallback: float) -> float:
            if not ratios:
                return fallback
            return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

        return cls(
            technology=tech,
            vctrl_min=spice_evaluator.vctrl_min,
            vctrl_max=spice_evaluator.vctrl_max,
            n_stages=spice_evaluator.n_stages,
            frequency_scale=geometric_mean(freq_ratios, 0.42),
            current_scale=geometric_mean(current_ratios, 0.52),
            jitter_scale=geometric_mean(jitter_ratios, 3.0),
            **kwargs,
        )

    # -- public API -----------------------------------------------------------------------

    def _finalise_performance(self, performance: VcoPerformance) -> VcoPerformance:
        """Topology-specific post-processing of one evaluated design point.

        The ring is the identity.  Subclasses (e.g. the pseudo-differential
        topology) apply their per-topology corrections here.
        """
        return performance

    def evaluate(
        self,
        design: VcoDesign,
        technology: Optional[Technology] = None,
        mismatch: Optional[MismatchSample] = None,
    ) -> VcoPerformance:
        """Evaluate the five performances of one design point (a batch of one)."""
        samples = SampleBatch.from_sample(technology or self.technology, mismatch)
        return self.evaluate_batch([design], samples=samples)[0]

    def evaluate_batch(
        self,
        designs: Sequence[VcoDesign],
        technology: Optional[Technology] = None,
        samples: Optional[SampleBatch] = None,
    ) -> List[VcoPerformance]:
        """Array-in/array-out evaluation of a whole batch.

        Every first-order expression runs in numpy over the batch axis,
        and every element's arithmetic is independent of the others, so a
        design's result does not depend on the batch it is evaluated in.
        Supports the two batch shapes of the flow: N designs under one
        technology (optimisation) and one design under N samples (Monte
        Carlo).  The sample batch is read column by column -- shifted card
        parameters and per-device mismatch deltas -- without building
        per-sample objects.
        """
        samples = _batch_or_nominal(samples, technology or self.technology)
        designs_b = _broadcast_designs(designs, len(samples))
        n = len(designs_b)
        EVALUATIONS.inc(n, backend="analytical")
        reference = samples.technology
        nmos = _sample_card(samples, "nmos")
        pmos = _sample_card(samples, "pmos")
        params = self._design_arrays(designs_b, reference)
        load = self._batch_stage_capacitance(params, nmos, pmos, reference)
        currents_min, currents_max = self._batch_stage_currents(
            params, {"nmos": nmos, "pmos": pmos}, reference, samples
        )

        def frequency(currents: List[np.ndarray]) -> np.ndarray:
            delays = [load * (reference.vdd / 2.0) / current for current in currents]
            period = 2.0 * sum(delays)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(period > 0.0, self.frequency_scale / period, 0.0)

        fmin = frequency(currents_min)
        fmax = frequency(currents_max)
        span = self.vctrl_max - self.vctrl_min
        kvco = np.maximum(fmax - fmin, 0.0) / span
        # Supply current at the fmax bias point: dynamic charging of every
        # stage load, plus crowbar current (roughly one pull-up and one
        # pull-down path conducting together during each transition) and
        # the vctrl-to-vbp mirror branch.
        mean_current = sum(currents_max) / len(currents_max)
        c_total = sum([load] * self.n_stages)
        dynamic = c_total * reference.vdd * fmax
        crowbar = 0.8 * mean_current
        bias_branch = mean_current
        current = self.current_scale * (dynamic + crowbar + bias_branch)
        # Jitter: thermal first-crossing noise per edge accumulated over 2N
        # edges, plus stage-to-stage mismatch turned into deterministic
        # period error through the spread of the stage delays (one sigma).
        kT = _BOLTZMANN * reference.temperature
        sigma_edges = []
        delays = []
        for stage_current in currents_max:
            sigma_v = np.sqrt(2.0 * kT / load)
            slope = stage_current / load
            sigma_edges.append(sigma_v / slope)
            delays.append(load * (reference.vdd / 2.0) / stage_current)
        thermal = np.sqrt(2.0 * sum(s * s for s in sigma_edges))
        mean_delay = sum(delays) / len(delays)
        if len(delays) > 1:
            variance = sum((d - mean_delay) ** 2 for d in delays) / (len(delays) - 1)
            deterministic = np.sqrt(variance)
        else:
            deterministic = 0.0
        jitter = self.jitter_scale * np.sqrt(thermal**2 + deterministic**2)

        columns = [
            np.broadcast_to(np.asarray(column, dtype=float), (n,))
            for column in (kvco, jitter, current, fmin, fmax)
        ]
        return [
            self._finalise_performance(
                VcoPerformance(
                    kvco=float(columns[0][i]),
                    jitter=float(columns[1][i]),
                    current=float(columns[2][i]),
                    fmin=float(columns[3][i]),
                    fmax=float(columns[4][i]),
                )
            )
            for i in range(n)
        ]

    def _design_arrays(self, designs: Sequence[VcoDesign], technology: Technology) -> Dict:
        """Clamped design parameters as batch arrays (scalars when shared)."""
        names = self.design_cls.parameter_names()
        if all(design is designs[0] for design in designs):
            values = {name: getattr(designs[0], name) for name in names}
        else:
            values = {
                name: np.array([getattr(design, name) for design in designs])
                for name in names
            }
        for name in self._WIDTH_PARAMS:
            values[name] = np.clip(values[name], technology.min_width, technology.max_width)
        for name in self._LENGTH_PARAMS:
            values[name] = np.clip(values[name], technology.min_length, technology.max_length)
        return values

    def _batch_stage_capacitance(self, params, nmos, pmos, technology: Technology):
        """Load capacitance of one stage: gate, overlap and junction terms."""
        cox_n = _EPS_OX / nmos["tox"]
        cox_p = _EPS_OX / pmos["tox"]
        gate = cox_n * params["nmos_width"] * params["nmos_length"]
        gate = gate + cox_p * params["pmos_width"] * params["pmos_length"]
        overlap = nmos["cgso"] * params["nmos_width"] + pmos["cgso"] * params["pmos_width"]
        junction = nmos["cj"] * params["nmos_width"] * nmos["drain_extension"]
        junction = junction + pmos["cj"] * params["pmos_width"] * pmos["drain_extension"]
        junction = junction + nmos["cj"] * params["tail_nmos_width"] * nmos["drain_extension"] * 0.5
        junction = junction + pmos["cj"] * params["tail_pmos_width"] * pmos["drain_extension"] * 0.5
        return gate + overlap + junction + technology.stage_load_capacitance

    def _batch_stage_currents(
        self, params, cards: Dict[str, Dict], technology: Technology, samples: SampleBatch
    ) -> Tuple[List, List]:
        """Starving current of every stage at ``vctrl_min`` and ``vctrl_max``,
        floored at 1 nA.

        Every (vctrl, stage, role) row of one polarity is evaluated by one
        stacked :meth:`_DeviceArrays.channel_current` call.  The rows are
        the leading axes ``(vctrl, stage, role)`` and the batch is the last
        axis; each input varies only along the axes it depends on (the
        biases along vctrl and role, the geometry along role, the mismatch
        deltas along stage and role), and numpy broadcasting evaluates
        every row.  A row without mismatch adds ``0.0`` to ``vth0`` and
        multiplies ``u0`` by ``1.0``, both exact, so every element keeps
        the operation sequence of a per-device call.  Without mismatch the
        stages are identical and only stage 0 is evaluated.

        When no input varies over the batch, each stage current is a
        numpy scalar, as per-device calls on scalars made it: the jitter's
        ``** 2`` rounds differently on scalars (``pow``) than on arrays (a
        multiply).
        """
        vdd = technology.vdd
        half = vdd / 2.0
        stages = range(self.n_stages) if samples.device_names else range(1)
        scalar = not any(
            isinstance(value, np.ndarray)
            for value in (*params.values(), *cards["nmos"].values(), *cards["pmos"].values())
        )
        ids = {}
        for polarity, roles in _STAGE_ROLES.items():
            card = cards[polarity]
            sign = card["polarity"]
            biases = np.array(
                [
                    [_forward_bias(sign, *bias(vctrl, vdd, half)) for *_, bias in roles]
                    for vctrl in (self.vctrl_min, self.vctrl_max)
                ]
            )
            if np.array_equal(biases[0], biases[1]):
                biases = biases[:1]  # no role of this polarity depends on vctrl
            # (vctrl, stage, role, batch) axes, biases constant over the batch.
            vgs, vds, vbs = (biases[:, None, :, column, None] for column in range(3))
            deltas = np.zeros((2, 1, len(stages), len(roles), len(samples)))
            for s, stage in enumerate(stages):
                for r, (prefix, *_) in enumerate(roles):
                    columns = samples.mismatch_columns(f"{prefix}{stage}")
                    if columns is not None:
                        deltas[:, 0, s, r] = columns
                        scalar = False
            geometry = [
                np.array([params[role[index]] for role in roles]).reshape(1, 1, len(roles), -1)
                for index in (1, 2)
            ]
            device = _DeviceArrays(
                polarity=sign,
                width=geometry[0],
                length=geometry[1],
                vth0=card["vth0"] + deltas[0],
                u0=card["u0"] * (1.0 + deltas[1]),
                **{attr: card[attr] for attr in _CHANNEL_ATTRIBUTES},
            )
            ids[polarity] = sign * device.channel_current(vgs, vds, vbs)
        i_tail_n, i_inv_n = ids["nmos"][:, :, 0], ids["nmos"][:, :, 1]
        i_tail_p, i_inv_p = np.abs(ids["pmos"][:, :, 0]), np.abs(ids["pmos"][:, :, 1])
        pull_down = np.minimum(i_tail_n, i_inv_n)
        pull_up = np.minimum(np.maximum(i_tail_p, 0.3 * i_tail_n), i_inv_p)
        current = np.maximum(0.5 * (pull_down + pull_up), 1e-9)
        if scalar:
            current = current[..., 0]
        repeat = self.n_stages // len(stages)
        return list(current[0]) * repeat, list(current[-1]) * repeat


# The worker-side evaluator is installed once per pool through the executor
# initializer, so each task ships only one (design, technology, mismatch)
# triple instead of the whole evaluator.
_SPICE_WORKER_EVALUATOR: Optional["RingVcoSpiceEvaluator"] = None


def _initialise_spice_worker(evaluator: "RingVcoSpiceEvaluator") -> None:
    global _SPICE_WORKER_EVALUATOR
    _SPICE_WORKER_EVALUATOR = evaluator


def _evaluate_spice_chunk_in_worker(
    payload: Tuple[
        Sequence[Tuple[VcoDesign, Technology, Optional[MismatchSample]]],
        Optional[dict],
        int,
    ],
) -> Tuple[List[VcoPerformance], List[dict]]:
    """Evaluate one chunk of tasks inside a pool worker.

    The child process cannot see the parent's trace, so a traced run
    records its chunk span into a throwaway trace (seeded from the shipped
    :func:`~repro.obs.trace.trace_context`) and returns the span records
    with the results for the parent to merge; an untraced run ships
    ``None`` and gets no spans back.  Spans never touch the numbers.
    """
    tasks, context, chunk_index = payload
    evaluator = _SPICE_WORKER_EVALUATOR
    if evaluator is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process was not initialised with an evaluator")
    with obs_trace.collect_spans(context) as spans:
        with obs_trace.span("spice.lane_chunk", chunk=chunk_index, n_tasks=len(tasks)):
            results = evaluator._evaluate_chunk(tasks)
    return results, spans


class RingVcoSpiceEvaluator(VcoEvaluator):
    """Transistor-level evaluator running the MNA test bench.

    Parameters
    ----------
    n_workers:
        Size of the process pool used by :meth:`evaluate_batch`; ``None``
        (the default) uses the CPU count capped at 8 (:meth:`pool_size`),
        and ``HierarchicalFlow(n_workers=...)`` fills it in when unset.
    lane_width:
        Number of (design, technology, mismatch) tasks simulated together
        as one lane-parallel transient (each task contributes two
        transient lanes, one per control voltage); the chunks of
        ``lane_width`` tasks fan out over the process pool.
    """

    #: Topology hooks (see :class:`RingVcoAnalyticalEvaluator`): subclasses
    #: swap the test-bench class and design space to reuse the pooled batch
    #: machinery for a different circuit.
    topology_name = "ring-vco"
    design_cls = VcoDesign
    testbench_cls = VcoTestbench

    def __init__(
        self,
        technology: Technology = TECH_012UM,
        vctrl_min: float = 0.5,
        vctrl_max: float | None = None,
        n_stages: int = N_STAGES,
        dt: float = 4e-12,
        sim_cycles: float = 8.0,
        n_workers: Optional[int] = None,
        lane_width: int = 8,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if lane_width < 1:
            raise ValueError("lane_width must be at least 1")
        self.technology = technology
        self.vctrl_min = vctrl_min
        self.vctrl_max = technology.vdd if vctrl_max is None else vctrl_max
        self.n_stages = n_stages
        self.dt = dt
        self.sim_cycles = sim_cycles
        self.n_workers = n_workers
        self.lane_width = lane_width

    def _testbench(self, technology: Technology) -> VcoTestbench:
        return self.testbench_cls(
            technology=technology,
            vctrl_min=self.vctrl_min,
            vctrl_max=self.vctrl_max,
            n_stages=self.n_stages,
            dt=self.dt,
            sim_cycles=self.sim_cycles,
        )

    def evaluate(
        self,
        design: VcoDesign,
        technology: Optional[Technology] = None,
        mismatch: Optional[MismatchSample] = None,
    ) -> VcoPerformance:
        """Evaluate the five performances with transistor-level transients.

        A one-task chunk of :meth:`evaluate_batch`, so it equals the
        matching batch entry bit for bit.
        """
        return self._evaluate_chunk([(design, technology, mismatch)])[0]

    def _prepare(
        self,
        design: VcoDesign,
        technology: Optional[Technology],
        mismatch: Optional[MismatchSample],
    ) -> Tuple[VcoDesign, Technology, Optional[Dict]]:
        """Clamped design, technology and device overrides of one task."""
        tech = technology or self.technology
        overrides = None
        if mismatch is not None and mismatch.devices():
            overrides = {name: mismatch.for_device(name) for name in mismatch.devices()}
        return design.clamped(tech), tech, overrides

    def evaluate_batch(
        self,
        designs: Sequence[VcoDesign],
        technology: Optional[Technology] = None,
        samples: Optional[SampleBatch] = None,
    ) -> List[VcoPerformance]:
        """Fan a batch of transistor-level evaluations out over a process pool.

        Transients are costly, so unlike the analytical evaluator the
        batch here parallelises across processes.  The (design,
        technology, mismatch) triples are cut into chunks of
        ``lane_width`` tasks, one lane-parallel transient each.  The pool
        is initialised once with the (picklable) evaluator, the chunks are
        mapped in order, and every worker runs the same chunk evaluation
        as this process would, so the results equal the in-process loop.
        One worker or one chunk runs in process, without a pool.
        """
        designs_b, techs, mms = _broadcast_batch(
            designs, _batch_or_nominal(samples, technology or self.technology)
        )
        tasks = list(zip(designs_b, techs, mms))
        n_tasks = len(tasks)
        EVALUATIONS.inc(n_tasks, backend="spice-lanes")
        width = self.lane_width
        chunks = [tasks[start : start + width] for start in range(0, n_tasks, width)]
        n_workers = min(self.pool_size(), len(chunks))
        if n_workers < 2 or len(chunks) < 2:
            results: List[VcoPerformance] = []
            for chunk in chunks:
                results.extend(self._evaluate_chunk(chunk))
            return results
        with obs_trace.span(
            "spice.evaluate_batch",
            n_tasks=n_tasks,
            n_workers=n_workers,
            n_chunks=len(chunks),
        ):
            context = obs_trace.trace_context()
            results = []
            with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_initialise_spice_worker,
                initargs=(self,),
            ) as executor:
                for chunk_results, spans in executor.map(
                    _evaluate_spice_chunk_in_worker,
                    [(chunk, context, index) for index, chunk in enumerate(chunks)],
                ):
                    results.extend(chunk_results)
                    obs_trace.merge_spans(spans)
            return results

    def _evaluate_chunk(
        self, tasks: Sequence[Tuple[VcoDesign, Technology, Optional[MismatchSample]]]
    ) -> List[VcoPerformance]:
        """One chunk of tasks through one :meth:`VcoTestbench.run_batch` call."""
        prepared = [self._prepare(*task) for task in tasks]
        return self._testbench(self.technology).run_batch(prepared)

    def pool_size(self) -> int:
        """Worker count of the batch pool (configured, else the CPU count capped at 8)."""
        if self.n_workers is not None:
            return self.n_workers
        # CPU count capped at 8: transients are CPU-bound, so more workers
        # than cores only add scheduling overhead.
        return min(os.cpu_count() or 2, 8)
