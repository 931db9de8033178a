"""MOSFET device model.

A compact level-1/level-3-style MOSFET good enough for ring-oscillator and
analog-cell simulation:

* square-law strong-inversion current with channel-length modulation,
* softplus-smoothed transition into an exponential subthreshold region
  (continuous first derivatives, which keeps Newton iteration happy),
* body effect through the usual ``gamma``/``phi`` expression,
* simple velocity-saturation degradation of the overdrive,
* Meyer-style gate capacitances plus overlap and junction capacitances,
  stamped as companion models during transient analysis.

The quantitative accuracy of a foundry BSim3v3 model is *not* claimed; what
matters for the reproduction is that performances vary smoothly and
monotonically with the designable W/L parameters and with the statistical
process parameters, which this model provides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.spice.exceptions import NetlistError
from repro.spice.netlist import Element

__all__ = ["MOSFETModel", "MOSFET", "MOSFETArrays", "NMOS_DEFAULT", "PMOS_DEFAULT"]

_BOLTZMANN = 1.380649e-23
_ELECTRON_CHARGE = 1.602176634e-19
_EPS_OX = 3.9 * 8.8541878128e-12


@dataclass(frozen=True)
class MOSFETModel:
    """Process ("model card") parameters of a MOSFET.

    All values are in SI units.  ``polarity`` is ``+1`` for NMOS and ``-1``
    for PMOS; threshold voltages are given as positive magnitudes for both
    polarities.
    """

    name: str = "nmos"
    polarity: int = 1
    vth0: float = 0.35
    #: Low-field mobility (m^2 / V s).
    u0: float = 0.030
    #: Gate-oxide thickness (m).
    tox: float = 2.8e-9
    #: Channel-length modulation (1/V).
    lambda_: float = 0.08
    #: Body-effect coefficient (V^0.5).
    gamma: float = 0.45
    #: Surface potential 2*phi_F (V).
    phi: float = 0.85
    #: Subthreshold slope factor.
    n_sub: float = 1.4
    #: Critical field for velocity saturation (V/m).
    e_crit: float = 4.0e6
    #: Lateral diffusion reducing the effective channel length (m).
    ld: float = 8.0e-9
    #: Gate-source/drain overlap capacitance per metre of width (F/m).
    cgso: float = 3.0e-10
    cgdo: float = 3.0e-10
    #: Junction capacitance per drain/source area (F/m^2) and drain extension (m).
    cj: float = 1.0e-3
    drain_extension: float = 0.24e-6
    #: Flicker-noise coefficient (dimensionless).  Read by no model; kept
    #: only because it enters every config hash (through the technology
    #: dict), so deleting it would move the golden hashes.
    kf: float = 1.0e-25
    #: Nominal temperature (K).
    temperature: float = 300.15

    @property
    def cox(self) -> float:
        """Gate-oxide capacitance per unit area (F/m^2)."""
        return _EPS_OX / self.tox

    @property
    def kp(self) -> float:
        """Process transconductance ``u0 * Cox`` (A/V^2)."""
        return self.u0 * self.cox

    @property
    def thermal_voltage(self) -> float:
        """``kT/q`` at the model temperature."""
        return _BOLTZMANN * self.temperature / _ELECTRON_CHARGE

    def with_variation(self, **overrides) -> "MOSFETModel":
        """Return a copy with some parameters replaced (used by Monte Carlo)."""
        return replace(self, **overrides)


#: Generic 0.12 um NMOS and PMOS model cards used throughout the project.
NMOS_DEFAULT = MOSFETModel(name="nmos012", polarity=1, vth0=0.33, u0=0.032, gamma=0.42)
PMOS_DEFAULT = MOSFETModel(
    name="pmos012", polarity=-1, vth0=0.36, u0=0.011, gamma=0.48, lambda_=0.10
)


class MOSFET(Element):
    """A four-terminal MOSFET instance (drain, gate, source, bulk)."""

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str,
        model: MOSFETModel,
        width: float,
        length: float,
        multiplier: int = 1,
    ) -> None:
        super().__init__(name, (drain, gate, source, bulk))
        if width <= 0.0 or length <= 0.0:
            raise NetlistError(f"MOSFET {name!r} needs positive width and length")
        if model.polarity not in (1, -1):
            raise NetlistError(f"MOSFET model {model.name!r} has invalid polarity")
        self.model = model
        self.width = float(width)
        self.length = float(length)
        self.multiplier = int(multiplier)
        if self.multiplier < 1:
            raise NetlistError(f"MOSFET {name!r} multiplier must be >= 1")

    # -- geometry -----------------------------------------------------------------

    @property
    def effective_length(self) -> float:
        """Channel length reduced by lateral diffusion on both sides."""
        return max(self.length - 2.0 * self.model.ld, 1.0e-9)

    @property
    def effective_width(self) -> float:
        """Electrical width including the multiplier."""
        return self.width * self.multiplier

    @property
    def beta(self) -> float:
        """Device transconductance factor ``kp * W / Leff``."""
        return self.model.kp * self.effective_width / self.effective_length

    # -- capacitances ---------------------------------------------------------------

    def gate_capacitances(self) -> Dict[Tuple[str, str], float]:
        """Constant (Meyer-style) capacitances between terminal pairs.

        Keys are (terminal_a, terminal_b) node-name tuples.  Using
        bias-independent values keeps the transient companion models linear
        while preserving the correct geometry scaling (C proportional to W L).
        """
        d, g, s, b = self.nodes
        model = self.model
        w = self.effective_width
        l_eff = self.effective_length
        c_channel = model.cox * w * l_eff
        caps = {
            (g, s): (2.0 / 3.0) * c_channel + model.cgso * w,
            (g, d): model.cgdo * w + (1.0 / 3.0) * c_channel * 0.25,
            (g, b): 0.1 * c_channel,
            (d, b): model.cj * w * model.drain_extension,
            (s, b): model.cj * w * model.drain_extension,
        }
        return caps

    # -- current equations -------------------------------------------------------------

    def _channel_current(self, vgs: float, vds: float, vbs: float) -> float:
        """Drain current for ``vds >= 0`` in the NMOS-normalised frame."""
        model = self.model
        # Body effect on the threshold voltage.
        phi_minus_vbs = max(model.phi - vbs, 1e-6)
        vth = model.vth0 + model.gamma * (math.sqrt(phi_minus_vbs) - math.sqrt(model.phi))
        vov = vgs - vth
        n_vt = model.n_sub * model.thermal_voltage
        # Softplus smoothing gives a continuous transition into subthreshold.
        ratio = vov / n_vt
        if ratio > 40.0:
            vov_eff = vov
        elif ratio < -40.0:
            vov_eff = n_vt * math.exp(ratio)
        else:
            vov_eff = n_vt * math.log1p(math.exp(ratio))
        # Velocity saturation reduces the usable overdrive for short channels.
        theta = 1.0 / (model.e_crit * self.effective_length)
        vov_eff = vov_eff / (1.0 + theta * vov_eff)
        vdsat = max(vov_eff, 1e-9)
        beta = self.beta
        clm = 1.0 + model.lambda_ * vds
        if vds < vdsat:
            ids = beta * (vov_eff * vds - 0.5 * vds * vds) * clm
        else:
            ids = 0.5 * beta * vov_eff * vov_eff * clm
        return max(ids, 0.0)

    def drain_current(self, vd: float, vg: float, vs: float, vb: float) -> float:
        """Current flowing into the drain terminal for arbitrary bias."""
        p = self.model.polarity
        # Normalise to an NMOS frame.
        nvd, nvg, nvs, nvb = p * vd, p * vg, p * vs, p * vb
        if nvd >= nvs:
            ids = self._channel_current(nvg - nvs, nvd - nvs, nvb - nvs)
            return p * ids
        # Source and drain swap roles when vds < 0.
        ids = self._channel_current(nvg - nvd, nvs - nvd, nvb - nvd)
        return -p * ids


@dataclass
class MOSFETArrays:
    """Per-lane, per-device MOSFET parameters for array-wise evaluation.

    Used by the lane stamp-plan engine (:mod:`repro.spice.plan`): one
    row of devices per lane, all lanes sharing the same topology, so that
    the whole ``(n_lanes, n_devices)`` block of drain currents and
    derivatives is evaluated with numpy ufuncs instead of per-device
    Python.  The expressions transcribe :meth:`MOSFET._channel_current` /
    :meth:`MOSFET.drain_current`; results are tolerance-equivalent (not
    bit-identical) to the scalar model because numpy's transcendentals may
    differ from libm by an ulp.
    """

    polarity: np.ndarray  # (n_devices,) -- +1 NMOS, -1 PMOS
    beta: np.ndarray  # all remaining fields have shape (n_lanes, n_devices)
    vth0: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    sqrt_phi: np.ndarray
    n_vt: np.ndarray
    theta: np.ndarray
    lambda_: np.ndarray

    @classmethod
    def from_devices(cls, devices_by_lane: Sequence[Sequence["MOSFET"]]) -> "MOSFETArrays":
        """Stack the devices of every lane into parameter matrices.

        ``devices_by_lane[l][m]`` must be the lane-``l`` instance of the
        same topological device ``m`` (identical name, nodes and polarity
        across lanes; parameter values may differ).
        """

        def stack(getter) -> np.ndarray:
            return np.array(
                [[getter(device) for device in lane] for lane in devices_by_lane], dtype=float
            )

        phi = stack(lambda dev: dev.model.phi)
        return cls(
            polarity=np.array([device.model.polarity for device in devices_by_lane[0]]),
            beta=stack(lambda dev: dev.beta),
            vth0=stack(lambda dev: dev.model.vth0),
            gamma=stack(lambda dev: dev.model.gamma),
            phi=phi,
            sqrt_phi=np.sqrt(phi),
            n_vt=stack(lambda dev: dev.model.n_sub * dev.model.thermal_voltage),
            theta=stack(lambda dev: 1.0 / (dev.model.e_crit * dev.effective_length)),
            lambda_=stack(lambda dev: dev.model.lambda_),
        )

    @cached_property
    def _stack(self) -> "MOSFETArrays":
        """The parameters broadcast to the five-point stack of :meth:`currents_and_derivatives`.

        A ufunc whose operands all have the output's shape and layout runs
        one flat loop, which is cheaper than broadcasting a smaller operand;
        the values, and so every result, are unchanged.  The copies ask for
        C order: a plain copy of a broadcast view keeps a layout that
        matches no operand, which costs more than the broadcast saves.
        """
        shape = (5,) + self.beta.shape
        return MOSFETArrays(
            **{
                item.name: np.array(
                    np.broadcast_to(getattr(self, item.name), shape), dtype=float, order="C"
                )
                for item in fields(self)
            }
        )

    def _channel_current(
        self, vgs: np.ndarray, vds: np.ndarray, vbs: np.ndarray
    ) -> np.ndarray:
        """Array transcription of :meth:`MOSFET._channel_current` (vds >= 0).

        Every operation is the scalar model's on the same operands, at most
        with the two swapped (which is exact); results overwrite arrays
        that are no longer needed.
        """
        vth = self.phi - vbs
        np.maximum(vth, 1e-6, out=vth)
        np.sqrt(vth, out=vth)
        vth -= self.sqrt_phi
        vth *= self.gamma
        vth += self.vth0
        vov = vgs - vth
        ratio = vov / self.n_vt
        # Clip before exponentiating so extreme lanes cannot overflow; the
        # two copies select the scalar model's three branches.
        exp_ratio = np.maximum(ratio, -745.0)
        np.minimum(exp_ratio, 40.0, out=exp_ratio)
        exp_ratio = np.exp(exp_ratio)
        vov_eff = np.log1p(exp_ratio)
        np.copyto(vov_eff, exp_ratio, where=ratio < -40.0)
        vov_eff *= self.n_vt
        np.copyto(vov_eff, vov, where=ratio > 40.0)
        # Velocity saturation reduces the usable overdrive for short channels.
        denominator = self.theta * vov_eff
        denominator += 1.0
        vov_eff /= denominator
        vdsat = np.maximum(vov_eff, 1e-9)
        clm = self.lambda_ * vds
        clm += 1.0
        triode = vov_eff * vds
        half_vds_squared = 0.5 * vds
        half_vds_squared *= vds
        triode -= half_vds_squared
        triode *= self.beta
        triode *= clm
        saturation = 0.5 * self.beta * vov_eff
        saturation *= vov_eff
        saturation *= clm
        np.copyto(saturation, triode, where=vds < vdsat)
        return np.maximum(saturation, 0.0, out=saturation)

    def drain_current(
        self, vd: np.ndarray, vg: np.ndarray, vs: np.ndarray, vb: np.ndarray
    ) -> np.ndarray:
        """Array transcription of :meth:`MOSFET.drain_current`."""
        p = self.polarity
        nvd, nvg, nvs, nvb = p * vd, p * vg, p * vs, p * vb
        forward = nvd >= nvs
        # Source and drain swap roles when vds < 0 (NMOS-normalised frame).
        vref = np.where(forward, nvs, nvd)
        ids = self._channel_current(nvg - vref, np.abs(nvd - nvs), nvb - vref)
        # The scalar model returns p * ids or -p * ids; a product with +-1 is
        # exact, so one multiply by the selected sign gives the same bits.
        ids *= np.where(forward, p, -p)
        return ids

    def currents_and_derivatives(self, terminals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Drain currents plus the four finite-difference derivatives.

        ``terminals`` stacks the ``vd``, ``vg``, ``vs`` and ``vb`` arrays
        (each of the parameters' ``(n_lanes, n_devices)`` shape) on a
        leading axis of size 4.  The derivatives are forward differences
        with ``delta = 1e-6``.  The base point and its four perturbations
        go through one :meth:`drain_current` call on a leading stack axis
        of size 5, with the parameters broadcast to that shape once; every
        operation is elementwise, so each slice equals its own separate
        call bit for bit.

        Returns ``(ids, derivatives)``: ``ids`` has the shape of one
        terminal array and ``derivatives`` stacks ``dI/dvd``, ``dI/dvg``,
        ``dI/dvs`` and ``dI/dvb`` on a leading axis of size 4.
        """
        delta = 1e-6
        # stacked[t, k] holds terminal t's voltages at stack point k: the
        # base point (k = 0), then terminal k - 1 raised by delta.  The
        # raised pairs (t, t + 1) are every sixth of the 20 (t, k) pairs.
        stacked = np.repeat(terminals[:, None], 5, axis=1)
        raised = stacked.reshape((20,) + terminals.shape[1:])[1::6]
        raised += delta
        currents = self._stack.drain_current(*stacked)
        ids, derivatives = currents[0], currents[1:]
        derivatives -= ids
        derivatives /= delta
        return ids, derivatives
