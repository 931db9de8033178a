"""Generic CMOS technology descriptions (0.12 um and 65 nm cards).

The paper sizes its VCO in "a standard 0.12 um process" with foundry
BSim3v3 models.  :class:`Technology` bundles everything the rest of the
project needs to know about the process:

* nominal supply voltage and temperature,
* the NMOS and PMOS model cards (:class:`~repro.spice.mosfet.MOSFETModel`),
* the legal W/L design-rule window used to constrain the optimiser
  (0.12 um - 1 um lengths, 10 um - 100 um widths in the paper), and
* a factory that applies global-variation / mismatch deltas to the model
  cards, which is how Monte Carlo samples reach the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.spice.mosfet import MOSFETModel

__all__ = ["Technology", "TECH_012UM", "TECH_065NM", "TECHNOLOGIES", "technology"]


@dataclass(frozen=True)
class Technology:
    """A CMOS process node as seen by the design flow."""

    name: str
    vdd: float
    temperature: float
    nmos: MOSFETModel
    pmos: MOSFETModel
    #: Design-rule window for transistor lengths (m).
    min_length: float = 0.12e-6
    max_length: float = 1.0e-6
    #: Design-rule window for transistor widths (m).
    min_width: float = 10.0e-6
    max_width: float = 100.0e-6
    #: Nominal wiring/load capacitance per VCO stage output (F); stands in
    #: for layout parasitics that the paper's extracted netlists include.
    stage_load_capacitance: float = 12.0e-15

    def model(self, polarity: str) -> MOSFETModel:
        """Return the NMOS (``"n"``) or PMOS (``"p"``) model card."""
        key = polarity.lower()
        if key in ("n", "nmos"):
            return self.nmos
        if key in ("p", "pmos"):
            return self.pmos
        raise ValueError(f"unknown polarity {polarity!r}; expected 'nmos' or 'pmos'")

    def with_deltas(
        self,
        nmos_deltas: Mapping[str, float] | None = None,
        pmos_deltas: Mapping[str, float] | None = None,
    ) -> "Technology":
        """Return a copy whose model cards are shifted by additive deltas.

        ``nmos_deltas`` / ``pmos_deltas`` map model-card attribute names
        (``vth0``, ``tox``, ``u0``, ...) to *additive* shifts.  Relative
        shifts are expressed by the caller before calling (the variation
        models produce additive deltas directly).
        """
        nmos = _shift_model(self.nmos, nmos_deltas or {})
        pmos = _shift_model(self.pmos, pmos_deltas or {})
        return Technology(
            name=self.name,
            vdd=self.vdd,
            temperature=self.temperature,
            nmos=nmos,
            pmos=pmos,
            min_length=self.min_length,
            max_length=self.max_length,
            min_width=self.min_width,
            max_width=self.max_width,
            stage_load_capacitance=self.stage_load_capacitance,
        )

    def clamp_length(self, length: float) -> float:
        """Clamp a channel length into the design-rule window."""
        return min(max(length, self.min_length), self.max_length)

    def clamp_width(self, width: float) -> float:
        """Clamp a transistor width into the design-rule window."""
        return min(max(width, self.min_width), self.max_width)


#: Physical floors: oxide thickness, mobility and phi must stay positive, so
#: a shift never takes them below 5 % of their nominal value.
_FLOORED_PARAMETERS = ("tox", "u0", "phi", "n_sub", "e_crit")


def shifted_parameter(model: MOSFETModel, attribute: str, delta):
    """``model.<attribute> + delta`` with the physical floor applied.

    ``delta`` is a scalar or an array of per-sample deltas.  The add and
    the floor are IEEE-exact elementwise, so the array form has the bits
    of one scalar call per element.
    """
    if not hasattr(model, attribute):
        raise AttributeError(f"MOSFET model has no parameter {attribute!r}")
    current = getattr(model, attribute)
    shifted = current + delta
    if attribute in _FLOORED_PARAMETERS:
        floor = 0.05 * current
        shifted = np.maximum(shifted, floor) if np.ndim(shifted) else max(shifted, floor)
    return shifted


def _shift_model(model: MOSFETModel, deltas: Mapping[str, float]) -> MOSFETModel:
    if not deltas:
        return model
    overrides: Dict[str, float] = {
        attribute: shifted_parameter(model, attribute, delta)
        for attribute, delta in deltas.items()
    }
    return model.with_variation(**overrides)


#: The default technology used by every example, test and benchmark.
TECH_012UM = Technology(
    name="generic012",
    vdd=1.2,
    temperature=300.15,
    nmos=MOSFETModel(name="nmos012", polarity=1, vth0=0.33, u0=0.032, gamma=0.42, tox=2.8e-9),
    pmos=MOSFETModel(
        name="pmos012", polarity=-1, vth0=0.36, u0=0.011, gamma=0.48, lambda_=0.10, tox=2.8e-9
    ),
)

#: A generic 65 nm-ish node: thinner oxide (higher Cox), lower threshold
#: voltages, slightly higher mobility and a tighter design-rule window than
#: the 0.12 um card.  Scaling follows the usual constant-field trends (the
#: supply stays at 1.2 V, as it did for real 65 nm LP processes); the
#: per-stage load drops with the shorter wires of a denser layout.
TECH_065NM = Technology(
    name="generic065",
    vdd=1.2,
    temperature=300.15,
    nmos=MOSFETModel(
        name="nmos065",
        polarity=1,
        vth0=0.30,
        u0=0.038,
        gamma=0.36,
        tox=1.9e-9,
        lambda_=0.12,
        ld=5.0e-9,
        drain_extension=0.13e-6,
    ),
    pmos=MOSFETModel(
        name="pmos065",
        polarity=-1,
        vth0=0.32,
        u0=0.014,
        gamma=0.42,
        tox=1.9e-9,
        lambda_=0.15,
        ld=5.0e-9,
        drain_extension=0.13e-6,
    ),
    min_length=0.06e-6,
    max_length=0.6e-6,
    min_width=8.0e-6,
    max_width=80.0e-6,
    stage_load_capacitance=9.0e-15,
)

#: Named registry of process technologies.  Scenario configurations refer
#: to a technology by key so they stay plain, hashable value objects.
TECHNOLOGIES: Dict[str, Technology] = {
    TECH_012UM.name: TECH_012UM,
    TECH_065NM.name: TECH_065NM,
}


def technology(key: str) -> Technology:
    """Look up a registered technology by name.

    Parameters
    ----------
    key:
        Registry key (``"generic012"``, ``"generic065"``).

    Returns
    -------
    Technology
        The registered process description.

    Raises
    ------
    KeyError
        If no technology is registered under ``key``.
    """
    try:
        return TECHNOLOGIES[key]
    except KeyError:
        known = ", ".join(sorted(TECHNOLOGIES))
        raise KeyError(f"unknown technology {key!r}; registered technologies: {known}") from None
