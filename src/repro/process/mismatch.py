"""Local (intra-die) mismatch model.

Device-to-device mismatch follows the Pelgrom area law: the standard
deviation of a parameter difference between two identically drawn devices
is ``A / sqrt(W L)``, with ``A`` the technology mismatch coefficient.  The
paper's Monte Carlo runs use the foundry "variation and mismatch models"
(section 4.3); this module supplies the mismatch half of that pair.

A :class:`MismatchSample` maps device names to per-device parameter deltas
so the circuit evaluators can perturb each transistor individually, which
is what makes jitter and gain spread with device area in a physically
plausible way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.process.variation import truncate

__all__ = ["MismatchModel", "MismatchSample", "DeviceGeometry"]


@dataclass(frozen=True)
class DeviceGeometry:
    """Width/length (in metres) of one matched device."""

    name: str
    width: float
    length: float
    polarity: str = "nmos"

    @property
    def area(self) -> float:
        """Gate area ``W * L`` in m^2."""
        return self.width * self.length


@dataclass
class MismatchSample:
    """Per-device additive parameter deltas drawn for one Monte Carlo sample."""

    deltas: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def for_device(self, name: str) -> Dict[str, float]:
        """Deltas of one device (empty dict when the device is unknown)."""
        return self.deltas.get(name, {})

    def devices(self) -> Sequence[str]:
        """Names of all devices carrying mismatch deltas."""
        return list(self.deltas)

    @classmethod
    def from_arrays(
        cls, names: Sequence[str], vth0: np.ndarray, u0_rel: np.ndarray
    ) -> "MismatchSample":
        """One sample from per-device delta rows, in the device order of ``names``."""
        return cls(
            {name: {"vth0": vth0[j], "u0_rel": u0_rel[j]} for j, name in enumerate(names)}
        )


@dataclass(frozen=True)
class MismatchModel:
    """Pelgrom-style mismatch coefficients.

    ``a_vth`` is in V*m (so that ``a_vth / sqrt(WL)`` is in volts) and
    ``a_beta`` is dimensionless*m (relative current-factor mismatch).
    Typical 0.12 um values are ``a_vth = 3.5 mV.um`` and
    ``a_beta = 1 %.um``.
    """

    a_vth: float = 3.5e-3 * 1e-6
    a_beta: float = 0.01 * 1e-6
    truncation: float = 4.0

    def sigma_vth(self, width: float, length: float) -> float:
        """Threshold-voltage mismatch sigma for a device of the given geometry."""
        area = max(width * length, 1e-18)
        return self.a_vth / np.sqrt(area)

    def sigma_beta(self, width: float, length: float) -> float:
        """Relative current-factor mismatch sigma for the given geometry."""
        area = max(width * length, 1e-18)
        return self.a_beta / np.sqrt(area)

    def draws_per_sample(self, devices: Sequence[DeviceGeometry]) -> int:
        """Number of standard-normal draws one sample consumes."""
        return 2 * len(devices)

    def sample(
        self,
        devices: Sequence[DeviceGeometry],
        rng: np.random.Generator,
    ) -> MismatchSample:
        """Draw one mismatch sample for a set of devices.

        Each device receives an independent threshold-voltage delta
        (``vth0`` key) and a relative mobility delta (``u0_rel`` key, to be
        multiplied by the nominal mobility by the consumer).
        """
        draws = rng.standard_normal((1, self.draws_per_sample(devices)))
        vth0, u0_rel = self.sample_from_draws(devices, draws)
        return MismatchSample.from_arrays([device.name for device in devices], vth0[0], u0_rel[0])

    def sample_from_draws(
        self, devices: Sequence[DeviceGeometry], draws: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-device delta matrices from an ``(n_samples, 2 n_devices)`` draw matrix.

        Each row holds ``(z_vth, z_beta)`` pairs in device order -- the
        consumption order of :meth:`sample` -- so the Monte Carlo engine can
        draw every sample's normals in one bulk call without changing the
        seeded value stream.  Returns the ``vth0`` and ``u0_rel`` deltas,
        each ``(n_samples, n_devices)``; a ``truncation <= 0`` leaves the
        draws untruncated.
        """
        draws = np.asarray(draws, dtype=float)
        expected = self.draws_per_sample(devices)
        if draws.ndim != 2 or draws.shape[1] != expected:
            raise ValueError(
                f"expected an (n_samples, {expected}) draw matrix, got shape {draws.shape}"
            )
        z = truncate(draws, self.truncation)
        sigma_vth = np.array([self.sigma_vth(d.width, d.length) for d in devices], dtype=float)
        sigma_beta = np.array([self.sigma_beta(d.width, d.length) for d in devices], dtype=float)
        return z[:, 0::2] * sigma_vth, z[:, 1::2] * sigma_beta

    def sigma_summary(self, devices: Sequence[DeviceGeometry]) -> Dict[str, Dict[str, float]]:
        """Per-device 1-sigma values for reporting."""
        return {
            device.name: {
                "vth0": self.sigma_vth(device.width, device.length),
                "u0_rel": self.sigma_beta(device.width, device.length),
            }
            for device in devices
        }
