"""Relativistic electron-beam kinematics and dispersion.

PHYSICS SCOPE: a monoenergetic electron beam of kinetic energy T is modulated
by a laser of photon energy hbar*omega0 into a ladder of energy sidebands
T + j*hbar*omega0.  This module supplies the exact relativistic wavenumber of
each ladder level and the quadratic-dispersion (Talbot) revival distance

    z_T = 4*pi * m * v^3 * gamma^3 / (hbar * omega0^2),

the distance over which the quadratic part of the level phases winds through
2*pi.  UNITS: eV / fs / nm throughout (see `constants`).
"""
from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C_NM_FS, ELECTRON_REST_EV, HBAR_EV_FS, HBARC_EV_NM, TWO_PI

# Recoil parameter above which the sideband-ladder picture degrades.
_RECOIL_WARN = 1.0e-3
_RECOIL_ERROR = 1.0e-2


@dataclass(frozen=True)
class BeamParameters:
    """Electron beam plus modulation laser, the shared context for everything.

    Attributes
    ----------
    kinetic_energy:
        Electron kinetic energy in eV (e.g. 200e3 for a 200 keV microscope).
    photon_energy:
        Modulation laser photon energy hbar*omega0 in eV.
    """

    kinetic_energy: float
    photon_energy: float

    def __post_init__(self) -> None:
        if self.kinetic_energy <= 0.0:
            raise ValueError("kinetic_energy must be positive (eV)")
        if self.photon_energy <= 0.0:
            raise ValueError("photon_energy must be positive (eV)")
        recoil = self.photon_energy / self.kinetic_energy
        if recoil > _RECOIL_ERROR:
            raise ValueError(
                f"photon/kinetic energy ratio {recoil:.3e} is too large for the "
                "non-recoil sideband-ladder treatment"
            )
        if recoil > _RECOIL_WARN:
            # name the first caller outside this module and the dataclass-generated __init__
            frame, level = sys._getframe(), 1
            while frame.f_back is not None and frame.f_code.co_filename in (__file__, "<string>"):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"photon/kinetic energy ratio {recoil:.3e} > {_RECOIL_WARN:g}; "
                "non-recoil approximation is marginal",
                stacklevel=level,
            )

    @classmethod
    def from_wavelength(cls, kinetic_energy: float, wavelength_nm: float) -> "BeamParameters":
        """Build from a laser wavelength in nm instead of a photon energy."""
        if wavelength_nm <= 0.0:
            raise ValueError("wavelength_nm must be positive")
        photon_energy = TWO_PI * HBARC_EV_NM / wavelength_nm
        return cls(kinetic_energy, photon_energy)

    @property
    def gamma(self) -> float:
        """gamma = 1 + T / (m c^2)."""
        return 1.0 + self.kinetic_energy / ELECTRON_REST_EV

    @property
    def beta_v(self) -> float:
        """v/c."""
        g = self.gamma
        return float(np.sqrt(1.0 - 1.0 / (g * g)))

    @property
    def velocity(self) -> float:
        """Electron velocity in nm/fs."""
        return self.beta_v * C_NM_FS

    @property
    def omega0(self) -> float:
        """Modulation angular frequency in rad/fs."""
        return self.photon_energy / HBAR_EV_FS

    @property
    def optical_period(self) -> float:
        """One modulation period 2*pi/omega0 in fs."""
        return TWO_PI / self.omega0

    @property
    def talbot_distance(self) -> float:
        """Quadratic-dispersion revival distance z_T in nm,
        4*pi*m*v^3*gamma^3/(hbar*omega0^2) = 4*pi*m c^2 beta^3 gamma^3 c/(hbar*omega0^2)."""
        w0 = self.omega0
        return float(
            4.0 * np.pi * ELECTRON_REST_EV * self.beta_v**3 * self.gamma**3 * C_NM_FS
            / (HBAR_EV_FS * w0 * w0)
        )


def wavenumber(beam: BeamParameters, level_index):
    """Exact relativistic wavenumber k_j of ladder level j, rad/nm.

    k_j = sqrt((m c^2 + T + j hbar omega0)^2 - (m c^2)^2) / (hbar c).
    Accepts a scalar or an integer array of level indices.  Raises ValueError
    for levels at or below the rest energy (no propagating solution).
    """
    j = np.asarray(level_index)
    total = ELECTRON_REST_EV + beam.kinetic_energy + j * beam.photon_energy
    if np.any(total <= ELECTRON_REST_EV):
        bad = int(np.min(j))
        raise ValueError(
            f"level index {bad} puts the electron at or below rest energy; "
            "no propagating wavenumber exists"
        )
    k = np.sqrt(total * total - ELECTRON_REST_EV**2) / HBARC_EV_NM
    if np.isscalar(level_index):
        return float(k)
    return k
