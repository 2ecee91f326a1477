"""Spectral coupling amplitudes g(omega) between electron and photon modes.

Each model maps an optical angular frequency (rad/fs, omega > 0) to the
complex amplitude with which a passing electron drives that photon mode; the
electron-energy-loss probability of the coupler is integral |g|^2 d omega.
The phase-matched waveguide model implements a traveling-wave coupler of
length L: the accumulated phase mismatch between the electron (velocity v_e)
and the guided mode (group velocity v_g, group-velocity dispersion D2 around
the matched frequency omega_m) gives

    g(omega) = g0 * exp(i dk L / 2) * sinc(dk L / 2),
    dk = (1/v_e - 1/v_g) * delta - (D2/2) * delta^2,   delta = omega - omega_m,

so longer couplers select a narrower spectral slice (bandwidth ~ 1/L).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Grid points per block of `WaveguideCoupling.eels_probability` (128 kB a float array)
_EELS_BLOCK = 1 << 14


def _require_finite_g0(g0) -> None:
    if not cmath.isfinite(complex(g0)):
        raise ValueError("g0 must be finite")


@dataclass(frozen=True)
class FlatCoupling:
    """Constant g0 inside [band_min, band_max] rad/fs, zero outside."""

    g0: complex
    band_min: float
    band_max: float

    def __post_init__(self) -> None:
        _require_finite_g0(self.g0)
        if not (0.0 < self.band_min < self.band_max):  # a NaN trips it
            raise ValueError("need 0 < band_min < band_max (rad/fs)")
        if not self.band_max < math.inf:
            raise ValueError("band_max must be finite (rad/fs)")

    def amplitude(self, omega):
        w = np.asarray(omega, dtype=float)
        out = np.where((w >= self.band_min) & (w <= self.band_max), complex(self.g0), 0.0j)
        return out if w.shape else complex(out)

    def eels_probability(self) -> float:
        return abs(self.g0) ** 2 * (self.band_max - self.band_min)


@dataclass(frozen=True)
class GaussianBandCoupling:
    """g(omega) = g0 * exp(-(omega - center)^2 / (2 sigma^2))."""

    g0: complex
    center: float
    sigma: float

    def __post_init__(self) -> None:
        _require_finite_g0(self.g0)
        # `not (0 < x < inf)`: a NaN trips it
        if not 0.0 < self.center < math.inf:
            raise ValueError("center must be positive and finite (rad/fs)")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite (rad/fs)")

    def amplitude(self, omega):
        w = np.asarray(omega, dtype=float)
        out = complex(self.g0) * np.exp(-((w - self.center) ** 2) / (2.0 * self.sigma**2))
        return out if w.shape else complex(out)

    def eels_probability(self) -> float:
        # integral of |g0|^2 exp(-(w-c)^2/sigma^2) over all w
        return abs(self.g0) ** 2 * self.sigma * float(np.sqrt(np.pi))


class TabulatedCoupling:
    """Cubic-spline interpolation of a measured/simulated g(omega) table.

    Outside the tabulated range the amplitude is zero.
    """

    def __init__(self, omega_table: Sequence[float], g_table: Sequence[complex]):
        from scipy.interpolate import CubicSpline  # loads scipy.optimize; only used here

        w = np.asarray(omega_table, dtype=float)
        g = np.asarray(g_table, dtype=complex)
        if w.ndim != 1 or w.size < 4:
            raise ValueError("need at least 4 tabulated points")
        if np.any(np.diff(w) <= 0.0):
            raise ValueError("omega_table must be strictly increasing")
        if np.any(w <= 0.0):
            raise ValueError("omega_table must be positive (rad/fs)")
        self.omega_table = w
        self.g_table = g
        self._re = CubicSpline(w, g.real)
        self._im = CubicSpline(w, g.imag)

    def amplitude(self, omega):
        w = np.asarray(omega, dtype=float)
        inside = (w >= self.omega_table[0]) & (w <= self.omega_table[-1])
        out = np.where(inside, self._re(w) + 1j * self._im(w), 0.0j)
        return out if w.shape else complex(out)

    def eels_probability(self) -> float:
        from scipy.integrate import simpson

        dense = np.linspace(self.omega_table[0], self.omega_table[-1], 4001)
        g = self.amplitude(dense)
        return float(simpson(np.abs(g) ** 2, x=dense))


@dataclass(frozen=True)
class WaveguideCoupling:
    """Phase-matched traveling-wave coupler of length `length` nm.

    g0: peak amplitude; omega_match: perfectly matched frequency (rad/fs);
    v_electron, v_group: nm/fs; gvd: group-velocity dispersion D2 in fs^2/nm.
    """

    g0: complex
    omega_match: float
    v_electron: float
    v_group: float
    gvd: float
    length: float

    def __post_init__(self) -> None:
        _require_finite_g0(self.g0)
        # `not (0 < x < inf)`: a NaN trips it
        if not 0.0 < self.omega_match < math.inf:
            raise ValueError("omega_match must be positive and finite (rad/fs)")
        if not 0.0 < self.v_electron < math.inf:
            raise ValueError("v_electron must be positive and finite (nm/fs)")
        if not 0.0 < self.v_group < math.inf:
            raise ValueError("v_group must be positive and finite (nm/fs)")
        if not math.isfinite(self.gvd):
            raise ValueError("gvd must be finite (fs^2/nm)")
        if not 0.0 < self.length < math.inf:
            raise ValueError("length must be positive and finite (nm)")

    def phase_mismatch(self, omega):
        """dk(omega) in rad/nm."""
        delta = np.asarray(omega, dtype=float) - self.omega_match
        return (1.0 / self.v_electron - 1.0 / self.v_group) * delta - 0.5 * self.gvd * delta**2

    def envelope(self, omega):
        """Signed real sinc envelope sin(x)/x with x = dk*L/2."""
        x = self.phase_mismatch(omega) * self.length / 2.0
        return np.sinc(x / np.pi)

    def amplitude(self, omega):
        x = self.phase_mismatch(omega) * self.length / 2.0
        out = complex(self.g0) * np.exp(1j * x) * self.envelope(omega)
        return out if np.asarray(omega).shape else complex(out)

    def eels_probability(self) -> float:
        """|g|^2 integrated over the model band (0, 2*omega_match) by the trapezoid
        rule on 200,001 points; the sinc tails beyond fall off as 1/delta^2 and
        contribute negligibly.

        Working set: the grid and its 200,000 trapezoid terms d (y1 + y0) / 2, plus
        the temporaries of one `_EELS_BLOCK`-point block of |g|^2.  One np.sum over
        the terms is np.trapezoid's pairwise sum, so the result is its bit for bit.
        """
        lo = self.omega_match * 1.0e-2
        hi = 2.0 * self.omega_match - lo
        dense = np.linspace(lo, hi, 200001)
        g0_sq = abs(complex(self.g0)) ** 2
        terms = np.empty(dense.size - 1)
        for i in range(0, terms.size, _EELS_BLOCK):
            x = dense[i : i + _EELS_BLOCK + 1]  # the block's terms and the next one's first point
            y = g0_sq * self.envelope(x) ** 2  # |e^{ix}| = 1
            terms[i : i + _EELS_BLOCK] = np.diff(x) * (y[1:] + y[:-1]) / 2.0
        return float(np.sum(terms))


CouplingModel = Union[FlatCoupling, GaussianBandCoupling, TabulatedCoupling, WaveguideCoupling]


def coupling_amplitude(model: CouplingModel, omega):
    """g(omega) for any coupling model; omega must be positive (rad/fs)."""
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0.0):  # a NaN trips it
        raise ValueError("coupling amplitudes are defined for omega > 0 only")
    return model.amplitude(omega)
