"""Electron ladder states: modulation, propagation, and temporal density.

PHYSICS SCOPE: after inelastic laser modulation the electron occupies a
coherent ladder of energy sidebands,

    |psi> = sum_j c_j |T + j hbar omega0>,      c_j = J_j(2|beta|) e^{i j arg(-beta)},

where beta is the complex modulation strength.  Free-space propagation over a
distance d multiplies each amplitude by a dispersive phase; near the beam
energy the phase is quadratic in j and produces temporal-Talbot bunching with
revival distance z_T.  The comoving temporal density is

    rho(t) = |f(t)|^2 |sum_j c_j e^{-i j omega0 t}|^2 / norm,

with f(t) the pulse envelope.  CONVENTIONS: the infinite-envelope modulated
wavefunction equals exp(-2i|beta| sin(omega0 t - arg(-beta))); the pure-phase
form exp(-2i|beta| cos(omega0 t)) is the beta = i|beta| member of the family
(a quarter-period time shift).  UNITS: eV / fs / nm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import fft

from .constants import TWO_PI
from .errors import PhysicsGuardError, TruncationError
from .kinematics import BeamParameters, wavenumber

_NORM_TOL = 1.0e-10
_EDGE_TOL = 1.0e-14


def auto_cutoff(beta_abs: float) -> int:
    """Ladder half-width J for modulation strength |beta|.

    The Bessel weights J_j(2|beta|) die super-exponentially beyond j ~ 2|beta|;
    ceil(2|beta|) + max(20, ceil(4*sqrt(2|beta|))) keeps the discarded norm
    far below 1e-12 for any practical strength.
    """
    if beta_abs < 0.0:
        raise ValueError("beta_abs must be non-negative")
    x = 2.0 * beta_abs
    return int(math.ceil(x)) + max(20, int(math.ceil(4.0 * math.sqrt(x))))


@dataclass(frozen=True, eq=False)
class LadderState:
    """Sideband amplitudes c_j for j = -cutoff .. +cutoff.

    `coefficients` has odd length 2*cutoff+1 ordered by ascending j and is
    treated as immutable.
    """

    coefficients: np.ndarray
    beam: BeamParameters

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coefficients must be a 1-D array of odd length")
        # guards read `not (err <= tol)` so that a NaN trips them
        edge = float(np.max(np.abs(c[[0, -1]]) ** 2))
        if not edge <= _EDGE_TOL:
            raise TruncationError(
                f"boundary sideband occupation {edge:.3e} exceeds {_EDGE_TOL:g}; "
                "increase the cutoff"
            )
        norm = float(np.sum(np.abs(c) ** 2))
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise PhysicsGuardError(
                f"ladder state norm {norm!r} deviates from 1 by more than {_NORM_TOL:g}"
            )

    @property
    def cutoff(self) -> int:
        return (self.coefficients.size - 1) // 2

    @property
    def level_indices(self) -> np.ndarray:
        j = self.cutoff
        return np.arange(-j, j + 1)


def bessel_ladder(x: float, half_width: int) -> np.ndarray:
    """J_j(x) for j = -half_width..half_width from the Jacobi-Anger series
    e^{i x sin t} = sum_j J_j(x) e^{i j t}: one FFT of it sampled at n points,
    n the power of two >= 4 half_width + 64 + x.  This is the trapezoid rule on
    a periodic analytic integrand, which converges exponentially (Trefethen &
    Weideman, SIAM Rev. 56, 2014): the error is round-off, 1.9e-16 at x = 8 and
    3.1e-14 at x = 2000 against scipy.special.jv.
    """
    n = 1 << (4 * half_width + 64 + math.ceil(x) - 1).bit_length()
    c = fft(np.exp(1j * x * np.sin(TWO_PI / n * np.arange(n)))).real / n
    return np.concatenate([c[n - half_width :], c[: half_width + 1]])


def pinem_ladder(beta: complex, beam: BeamParameters) -> LadderState:
    """Ladder state produced by laser modulation of strength beta.

    c_j = J_j(2|beta|) * exp(i j arg(-beta)) for |j| <= auto_cutoff(|beta|), the
    J_j from `bessel_ladder`.
    """
    beta = complex(beta)
    absb = abs(beta)
    cutoff = auto_cutoff(absb)
    j = np.arange(-cutoff, cutoff + 1)
    if absb == 0.0:
        c = np.zeros(2 * cutoff + 1, dtype=complex)
        c[cutoff] = 1.0
    else:
        phase = np.angle(-beta)
        c = bessel_ladder(2.0 * absb, cutoff) * np.exp(1j * j * phase)
    return LadderState(c, beam)


def propagation_phase(beam: BeamParameters, j: np.ndarray, distance, mode: str) -> np.ndarray:
    """Free-space phase factor of ladder levels j over a distance d nm, or an
    array of them: the result has shape j.shape + np.shape(d).

    mode="exact" gives e^{i k_j d} with the exact relativistic k_j;
    mode="quadratic" gives e^{-2 pi i j^2 d / z_T}, the pure Talbot phase
    (the j-independent and j-linear parts, a global phase and a rigid time
    shift, are dropped).
    """
    if mode == "exact":
        return np.exp(np.multiply.outer(1j * wavenumber(beam, j), distance))
    if mode == "quadratic":
        return np.exp(np.multiply.outer(-2j * np.pi * j**2, distance) / beam.talbot_distance)
    raise ValueError(f"unknown propagation mode {mode!r}")


def propagate(state: LadderState, distance: float, mode: str = "exact") -> LadderState:
    """Propagate a ladder state by `distance` nm with `propagation_phase`."""
    if distance < 0.0:
        raise ValueError("distance must be non-negative (nm)")
    phase = propagation_phase(state.beam, state.level_indices, distance, mode)
    return replace(state, coefficients=state.coefficients * phase)


@dataclass(frozen=True)
class EnvelopeSpec:
    """Pulse envelope and its sampling window: kind "infinite" or "gaussian" (fwhm_fs
    of |f|^2) and the window window_fs (None: `sampling_lattice`'s default).  It is
    the config's envelope section, resolved."""

    kind: str
    fwhm_fs: float | None = None
    window_fs: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("infinite", "gaussian"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.fwhm_fs is None or self.fwhm_fs <= 0.0:
                raise ValueError("gaussian envelope requires a positive fwhm_fs")
        elif self.fwhm_fs is not None:
            raise ValueError("infinite envelope takes no fwhm_fs")


@dataclass(frozen=True, eq=False)
class WavepacketDensity:
    """Sampled comoving temporal density rho(t) with unit integral.

    Samples sit at t0 + i*dt; dt always divides the optical period exactly and
    the window spans an integer number of periods, so every harmonic of omega0
    lands exactly on the discrete spectral lattice.
    """

    samples: np.ndarray
    dt: float
    t0: float
    envelope: EnvelopeSpec
    omega0: float

    def __post_init__(self) -> None:
        rho = np.asarray(self.samples, dtype=float)
        if not np.min(rho) >= -1.0e-12:
            raise PhysicsGuardError("density has significantly negative samples")
        rho = np.maximum(rho, 0.0)
        object.__setattr__(self, "samples", rho)
        total = float(np.sum(rho) * self.dt)
        if not abs(total - 1.0) <= 1.0e-8:
            raise PhysicsGuardError(f"density integral {total!r} deviates from 1")

    @property
    def periods_in_window(self) -> int:
        return int(round(self.samples.size * self.dt * self.omega0 / TWO_PI))


def sampling_lattice(
    beam: BeamParameters, envelope: EnvelopeSpec, cutoff: int
) -> tuple[float, int, int]:
    """(dt, samples per period, periods) sampling a ladder of half-width `cutoff`
    over the envelope's window_fs.

    A period holds P = max(256, the smallest power of two above 2*cutoff) samples,
    dt = T0/P: the wavefunction's highest sideband, `cutoff`, lies below Nyquist.  The
    window, by default 16*fwhm (gaussian) or 64*T0 (infinite), is rounded up to
    whole periods so that harmonics fall on the FFT lattice; it must cover >= 8*fwhm
    resp. >= 64 periods (ValueError).
    """
    t_period = beam.optical_period
    samples_per_period = max(256, 1 << (2 * cutoff).bit_length())
    window = envelope.window_fs
    if envelope.kind == "gaussian":
        fwhm = float(envelope.fwhm_fs)  # validated by EnvelopeSpec
        if window is None:
            window = 16.0 * fwhm
        if window < 8.0 * fwhm * (1.0 - 1.0e-12):
            raise ValueError(f"window={window:g} fs < 8*fwhm={8.0 * fwhm:g} fs")
    else:
        if window is None:
            window = 64.0 * t_period
        if window < 64.0 * t_period * (1.0 - 1.0e-12):
            raise ValueError(f"window={window:g} fs < 64 periods={64.0 * t_period:g} fs")
    n_periods = int(math.ceil(window / t_period - 1.0e-9))
    return t_period / samples_per_period, samples_per_period, n_periods


def synthesize_density(state: LadderState, envelope: EnvelopeSpec) -> WavepacketDensity:
    """Sample rho(t) = |f(t)|^2 |sum_j c_j e^{-i j omega0 t}|^2, normalized to 1, on
    the time lattice of `sampling_lattice` (its defaults and guards).  The ladder
    sum has period T0: one period, at times less whole periods (small phases), is
    a (P x 2J+1) phase matrix times the coefficients, tiled before |f|^2 is applied."""
    dt_eff, samples_per_period, n_periods = sampling_lattice(state.beam, envelope, state.cutoff)
    t_period = state.beam.optical_period
    t0 = -0.5 * (n_periods * t_period)
    t_one = dt_eff * np.arange(samples_per_period) - 0.5 * (n_periods % 2) * t_period
    phase = np.exp(np.multiply.outer(-1j * state.beam.omega0 * t_one, state.level_indices))
    # summed elementwise: a BLAS matvec this size wakes OpenBLAS threads that then spin
    rho = np.tile(np.abs(np.sum(phase * state.coefficients, axis=1)) ** 2, n_periods)
    if envelope.kind == "gaussian":  # |f(t)|^2 built in one buffer, t = t0 + i dt
        f2 = np.arange(rho.size, dtype=float)
        f2 *= dt_eff
        f2 += t0
        f2 /= envelope.fwhm_fs
        np.square(f2, out=f2)
        f2 *= -4.0 * math.log(2.0)
        rho *= np.exp(f2, out=f2)
    rho /= np.sum(rho) * dt_eff
    return WavepacketDensity(rho, dt_eff, t0, envelope, state.beam.omega0)
