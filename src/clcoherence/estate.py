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
from typing import NamedTuple

import numpy as np
from numpy.fft import fft

from .constants import TWO_PI
from .errors import PhysicsGuardError, TruncationError
from .kinematics import BeamParameters, wavenumber

_NORM_TOL = 1.0e-10
_EDGE_TOL = 1.0e-14
# Elements per block of `synthesize_density`'s phase matrix and |f|^2 (256 kB complex):
# the blocks stay in cache, and its working set is one density plus one block.
_BLOCK = 1 << 14


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
    if not 0.0 <= distance < math.inf:  # a NaN trips it
        raise ValueError("distance must be non-negative and finite (nm)")
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
            if self.fwhm_fs is None or not 0.0 < self.fwhm_fs < math.inf:  # a NaN trips it
                raise ValueError("gaussian envelope requires a positive, finite fwhm_fs")
        elif self.fwhm_fs is not None:
            raise ValueError("infinite envelope takes no fwhm_fs")
        if self.window_fs is not None and not 0.0 < self.window_fs < math.inf:
            raise ValueError("window_fs must be positive and finite")


class SamplingLattice(NamedTuple):
    """The time and FFT lattice of a run with an envelope: dt = T0/per_period, a
    window of `periods` whole periods centred on t = 0, zero-padded x`pad` for the
    FFT.  Harmonic n of omega0 lands on the padded lattice at k = n * periods * pad."""

    dt: float
    per_period: int
    periods: int
    pad: int

    @property
    def n_fft(self) -> int:
        """Length of the padded FFT lattice."""
        return self.per_period * self.periods * self.pad

    def frequencies(self, low: float, high: float, step: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(k, omega) of the centred n_fft-point FFT lattice, k = -(n_fft//2)..(n_fft-1)//2
        and omega_k = 2 pi (k * val), val = 1/(n_fft dt), cut to low <= omega <= high
        (either end may be infinite) and to the bins k = 0 (mod step).

        Both are views: one k and one omega array span the cut and a bin either side
        of it, and two bounds on the ascending omega cut them."""
        if not low < high:  # a NaN trips it
            raise ValueError("need low < high (rad/fs)")
        n_fft = self.n_fft
        val = 1.0 / (n_fft * self.dt)
        unit = TWO_PI * val
        # a bin beyond each end, within the lattice; an infinite end is clamped first
        first = max(-(n_fft // 2), math.floor(min(max(low / unit, -n_fft), n_fft)) - 1)
        last = min((n_fft - 1) // 2, math.ceil(min(max(high / unit, -n_fft), n_fft)) + 1)
        k = np.arange(-(-first // step), last // step + 1)
        k *= step
        omega = k * val
        omega *= TWO_PI
        cut = slice(np.searchsorted(omega, low), np.searchsorted(omega, high, side="right"))
        return k[cut], omega[cut]


@dataclass(frozen=True, eq=False)
class WavepacketDensity:
    """Sampled comoving temporal density rho(t) with unit integral: one sample per
    time t_i = (i - N/2) dt of its lattice's window, N = per_period * periods.

    `samples` is read-only.  A writable array is copied, so the density does not
    alias an array its caller may go on writing; a read-only float array is kept
    as it is, which is how `synthesize_density` hands over its own without a copy.
    Negatives down to -1e-12 are clamped to 0, in a copy."""

    samples: np.ndarray
    lattice: SamplingLattice

    def __post_init__(self) -> None:
        rho = np.asarray(self.samples, dtype=float)
        if rho.shape != (self.lattice.per_period * self.lattice.periods,):
            raise ValueError("a density holds one sample per time of its lattice")
        low = np.min(rho)
        if not low >= -1.0e-12:
            raise PhysicsGuardError("density has significantly negative samples")
        if low < 0.0 or rho.flags.writeable:
            rho = np.maximum(rho, 0.0)
            rho.flags.writeable = False
        object.__setattr__(self, "samples", rho)
        total = float(np.sum(rho) * self.dt)
        if not abs(total - 1.0) <= 1.0e-8:
            raise PhysicsGuardError(f"density integral {total!r} deviates from 1")

    @property
    def dt(self) -> float:
        return self.lattice.dt


def sampling_lattice(
    beam: BeamParameters, envelope: EnvelopeSpec, cutoff: int
) -> SamplingLattice:
    """The lattice sampling a ladder of half-width `cutoff` over the envelope's window_fs.

    A period holds P = max(256, the smallest power of two above 2*cutoff) samples,
    dt = T0/P: the wavefunction's highest sideband, `cutoff`, lies below Nyquist.  The
    window, by default 16*fwhm (gaussian) or 64*T0 (infinite), is rounded up to
    whole periods so that harmonics fall on the FFT lattice; it must cover >= 8*fwhm
    resp. >= 64 periods (ValueError).  A finite envelope is zero-padded x8, so its
    line shapes are resolved; an infinite one is not padded, so every off-harmonic
    bin vanishes by discrete orthogonality.
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
    pad = 1 if envelope.kind == "infinite" else 8
    return SamplingLattice(t_period / samples_per_period, samples_per_period, n_periods, pad)


def synthesize_density(state: LadderState, envelope: EnvelopeSpec) -> WavepacketDensity:
    """Sample rho(t) = |f(t)|^2 |sum_j c_j e^{-i j omega0 t}|^2, normalized to 1, on
    the time lattice of `sampling_lattice` (its defaults and guards).  The ladder
    sum has period T0: one period, at times less whole periods (small phases), is
    a (P x 2J+1) phase matrix times the coefficients, tiled before |f|^2 is applied.

    Working set: the N-sample density and one block of `_BLOCK` elements.  The
    phase matrix is summed a block of rows at a time and |f|^2 applied to a block
    of samples at a time, each row and sample by the whole-array arithmetic, so
    the samples do not depend on the blocking."""
    lattice = sampling_lattice(state.beam, envelope, state.cutoff)
    dt_eff, per_period, n_periods = lattice.dt, lattice.per_period, lattice.periods
    t_period = state.beam.optical_period
    t0 = -0.5 * (n_periods * t_period)
    t_one = dt_eff * np.arange(per_period) - 0.5 * (n_periods % 2) * t_period
    arg = -1j * state.beam.omega0 * t_one
    psi = np.empty(per_period, dtype=complex)
    rows = max(1, _BLOCK // state.coefficients.size)
    for lo in range(0, per_period, rows):
        phase = np.exp(np.multiply.outer(arg[lo : lo + rows], state.level_indices))
        # summed elementwise: a BLAS matvec this size wakes OpenBLAS threads that then spin
        psi[lo : lo + rows] = np.sum(phase * state.coefficients, axis=1)
    rho = np.tile(np.abs(psi) ** 2, n_periods)
    if envelope.kind == "gaussian":  # |f(t)|^2 a block at a time, t = t0 + i dt
        for lo in range(0, rho.size, _BLOCK):
            f2 = np.arange(lo, min(lo + _BLOCK, rho.size), dtype=float)
            f2 *= dt_eff
            f2 += t0
            f2 /= envelope.fwhm_fs
            np.square(f2, out=f2)
            f2 *= -4.0 * math.log(2.0)
            rho[lo : lo + _BLOCK] *= np.exp(f2, out=f2)
    rho /= np.sum(rho) * dt_eff
    rho.flags.writeable = False  # handed over: the density keeps it without a copy
    return WavepacketDensity(rho, lattice)
