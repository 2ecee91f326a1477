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
from scipy.special import jv

from .constants import ELECTRON_REST_EV, TWO_PI
from .errors import AliasingError, PhysicsGuardError, TruncationError
from .kinematics import BeamParameters, wavenumber

_NORM_TOL = 1.0e-10
_EDGE_TOL = 1.0e-14


def auto_cutoff(beta_abs: float) -> int:
    """Default ladder half-width J for modulation strength |beta|.

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
    treated as immutable.  `propagated_distance` (nm) is bookkeeping of how far
    the state has been propagated from the modulation plane.
    """

    coefficients: np.ndarray
    beam: BeamParameters
    propagated_distance: float = 0.0

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
        if self.propagated_distance < 0.0:
            raise ValueError("propagated_distance must be non-negative")

    @property
    def cutoff(self) -> int:
        return (self.coefficients.size - 1) // 2

    @property
    def level_indices(self) -> np.ndarray:
        j = self.cutoff
        return np.arange(-j, j + 1)

    def coefficient(self, j: int) -> complex:
        if abs(j) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coefficients[j + self.cutoff])

    def to_json_dict(self) -> dict:
        return {
            "beam": {
                "kinetic_energy_ev": self.beam.kinetic_energy,
                "photon_energy_ev": self.beam.photon_energy,
                "rest_energy_ev": self.beam.rest_energy,
            },
            "propagated_distance_nm": self.propagated_distance,
            "coefficients_real": self.coefficients.real.tolist(),
            "coefficients_imag": self.coefficients.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LadderState":
        beam = BeamParameters(
            kinetic_energy=payload["beam"]["kinetic_energy_ev"],
            photon_energy=payload["beam"]["photon_energy_ev"],
            rest_energy=payload["beam"].get("rest_energy_ev", ELECTRON_REST_EV),
        )
        c = np.asarray(payload["coefficients_real"]) + 1j * np.asarray(payload["coefficients_imag"])
        return cls(c, beam, payload.get("propagated_distance_nm", 0.0))


def pinem_ladder(beta: complex, beam: BeamParameters, cutoff: int | None = None) -> LadderState:
    """Ladder state produced by laser modulation of strength beta.

    c_j = J_j(2|beta|) * exp(i j arg(-beta)).  With cutoff=None the half-width
    is `auto_cutoff(|beta|)`; an explicit smaller cutoff raises TruncationError
    reporting the discarded norm.
    """
    beta = complex(beta)
    absb = abs(beta)
    needed = auto_cutoff(absb)
    if cutoff is None:
        cutoff = needed
    elif cutoff < needed:
        j = np.arange(-cutoff, cutoff + 1)
        kept = float(np.sum(jv(j, 2.0 * absb) ** 2))
        raise TruncationError(
            f"cutoff {cutoff} < required {needed} for |beta|={absb:g}; "
            f"discarded norm {max(1.0 - kept, 0.0):.3e}"
        )
    j = np.arange(-cutoff, cutoff + 1)
    if absb == 0.0:
        c = np.zeros(2 * cutoff + 1, dtype=complex)
        c[cutoff] = 1.0
    else:
        phase = np.angle(-beta)
        c = jv(j, 2.0 * absb) * np.exp(1j * j * phase)
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
    return replace(
        state,
        coefficients=state.coefficients * phase,
        propagated_distance=state.propagated_distance + distance,
    )


@dataclass(frozen=True)
class EnvelopeSpec:
    """Pulse envelope: kind "infinite" or "gaussian" (fwhm of |f|^2, fs)."""

    kind: str
    fwhm: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("infinite", "gaussian"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.fwhm is None or self.fwhm <= 0.0:
                raise ValueError("gaussian envelope requires a positive fwhm (fs)")
        elif self.fwhm is not None:
            raise ValueError("infinite envelope takes no fwhm")


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
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    @property
    def periods_in_window(self) -> int:
        return int(round(self.samples.size * self.dt * self.omega0 / TWO_PI))


def sampling_lattice(
    beam: BeamParameters, envelope: EnvelopeSpec, cutoff: int, dt=None, window=None
) -> tuple[float, int, int]:
    """(dt, samples per period, periods) sampling a ladder of half-width `cutoff`.

    Defaults: dt = T0/256 and window = 16*fwhm (gaussian) or 64*T0 (infinite).
    dt is snapped to T0/m (integer m) and the window up to an integer number of
    periods so that harmonics fall on the FFT lattice.  Guards: dt must not
    exceed T0/64, the window must cover >= 8*fwhm resp. >= 64 periods (both
    ValueError), and the highest harmonic must stay below Nyquist (AliasingError).
    """
    t_period = beam.optical_period
    if dt is None:
        dt = t_period / 256.0
    if dt <= 0.0:
        raise ValueError("dt must be positive (fs)")
    if dt > t_period / 64.0 * (1.0 + 1.0e-12):
        raise ValueError(f"dt={dt:g} fs exceeds T0/64={t_period / 64.0:g} fs")
    samples_per_period = int(round(t_period / dt))
    dt_eff = t_period / samples_per_period

    if samples_per_period <= 2 * cutoff:
        raise AliasingError(
            f"dt={dt_eff:g} fs aliases harmonic {cutoff}: need more than {2 * cutoff} "
            "samples per period"
        )

    if envelope.kind == "gaussian":
        fwhm = float(envelope.fwhm)  # validated by EnvelopeSpec
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
    return dt_eff, samples_per_period, n_periods


def synthesize_density(
    state: LadderState,
    envelope: EnvelopeSpec,
    dt: float | None = None,
    window: float | None = None,
) -> WavepacketDensity:
    """Sample rho(t) = |f(t) sum_j c_j e^{-i j omega0 t}|^2, normalized to 1,
    on the time lattice of `sampling_lattice` (its defaults and guards)."""
    dt_eff, samples_per_period, n_periods = sampling_lattice(
        state.beam, envelope, state.cutoff, dt, window
    )
    n = n_periods * samples_per_period
    t0 = -0.5 * (n_periods * state.beam.optical_period)
    t = t0 + dt_eff * np.arange(n)

    cut = state.cutoff
    omega0 = state.beam.omega0
    step = np.exp(-1j * omega0 * t)
    running = np.exp(1j * cut * omega0 * t)  # e^{-i j omega0 t} at j = -cutoff
    psi = np.zeros(n, dtype=complex)
    for c_j in state.coefficients:
        if c_j != 0.0:
            psi += c_j * running
        running *= step

    if envelope.kind == "gaussian":
        psi *= np.exp(-2.0 * math.log(2.0) * (t / envelope.fwhm) ** 2)

    rho = np.abs(psi) ** 2
    rho /= np.sum(rho) * dt_eff
    return WavepacketDensity(rho, dt_eff, t0, envelope, omega0)
