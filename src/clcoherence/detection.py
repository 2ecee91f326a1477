"""Balanced-heterodyne detection of the coherent CL field.

A lossless splitter mixes the CL field a with a strong coherent reference
alpha; the two output ports are

    b1 = T a + R alpha,          b2 = conj(T) alpha - conj(R) a,

which is unitary for any |R|^2 + |T|^2 = 1.  Detector means here are the
mean-field (coherent) intensities; fluctuation statistics enter through
`noise_floor_terms`, which assembles the exact variance of the difference
signal from the two-frequency correlators of the CL field.  The reference
grid is a uniform stride of the spectral lattice, so the normal correlator
depends only on w_m - w_n (a Toeplitz sum) and the anomalous one only on
w_n + w_m (a Hankel sum): each N x N double sum is 2N-1 lattice lookups of F
and one FFT convolution, O(N log N) in time and O(N) in memory.  The difference
operator is D = p (n_a - n_ref) + kappa a+ r + conj(kappa) r+ a with
p = |T|^2 - |R|^2 and kappa = 2 conj(T) R; for a balanced splitter p = 0 and
the reference-intensity noise channels (the |alpha|^4 and |alpha|^3 groups)
cancel identically, leaving vacuum-beat shot noise |kappa|^2 * total counts.

UNITS: alpha(omega) in sqrt(counts per rad/fs); integrals are Riemann sums
on the shared uniform grid so that energy bookkeeping is exact in floats.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .coupling import CouplingModel, coupling_amplitude
from .errors import PhysicsGuardError
from .spectra import CoherentField, DensitySpectrum, _mean_step, _require_uniform, fft_convolve

_UNITARY_TOL = 1.0e-12
_MEAN_OVERFLOW = 1.0e12


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless splitter with complex reflection R and transmission T."""

    R: complex
    T: complex

    def __post_init__(self) -> None:
        r = complex(self.R)
        t = complex(self.T)
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "T", t)
        defect = abs(abs(r) ** 2 + abs(t) ** 2 - 1.0)
        if defect > _UNITARY_TOL:
            raise ValueError(
                f"|R|^2 + |T|^2 deviates from 1 by {defect:.3e} (> {_UNITARY_TOL:g})"
            )

    @classmethod
    def heterodyne(cls) -> "BeamSplitter":
        """Balanced quadrature splitter R = 1/sqrt(2), T = i/sqrt(2)."""
        s = 1.0 / np.sqrt(2.0)
        return cls(R=s, T=1j * s)

    @property
    def imbalance(self) -> float:
        """p = |T|^2 - |R|^2; exactly 0.0 for a balanced splitter."""
        return abs(self.T) ** 2 - abs(self.R) ** 2

    @property
    def kappa(self) -> complex:
        """Heterodyne gain of the difference signal, 2 conj(T) R."""
        return 2.0 * np.conj(self.T) * self.R

    @property
    def is_balanced(self) -> bool:
        return self.imbalance == 0.0


@dataclass(frozen=True, eq=False)
class ReferencePulse:
    """Coherent reference spectrum alpha(omega) on a uniform omega > 0 grid."""

    omega_grid: np.ndarray
    alpha: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.omega_grid, dtype=float)
        a = np.asarray(self.alpha, dtype=complex)
        object.__setattr__(self, "omega_grid", w)
        object.__setattr__(self, "alpha", a)
        if w.ndim != 1 or w.size < 2 or a.shape != w.shape:
            raise ValueError("omega_grid and alpha must be matching 1-D arrays")
        if not np.all(w > 0.0):  # a NaN trips it
            raise ValueError("omega_grid must be positive")
        _require_uniform(w, "omega_grid")

    @property
    def domega(self) -> float:
        return _mean_step(self.omega_grid)

    @property
    def total_counts(self) -> float:
        return float(np.sum(np.abs(self.alpha) ** 2) * self.domega)

    @classmethod
    def gaussian(
        cls,
        omega_grid: np.ndarray,
        center: float,
        sigma: float,
        total_counts: float,
        phase: float = 0.0,
    ) -> "ReferencePulse":
        """Gaussian |alpha|^2 profile carrying exactly `total_counts` photons
        on this grid: normalized with `domega`, the step `total_counts` and
        `detector_means` sum with, so energy checks are exact."""
        w = np.asarray(omega_grid, dtype=float)
        if not (sigma > 0.0 and total_counts >= 0.0):
            raise ValueError("sigma must be positive and total_counts non-negative")
        if w.ndim != 1 or w.size < 2:
            raise ValueError("omega_grid must be a 1-D grid of 2 or more points")
        shape = np.exp(-((w - center) ** 2) / (2.0 * sigma**2))
        norm = np.sum(shape) * _mean_step(w)
        if norm == 0.0:
            raise ValueError("reference profile vanishes on this grid")
        amp = np.sqrt(total_counts * shape / norm) * np.exp(1j * phase)
        return cls(w, amp)

    def with_phase(self, phase: float) -> "ReferencePulse":
        return ReferencePulse(self.omega_grid, self.alpha * np.exp(1j * phase))


def _check_shared_grid(ref: ReferencePulse, cl: CoherentField | None) -> np.ndarray:
    if cl is None:
        return np.zeros_like(ref.alpha)
    if cl.omega_grid.size != ref.omega_grid.size or np.max(
        np.abs(cl.omega_grid - ref.omega_grid)
    ) > 1.0e-9 * ref.domega:
        raise ValueError("reference and CL field must share one frequency grid")
    return cl.a_mean


def detector_means(
    splitter: BeamSplitter,
    reference: ReferencePulse,
    cl_field: CoherentField | None,
    qe1: float = 1.0,
    qe2: float = 1.0,
) -> tuple[float, float]:
    """Mean photocounts (mu1, mu2) from the coherent amplitudes.

    With unit quantum efficiencies mu1 + mu2 equals the total input energy
    sum(|alpha|^2 + |<a>|^2) d omega exactly.
    """
    if not (0.0 <= qe1 <= 1.0 and 0.0 <= qe2 <= 1.0):
        raise ValueError("quantum efficiencies must lie in [0, 1]")
    a = _check_shared_grid(reference, cl_field)
    alpha = reference.alpha
    dw = reference.domega
    port1 = splitter.T * a + splitter.R * alpha
    port2 = np.conj(splitter.T) * alpha - np.conj(splitter.R) * a
    mu1 = qe1 * float(np.sum(np.abs(port1) ** 2) * dw)
    mu2 = qe2 * float(np.sum(np.abs(port2) ** 2) * dw)
    return mu1, mu2


@dataclass(frozen=True, eq=False)
class ShotEnsemble:
    """Monte Carlo photocount records for both detectors."""

    counts1: np.ndarray
    counts2: np.ndarray

    @property
    def n_shots(self) -> int:
        return self.counts1.size


def sample_shots(mu1: float, mu2: float, *, n_shots: int, seed: int) -> ShotEnsemble:
    """Poisson photocounts per shot about the detector means (mu1, mu2) that
    `detector_means` returns, one Philox stream per detector.

    Detector d (1 or 2) draws its shots as
    `Generator(Philox(key=seed, counter=[0, 0, 0, d])).poisson(mean, n_shots)`,
    so a fixed seed gives the same ensemble, extending an ensemble never
    changes the shots already drawn, and the two detector streams are
    separate.  If a numpy release changes its Poisson algorithm,
    `test_stream_matches_numpy_poisson` is the arbiter.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    if max(mu1, mu2) > _MEAN_OVERFLOW:
        raise PhysicsGuardError(
            f"detector mean {max(mu1, mu2):.3e} exceeds {_MEAN_OVERFLOW:g} counts"
        )
    seed = int(seed)
    counts1, counts2 = (
        Generator(Philox(key=seed, counter=[0, 0, 0, det])).poisson(mean, n_shots)
        for det, mean in ((1, mu1), (2, mu2))
    )
    return ShotEnsemble(counts1, counts2)


@dataclass(frozen=True)
class SnrReport:
    signal: float
    noise_per_shot: float
    stderr: float
    snr: float
    snr_per_shot: float
    n_shots: int


def snr_estimate(ensemble: ShotEnsemble) -> SnrReport:
    """Empirical difference-signal statistics of an ensemble of 2 or more
    shots; an ensemble with zero variance trips a PhysicsGuardError."""
    if ensemble.n_shots < 2:
        raise ValueError("need at least 2 shots for a noise estimate")
    diff = ensemble.counts1.astype(float) - ensemble.counts2.astype(float)
    signal = float(np.mean(diff))
    noise = float(np.std(diff, ddof=1))
    if noise == 0.0:
        raise PhysicsGuardError(
            f"degenerate ensemble: all {ensemble.n_shots} shots give the same difference "
            "signal (zero variance), so no noise estimate exists"
        )
    stderr = noise / np.sqrt(ensemble.n_shots)
    return SnrReport(
        signal=signal,
        noise_per_shot=noise,
        stderr=float(stderr),
        snr=float(abs(signal) / stderr),
        snr_per_shot=float(abs(signal) / noise),
        n_shots=ensemble.n_shots,
    )


@dataclass(frozen=True)
class NoiseFloorReport:
    """Exact variance of the balanced difference signal, term by term.

    variance_total = reference_shot + cl_shot + field_cross is the quantum
    variance of D for the balanced sector.  alpha4_coefficient = p^2 and
    alpha3_coefficient = 2|p||kappa| are the splitter prefactors of the
    common-mode reference-intensity noise channels (the |alpha|^4 and
    |alpha|^3 groups); both vanish identically when |R| = |T|, which is the
    cancellation that makes balanced detection shot-noise limited.
    """

    variance_total: float
    reference_shot: float
    cl_shot: float
    field_cross: float
    alpha4_coefficient: float
    alpha3_coefficient: float
    is_balanced: bool


def noise_floor_terms(
    splitter: BeamSplitter,
    reference: ReferencePulse,
    model: CouplingModel,
    spectrum: DensitySpectrum,
) -> NoiseFloorReport:
    """Assemble Var(D) from the CL pair correlators on the reference grid.

    Connected correlators: C+a[n,m] = conj(g_n) g_m F(w_m - w_n) - conj(<a>_n)
    <a>_m and Caa[n,m] = g_n g_m F(w_n + w_m) - <a>_n <a>_m; the spectrum must
    cover every difference and sum frequency of the grid (GridCoverageError
    otherwise).  The grid is a uniform stride of the spectral lattice, so
    F(w_m - w_n) depends on m - n only and F(w_n + w_m) on n + m only: each
    N x N table is 2N - 1 lookups, and the alpha-weighted double sums over
    (n, m) are Toeplitz and Hankel sums, evaluated by FFT convolution.
    """
    w = reference.omega_grid
    dw = reference.domega
    alpha = reference.alpha
    g = np.asarray(coupling_amplitude(model, w), dtype=complex)
    f_on_grid = spectrum.value_at(w)
    # f_diff[k + N - 1] = F(w_k - w_0) for k = 1-N..N-1, f_sum[s] = F(w_0 + w_s) for s = 0..2N-2
    span = w - w[0]
    f_diff = spectrum.value_at(np.concatenate([-span[:0:-1], span]))
    f_sum = spectrum.value_at(np.concatenate([w[0] + w, w[-1] + w[1:]]))

    # With u = alpha conj(g) and b = sum alpha conj(<a>):
    #   sum alpha_n conj(alpha_m) C+a[n,m] = sum_k F(k) sum_n u_n conj(u_{n+k}) - |b|^2,
    #   sum alpha_n alpha_m conj(Caa[n,m]) = sum_s conj(F(s)) sum_n u_n u_{s-n} - b^2.
    u = alpha * np.conj(g)
    b = np.sum(u * np.conj(f_on_grid))
    normal = np.dot(f_diff, fft_convolve(u[::-1], np.conj(u))) - abs(b) ** 2
    anomalous = np.dot(np.conj(f_sum), fft_convolve(u, u)) - b * b

    kappa = splitter.kappa
    p = splitter.imbalance
    abs_k2 = abs(kappa) ** 2

    reference_shot = abs_k2 * reference.total_counts
    cl_shot = abs_k2 * float(np.sum(np.abs(g) ** 2) * dw)
    cross = dw * dw * (2.0 * np.real(kappa**2 * anomalous) + 2.0 * abs_k2 * np.real(normal))
    total = reference_shot + cl_shot + float(cross)
    return NoiseFloorReport(
        variance_total=total,
        reference_shot=reference_shot,
        cl_shot=cl_shot,
        field_cross=float(cross),
        alpha4_coefficient=p * p,
        alpha3_coefficient=2.0 * abs(p) * abs(kappa),
        is_balanced=splitter.is_balanced,
    )
