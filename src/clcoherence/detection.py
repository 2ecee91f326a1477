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

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .coupling import CouplingModel, coupling_amplitude
from .errors import PhysicsGuardError
from .spectra import CoherentField, DensitySpectrum, _require_uniform, fft_convolve

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
        if np.any(w <= 0.0):
            raise ValueError("omega_grid must be positive")
        _require_uniform(w, "omega_grid")

    @property
    def domega(self) -> float:
        return float((self.omega_grid[-1] - self.omega_grid[0]) / (self.omega_grid.size - 1))

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
        on this grid (normalized discretely, so energy checks are exact)."""
        w = np.asarray(omega_grid, dtype=float)
        if sigma <= 0.0 or total_counts < 0.0:
            raise ValueError("sigma must be positive and total_counts non-negative")
        if w.ndim != 1 or w.size < 2:
            raise ValueError("omega_grid must be a 1-D grid of 2 or more points")
        shape = np.exp(-((w - center) ** 2) / (2.0 * sigma**2))
        dw = w[1] - w[0]
        norm = np.sum(shape) * dw
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


def balanced_signal(
    splitter: BeamSplitter,
    reference: ReferencePulse,
    cl_field: CoherentField | None,
) -> float:
    """Difference of the two mean photocounts at unit quantum efficiency."""
    mu1, mu2 = detector_means(splitter, reference, cl_field)
    return mu1 - mu2


@dataclass(frozen=True, eq=False)
class ShotEnsemble:
    """Monte Carlo photocount records for both detectors."""

    counts1: np.ndarray
    counts2: np.ndarray
    seed: int

    @property
    def n_shots(self) -> int:
        return self.counts1.size


# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox computes it: round
# multipliers, key bumps, and the rounds applied to one 4-word counter.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_WORD = (1 << 64) - 1
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
# numpy's random_loggam: Stirling-series coefficients, highest order first
_LOGGAM_SERIES = (
    -1.39243221690590e00, 1.796443723688307e-01, -2.955065359477124e-02,
    6.410256410256410e-03, -1.917526917526918e-03, 8.417508417508418e-04,
    -5.952380952380952e-04, 7.936507936507937e-04, -2.777777777777778e-03,
    8.333333333333333e-02,
)
_LOG_2PI = 1.8378770664093453
# Shots drawn per whole-array pass: bounds the temporaries (~130 B a shot).
_SHOT_BLOCK = 1 << 16
# Squeeze tests closer than this, relative to the size of the terms compared,
# are left to numpy itself: the arrays take logarithms from numpy's own log,
# numpy's C sampler from libm, and the two may differ in the last bits.
_SQUEEZE_MARGIN = 2.0**-40


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, in 32-bit halves."""
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    x_lo, x_hi = x & _LOW, x >> _HALF
    cross_lo, cross_hi = m_hi * x_lo, m_lo * x_hi
    mid = ((m_lo * x_lo) >> _HALF) + (cross_lo & _LOW) + (cross_hi & _LOW)
    hi = m_hi * x_hi + (cross_lo >> _HALF) + (cross_hi >> _HALF) + (mid >> _HALF)
    return hi, m * x


def _philox_doubles(seed: int, shots: np.ndarray, det: int) -> np.ndarray:
    """The four doubles of Philox block (1, 0, shot, det) under key `seed`, the
    first block a state at counter (0, 0, shot, det) returns: a (4, shots.size)
    array, each word w given as (w >> 11) * 2**-53."""
    keys = [seed & _WORD, seed >> 64]
    c0 = np.ones(shots.size, dtype=np.uint64)
    c1 = np.zeros(shots.size, dtype=np.uint64)
    c2 = shots
    c3 = np.full(shots.size, det, dtype=np.uint64)
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ keys[0], lo1, hi0 ^ c3 ^ keys[1], lo0
        keys = [(k + w) & _WORD for k, w in zip(keys, _PHILOX_W)]
    return (np.stack([c0, c1, c2, c3]) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _loggam(x: np.ndarray) -> np.ndarray:
    """numpy's random_loggam for x >= 7, where it sums the series directly."""
    x2 = (1.0 / x) * (1.0 / x)
    series = np.full(x.shape, _LOGGAM_SERIES[0])
    for coefficient in _LOGGAM_SERIES[1:]:
        series = series * x2 + coefficient
    return series / x + 0.5 * _LOG_2PI + (x - 0.5) * np.log(x) - x


def _poisson_ptrs(mean: float, doubles: np.ndarray) -> np.ndarray:
    """numpy's PTRS sampler (Hoermann 1993, mean >= 10) for the two rejection
    rounds one Philox block holds: (U, V) from words 0-1, then words 2-3.
    Returns the counts, with -1 where a shot needs numpy's own draw."""
    slam, loglam = math.sqrt(mean), math.log(mean)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_invalpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2)
    counts = np.full(doubles.shape[1], -1, dtype=np.int64)
    pending = np.arange(doubles.shape[1])
    for u_word, v_word in ((0, 1), (2, 3)):
        U = doubles[u_word, pending] - 0.5
        V = doubles[v_word, pending]
        us = 0.5 - np.abs(U)
        wide = us >= 0.013  # below it numpy rejects V > us whatever k is
        k = np.floor((2 * a / np.where(wide, us, 1.0) + b) * U + mean + 0.43)
        accept = (us >= 0.07) & (V <= vr)
        reject = ~accept & np.where(wide, k < 0, V > us)
        squeeze = wide & ~accept & ~reject & (k >= 6)
        s, ks = np.flatnonzero(squeeze), k[squeeze]
        with np.errstate(divide="ignore"):  # V = 0 gives log 0 = -inf, as in numpy
            lhs = np.log(V[s]) + log_invalpha - np.log(a / (us[s] * us[s]) + b)
        lgam = _loggam(ks + 1.0)
        rhs = -mean + ks * loglam - lgam
        margin = _SQUEEZE_MARGIN * (mean + ks * abs(loglam) + lgam + np.abs(lhs) + 1.0)
        accept[s] = lhs <= rhs - margin
        reject[s] = lhs > rhs + margin
        counts[pending[accept]] = k[accept]
        pending = pending[reject]
    return counts


def _poisson_shots(mean: float, seed: int, shots: np.ndarray, det: int) -> np.ndarray:
    """First Poisson(mean) draw of each shot's fresh Philox state, -1 where the
    arrays leave it to numpy's own draw (every shot of a mean below 10)."""
    if mean < 10.0:
        return np.full(shots.size, -1, dtype=np.int64)
    return _poisson_ptrs(mean, _philox_doubles(seed, shots, det))


def sample_shots(
    splitter: BeamSplitter,
    reference: ReferencePulse,
    cl_field: CoherentField | None,
    *,
    n_shots: int,
    seed: int,
    qe1: float = 1.0,
    qe2: float = 1.0,
) -> ShotEnsemble:
    """Poisson photocounts per shot from counter-based streams.

    Shot k of detector d (1 or 2) is the first `Generator.poisson(mean)` draw
    of a fresh `Philox(key=seed, counter=[0, 0, k, d])`, so any shot is
    reproducible independently of the others and the two detector streams
    never overlap.  Quantum efficiency thins the Poisson mean.

    For a mean of 10 or more the draws are computed whole-array,
    `_SHOT_BLOCK` shots at a time: the Philox blocks in numpy integer
    arithmetic, then the first two rounds of numpy's own PTRS sampler on
    them.  A shot those arrays cannot decide exactly (a squeeze test within
    rounding of its bound, a count below 6, a third PTRS round), and every
    shot of a mean below 10, gets the scalar draw itself.
    The stream is the one a per-draw loop gives, bit for bit; if a numpy
    release changes its Poisson algorithm,
    `test_stream_matches_a_fresh_generator_per_draw` is the arbiter.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    mu1, mu2 = detector_means(splitter, reference, cl_field, qe1, qe2)
    if max(mu1, mu2) > _MEAN_OVERFLOW:
        raise PhysicsGuardError(
            f"detector mean {max(mu1, mu2):.3e} exceeds {_MEAN_OVERFLOW:g} counts"
        )
    seed = int(seed)  # the key words are split with Python integers
    counts = np.empty((2, n_shots), dtype=np.int64)
    # One generator whose state is reset before each scalar draw: a fresh
    # Philox state (empty buffer) at counter (0, 0, shot, det) draws exactly
    # what a newly built Philox(key=seed, counter=...) would.
    bitgen = Philox(key=seed)
    gen = Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    for det, mean, out in ((1, mu1, counts[0]), (2, mu2, counts[1])):
        for start in range(0, n_shots, _SHOT_BLOCK):
            shots = np.arange(start, min(start + _SHOT_BLOCK, n_shots), dtype=np.uint64)
            drawn = _poisson_shots(mean, seed, shots, det)
            for i in np.flatnonzero(drawn < 0):
                counter[2:] = shots[i], det
                bitgen.state = state
                drawn[i] = gen.poisson(mean)
            out[start : start + shots.size] = drawn
    return ShotEnsemble(counts[0], counts[1], seed)


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
    otherwise).  The alpha-weighted double sums over (n, m) are evaluated as
    Toeplitz and Hankel sums by FFT convolution (`DensitySpectrum.pair_values`).
    """
    w = reference.omega_grid
    dw = reference.domega
    alpha = reference.alpha
    g = np.asarray(coupling_amplitude(model, w), dtype=complex)
    f_on_grid = spectrum.value_at(w)
    f_diff, f_sum = spectrum.pair_values(w)

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

    reference_shot = abs_k2 * float(np.sum(np.abs(alpha) ** 2) * dw)
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
        is_balanced=p == 0.0,
    )
