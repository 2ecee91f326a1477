"""Coherence spectra of the electron density and the coherent CL field.

PHYSICS SCOPE: the degree of optical coherence of cathodoluminescence emitted
by a temporally shaped electron is governed by the Fourier transform of the
comoving density,

    F(omega) = integral rho(t) e^{+i omega t} dt,        DOC(omega) = |F(omega)|^2,

with F(0) = 1, F(-omega) = conj F(omega), |F| <= 1.  For a pure ladder state
the harmonics are sideband overlaps, F(n omega0) = sum_j c*_j c_{j+n}.  The
emitted mode at frequency omega acquires mean amplitude <a_omega> =
g_omega F(omega) -- exactly, at any coupling strength -- and the full counting
statistics follow from F evaluated at sums and differences of frequencies:

    <(a - <a>)^N>       = g^N sum_k C(N,k) (-F(omega))^{N-k} F(k omega),
    <a+_w a_w'>         = conj(g_w) g_w' F(w' - w),
    <a_w a_w'>          = g_w g_w' F(w + w').

Routes to F: `ladder_spectrum` on the harmonic lattice; `band_spectrum`, the
production route, in closed form on a sampled density's lattice cut to a band;
`density_spectrum`, the FFT of a synthesized density on the same padded
lattice (`SamplingLattice`), whole or cut to a band, kept as the independent
cross-check (doc-slice and the tests).  Asked for every s-th bin only, it transforms the
padded density summed modulo n/s, n/s points instead of n: sampling the DFT
in frequency aliases the sequence in time (Oppenheim & Schafer,
Discrete-Time Signal Processing, sec. 8.4).  doc-slice reads its harmonics
from one period of samples, summed over the periods.

UNITS: rad/fs frequencies, fs times.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft, rfft

from .constants import TWO_PI
from .coupling import CouplingModel, coupling_amplitude
from .errors import GridCoverageError, PhysicsGuardError
from .estate import EnvelopeSpec, LadderState, WavepacketDensity
from .estate import propagation_phase, sampling_lattice

_F0_TOL = 1.0e-8
_HERMITIAN_TOL = 1.0e-10
_MODULUS_TOL = 1.0e-9
_GRID_SNAP_TOL = 1.0e-6  # in units of one grid step

_UNIFORM_TOL = 1.0e-9  # relative spread of grid steps
# Distances per doc_map block: bounds its amplitudes and per-harmonic products
# (~50 B per level and distance) instead of holding them for the whole scan.
_DOC_MAP_BLOCK = 256


def _require_uniform(x: np.ndarray, what: str) -> None:
    """Raise ValueError unless x is a 1-D ascending grid of >= 2 points whose
    steps agree to 1e-9 relative."""
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{what} must be a 1-D grid of at least 2 points")
    # max|steps - s0| is the larger of max(steps) - s0 and s0 - min(steps), since rounding
    # is monotone: one temporary, the steps.  A NaN step trips it.
    steps = np.diff(x)
    s0, tol = steps[0], _UNIFORM_TOL * steps[0]
    if not (s0 > 0.0 and np.max(steps) - s0 <= tol and s0 - np.min(steps) <= tol):
        raise ValueError(f"{what} must be uniform and ascending")


def _mean_step(x: np.ndarray) -> float:
    """Endpoint-based mean step of a uniform grid: immune to the per-element
    rounding jitter of FFT-generated grids, which can reach ~1e-5 local steps
    far from 0."""
    return float((x[-1] - x[0]) / (x.size - 1))


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth length >= n (n >= 1), the complex-FFT length
    scipy.fft.next_fast_len picks."""
    while True:
        r = n
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two complex 1-D sequences by zero-padded FFT."""
    n = a.size + b.size - 1
    n_fft = _next_fast_len(n)
    return ifft(fft(a, n_fft) * fft(b, n_fft))[:n]


@dataclass(frozen=True, eq=False)
class DensitySpectrum:
    """F(omega) sampled on a uniform frequency lattice containing omega = 0.

    Values off the lattice are never interpolated; lookups snap to the nearest
    point and raise GridCoverageError beyond a 1e-6-step mismatch.
    """

    omega_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.omega_grid, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "omega_grid", w)
        object.__setattr__(self, "values", v)
        if w.ndim != 1 or w.size < 3 or v.shape != w.shape:
            raise ValueError("omega_grid and values must be matching 1-D arrays")
        _require_uniform(w, "omega_grid")
        step = w[1] - w[0]
        i0 = int(np.searchsorted(w, 0.0))  # the point nearest 0 is this one or the one before
        if i0 == w.size or (i0 > 0 and abs(w[i0 - 1]) <= abs(w[i0])):
            i0 -= 1
        if abs(w[i0]) > 1.0e-9 * step:
            raise ValueError("omega_grid must contain omega = 0")
        if not abs(v[i0] - 1.0) <= _F0_TOL:  # `not (err <= tol)`: a NaN trips it
            raise PhysicsGuardError(f"F(0) = {v[i0]!r} deviates from 1 beyond {_F0_TOL:g}")
        # Hermitian symmetry F(-w) = conj F(w) on every +/- pair in the grid, in one buffer
        m = min(i0, w.size - 1 - i0)
        if m:
            diff = np.conjugate(v[i0 + 1 : i0 + 1 + m])
            np.subtract(v[i0 - 1 :: -1][:m], diff, out=diff)
            if not np.max(np.abs(diff)) <= _HERMITIAN_TOL:
                raise PhysicsGuardError("spectrum violates Hermitian symmetry")
        if not np.max(np.abs(v)) <= 1.0 + _MODULUS_TOL:
            raise PhysicsGuardError("|F| exceeds 1 beyond tolerance")

    @property
    def domega(self) -> float:
        return _mean_step(self.omega_grid)

    def _indices(self, omega) -> np.ndarray:
        x = (np.asarray(omega, dtype=float) - self.omega_grid[0]) / self.domega
        idx = np.rint(x)
        with np.errstate(invalid="ignore"):  # a non-finite omega misses by NaN
            miss = np.abs(x - idx)
        if not np.all(miss <= _GRID_SNAP_TOL):
            worst = np.asarray(omega, dtype=float).flat[int(np.argmax(miss))]
            raise GridCoverageError(
                f"omega = {worst!r} rad/fs is {np.max(miss):.3e} grid steps off the "
                f"spectral lattice (step {self.domega:g})"
            )
        if not np.all((idx >= 0) & (idx <= self.omega_grid.size - 1)):
            raise GridCoverageError(
                "requested frequency lies outside the covered spectral range "
                f"[{self.omega_grid[0]:g}, {self.omega_grid[-1]:g}] rad/fs"
            )
        return idx.astype(np.intp)

    def value_at(self, omega):
        """F at one or many lattice frequencies (snap within 1e-6 steps)."""
        out = self.values[self._indices(omega)]
        return complex(out) if np.isscalar(omega) else out


def density_spectrum(
    density: WavepacketDensity, max_omega: float | None = None, step: int = 1
) -> DensitySpectrum:
    """FFT of a density on its padded lattice, normalized to F(0) = 1, cut to
    |omega| <= max_omega (None: all) and to every step-th bin, k = 0 (mod step).

    `step` must divide the padded length n (else ValueError): bin step*j of the
    n-point DFT is bin j of the (n/step)-point DFT of the padded density summed
    modulo n/step, so only that fold is transformed.

    Working set: the fold (n/step floats) and its rfft (n/(2 step) complex),
    then a copy of the bins read and the lattice arrays, which are built once
    the fold and the rfft are gone.  No reference to the density is held past
    the fold: a caller that hands over its only one frees the N samples before
    the transform.
    """
    rho, lattice, dt = density.samples, density.lattice, density.dt
    del density
    n_fft, pad = lattice.n_fft, lattice.pad
    if not (1 <= step <= n_fft and n_fft % step == 0):
        raise ValueError(f"step {step!r} must divide the padded length {n_fft}")
    top = math.inf if max_omega is None else max_omega
    if not top > 0.0:  # a NaN trips it
        raise ValueError("max_omega must be positive (rad/fs)")
    m = n_fft // step
    if m < rho.size:  # fold the density, whose zero padding adds nothing to the sums
        whole, rest = divmod(rho.size, m)
        folded = rho[: whole * m].reshape(whole, m).sum(axis=0)
        folded[:rest] += rho[whole * m :]
        rho = folded
        del folded
    # the bins |k|/step read: up to top/(2 pi val step), val = 1/(n_fft dt), and one more
    reach = math.floor(min(top * (n_fft * dt) / (TWO_PI * step), m)) + 1
    r = rfft(rho, n=m)[: reach + 1].copy()
    del rho  # the fold
    k, omega = lattice.frequencies(-top, top, step)
    # F_k = n_fft dt ifft(rho)_k e^{i w_k t0}, and w_k t0 = -pi k/pad: a table of 2 pad phases.
    # rho is real: ifft(rho)_k = conj(rfft(rho)_k) / n_fft for k >= 0, its conjugate at -k.
    r = r[np.abs(k) // step]
    phase = np.exp(-1j * np.pi / pad * np.arange(2 * pad))
    values = np.where(k >= 0, np.conj(r), r) / n_fft * (n_fft * dt) * phase[k % (2 * pad)]
    return DensitySpectrum(omega, values)


def band_spectrum(
    state: LadderState, envelope: EnvelopeSpec, low: float, high: float
) -> DensitySpectrum:
    """F in closed form on the lattice (and with the guards, `sampling_lattice`)
    of density_spectrum(synthesize_density(state, envelope)), cut to
    low <= omega <= high, a range that holds omega = 0 (else ValueError).  With
    L_n = ladder_overlap(state, n), |n| <= 2J:

    gaussian |f|^2 of FWHM D:  F(w) = sum_n L_n e^{-a (w - n w0)^2} / sum_n L_n e^{-a (n w0)^2},
    a = D^2 / (16 ln 2), each line summed only where it does not underflow to 0;
    infinite:  L_n / L_0 at the lattice's harmonics, 0 elsewhere.
    """
    if not low <= 0.0 <= high:  # a NaN trips it
        raise ValueError("the range low..high must hold omega = 0 (rad/fs)")
    lattice = sampling_lattice(state.beam, envelope, state.cutoff)
    k, omega = lattice.frequencies(low, high)

    n_max = 2 * state.cutoff
    lines = ladder_spectrum(state, n_max)  # L_n at n omega0, n = -n_max..n_max
    values = np.zeros(omega.size, dtype=complex)
    if envelope.kind == "infinite":  # harmonic n sits at k = n per, index n per - k[0]
        per, k0 = lattice.periods * lattice.pad, int(k[0])
        n = np.arange(max(-n_max, -(-k0 // per)), min(n_max, int(k[-1]) // per) + 1)
        values[n * per - k0] = lines.values[n + n_max]
    else:
        a = envelope.fwhm_fs**2 / (16.0 * math.log(2.0))
        reach = math.sqrt(746.0 / a)  # exp(-x) is exactly 0.0 in float64 for x > 745.14
        for center, line in zip(lines.omega_grid, lines.values):
            lo, hi = np.searchsorted(omega, (center - reach, center + reach))
            values[lo:hi] += line * np.exp(-a * (omega[lo:hi] - center) ** 2)
    values /= values[np.searchsorted(k, 0)]
    return DensitySpectrum(omega, values)


def ladder_overlap(state: LadderState, harmonic: int) -> complex:
    """F(n omega0) = sum_j c*_j c_{j+n} directly from ladder amplitudes."""
    c = state.coefficients
    n = int(harmonic)
    if abs(n) > 2 * state.cutoff:
        raise ValueError(f"|harmonic| must be <= {2 * state.cutoff}")
    if n < 0:
        return complex(np.conj(ladder_overlap(state, -n)))
    return complex(np.vdot(c[: c.size - n], c[n:]))


def ladder_spectrum(state: LadderState, n_max: int | None = None) -> DensitySpectrum:
    """Spectrum on the harmonic lattice n*omega0, |n| <= n_max (default 2J)."""
    if n_max is None:
        n_max = 2 * state.cutoff
    n_max = int(n_max)
    if not 0 < n_max <= 2 * state.cutoff:
        raise ValueError("need 0 < n_max <= 2*cutoff")
    pos = np.array([ladder_overlap(state, n) for n in range(n_max + 1)])
    vals = np.concatenate([np.conj(pos[1:][::-1]), pos])
    grid = np.arange(-n_max, n_max + 1) * state.beam.omega0
    return DensitySpectrum(grid, vals)


def doc(spectrum: DensitySpectrum, omega) -> float | np.ndarray:
    """Degree of coherence |F(omega)|^2 at lattice frequencies."""
    v = spectrum.value_at(omega)
    out = np.abs(np.asarray(v)) ** 2
    return float(out) if np.isscalar(omega) else out


def doc_map(
    state: LadderState,
    distances: np.ndarray,
    n_max: int | None = None,
    mode: str = "exact",
) -> np.ndarray:
    """DOC(n omega0; d) for harmonics n = 0..n_max over extra distances d (nm).

    Returns an (n_max+1, len(distances)) array; row n is harmonic n.  Distances
    are measured from the state's current plane.  The amplitudes and products
    are built for about `_DOC_MAP_BLOCK` distances at a time.
    """
    d = np.asarray(distances, dtype=float)
    if not np.all((d >= 0.0) & (d < math.inf)):  # a NaN trips it
        raise ValueError("distances must be non-negative and finite (nm)")
    if n_max is None:
        n_max = 2 * state.cutoff
    n_max = int(min(n_max, 2 * state.cutoff))
    out = np.empty((n_max + 1, d.size))
    c = state.coefficients[:, None]
    start = 0
    # ceil(n/B) near-equal blocks: none is one distance wide unless d is, since
    # numpy sums a one-column block's level axis pairwise rather than row by row
    # and the last bit of its DOC would then depend on the blocking.
    for block in np.array_split(d, max(1, -(-d.size // _DOC_MAP_BLOCK))):
        amp = c * propagation_phase(state.beam, state.level_indices, block, mode)
        cols = slice(start, start + block.size)
        for n in range(n_max + 1):
            b = np.sum(np.conj(amp[: amp.shape[0] - n]) * amp[n:], axis=0)
            out[n, cols] = np.abs(b) ** 2
        start += block.size
    return out


def spectral_width(doc_by_harmonic: np.ndarray, threshold: float = 0.01):
    """Largest harmonic n with DOC >= threshold.

    Accepts a 1-D array indexed by n or a (n, d) matrix (per-column widths,
    built one harmonic at a time, so no temporary of the matrix's size).
    """
    doc = np.asarray(doc_by_harmonic)
    width = np.zeros(doc.shape[1:], dtype=np.intp)
    for n, row in enumerate(doc):
        width[row >= threshold] = n
    return width[()]  # a scalar for a 1-D array


@dataclass(frozen=True)
class BunchingOptimum:
    """Result of the spectral-width distance scan."""

    distance: float  # nm
    width: int
    tiebreak_value: float
    coarse_distances: np.ndarray
    coarse_widths: np.ndarray
    coarse_doc: np.ndarray  # DOC(n w0; d) for n = 0..n_scan on coarse_distances


def optimal_bunching_distance(
    state: LadderState,
    *,
    d_min: float,
    d_max: float,
    coarse_step: float,
    refine_tol: float,
    threshold: float,
    n_scan: int,
    mode: str = "exact",
) -> BunchingOptimum:
    """Distance from the state's plane maximizing the spectral width
    W(d) = max{n : DOC(n w0; d) >= threshold}.

    W is integer-valued and typically plateaus at its maximum; within the
    plateau the scalar tiebreak S(d) = sum_{n>=1} sqrt(DOC(n w0; d)) -- the
    total coherent amplitude across the comb -- is maximized by golden-section
    search down to refine_tol (nm).
    """
    n_scan = int(min(n_scan, 2 * state.cutoff))
    d = np.arange(d_min, d_max + 0.5 * coarse_step, coarse_step)
    if d.size < 3:
        raise ValueError("distance range too small for the coarse scan")
    docm = doc_map(state, d, n_max=n_scan, mode=mode)
    widths = spectral_width(docm, threshold)
    sums = np.zeros(d.size)  # row by row, in the order of np.sum(np.sqrt(docm[1:]), axis=0)
    for row in docm[1:]:
        sums += np.sqrt(row)
    w_max = int(np.max(widths))
    on_plateau = widths == w_max
    i_best = int(np.argmax(np.where(on_plateau, sums, -np.inf)))
    lo = i_best
    while lo > 0 and on_plateau[lo - 1]:
        lo -= 1
    hi = i_best
    while hi < d.size - 1 and on_plateau[hi + 1]:
        hi += 1
    a = max(d_min, d[lo] - coarse_step)
    b = min(d_max, d[hi] + coarse_step)

    def tiebreak(dist: float) -> float:
        col = doc_map(state, np.array([dist]), n_max=n_scan, mode=mode)[:, 0]
        return float(np.sum(np.sqrt(col[1:])))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = tiebreak(x1), tiebreak(x2)
    while (b - a) > refine_tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = tiebreak(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = tiebreak(x1)
    d_opt = 0.5 * (a + b)
    col = doc_map(state, np.array([d_opt]), n_max=n_scan, mode=mode)[:, 0]
    return BunchingOptimum(
        distance=float(d_opt),
        width=int(spectral_width(col, threshold)),
        tiebreak_value=float(np.sum(np.sqrt(col[1:]))),
        coarse_distances=d,
        coarse_widths=widths,
        coarse_doc=docm,
    )


@dataclass(frozen=True, eq=False)
class CoherentField:
    """Mean CL field amplitude <a_omega> = g(omega) F(omega) on omega > 0."""

    omega_grid: np.ndarray
    a_mean: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.omega_grid, dtype=float)
        a = np.asarray(self.a_mean, dtype=complex)
        object.__setattr__(self, "omega_grid", w)
        object.__setattr__(self, "a_mean", a)
        if w.ndim != 1 or a.shape != w.shape:
            raise ValueError("omega_grid and a_mean must be matching 1-D arrays")
        if not np.all(w > 0.0):  # a NaN trips it
            raise ValueError("CoherentField lives on omega > 0")

    @property
    def domega(self) -> float:
        return _mean_step(self.omega_grid)


def mean_field(
    model: CouplingModel,
    spectrum: DensitySpectrum,
    band: tuple[float, float] | None = None,
) -> CoherentField:
    """<a_omega> on the positive-frequency part of the spectral lattice.

    `band` restricts to band[0] <= omega <= band[1].  A sampled spectrum's
    full lattice can hold millions of points; `band_spectrum` builds only the
    part of that lattice a band and its sum frequencies need.
    """
    w = spectrum.omega_grid
    mask = w > 0.0
    if band is not None:
        lo, hi = band
        if not (0.0 <= lo < hi):
            raise ValueError("band must satisfy 0 <= lo < hi")
        mask &= (w >= lo) & (w <= hi)
    if not np.any(mask):
        raise ValueError("band selects no positive lattice frequencies")
    wsel = w[mask]
    g = np.asarray(coupling_amplitude(model, wsel), dtype=complex)
    cap = np.abs(g) * (1.0 + _MODULUS_TOL) + 1.0e-300
    a = g * spectrum.values[mask]
    if not np.all(np.abs(a) <= cap):
        raise PhysicsGuardError("|<a>| exceeds |g|; corrupted spectrum")
    return CoherentField(wsel, a)


def mean_photon_number(model: CouplingModel, omega):
    """<n_omega> = |g(omega)|^2 per unit angular frequency: DOC-independent."""
    g = coupling_amplitude(model, omega)
    out = np.abs(np.asarray(g)) ** 2
    return float(out) if np.isscalar(omega) else out


def central_moment(
    model: CouplingModel, spectrum: DensitySpectrum, omega: float, order: int
) -> complex:
    """<(a_omega - <a_omega>)^order> for 1 <= order <= 8.

    Requires every multiple k*omega (k = 0..order) to lie on the spectral
    lattice; raises GridCoverageError otherwise rather than interpolating.
    """
    order = int(order)
    if not 1 <= order <= 8:
        raise ValueError("order must be in 1..8")
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    g = complex(coupling_amplitude(model, omega))
    f = spectrum.value_at(np.arange(order + 1) * omega).tolist()  # F(k omega), k = 0..order
    total = 0.0 + 0.0j
    for k, f_k in enumerate(f):
        total += math.comb(order, k) * f_k * (-f[1]) ** (order - k)
    return g**order * total


@dataclass(frozen=True)
class PairCorrelation:
    normal: complex  # <a+_w a_w'>
    anomalous: complex  # <a_w a_w'>


def pair_correlation(
    model: CouplingModel, spectrum: DensitySpectrum, omega: float, omega_prime: float
) -> PairCorrelation:
    """Two-frequency correlators of the CL field."""
    if not (omega > 0.0 and omega_prime > 0.0):
        raise ValueError("frequencies must be positive")
    g_w = complex(coupling_amplitude(model, omega))
    g_wp = complex(coupling_amplitude(model, omega_prime))
    normal = np.conj(g_w) * g_wp * spectrum.value_at(omega_prime - omega)
    anomalous = g_w * g_wp * spectrum.value_at(omega + omega_prime)
    return PairCorrelation(complex(normal), complex(anomalous))


def _fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum of the main lobe, linear interpolation.

    Returns nan when the peak is not finite or the curve never drops below
    half maximum inside the grid.
    """
    i0 = int(np.argmax(y))
    half = y[i0] / 2.0
    below_left = np.nonzero(y[: i0 + 1] < half)[0]
    below_right = np.nonzero(y[i0:] < half)[0]
    if not np.isfinite(half) or below_left.size == 0 or below_right.size == 0:
        return float("nan")
    il = below_left[-1]
    x_left = x[il] + (x[il + 1] - x[il]) * (half - y[il]) / (y[il + 1] - y[il])
    ir = i0 + below_right[0]
    x_right = x[ir - 1] + (x[ir] - x[ir - 1]) * (half - y[ir - 1]) / (y[ir] - y[ir - 1])
    return float(x_right - x_left)


@dataclass(frozen=True, eq=False)
class TimeDomainField:
    """E(t) = (d omega / 2 pi) sum_k <a_k> e^{-i omega_k t} and its widths."""

    t: np.ndarray
    values: np.ndarray
    fwhm_envelope: float
    fwhm_intensity: float


def time_domain_field(field: CoherentField, t: np.ndarray) -> TimeDomainField:
    """Coherent temporal field from the spectral amplitudes at the times t.

    Both the field's omega grid and t must be uniform and ascending (steps
    equal to 1e-9 relative; ValueError otherwise): the uniform-to-uniform DFT
    is then one chirp-z transform (Rabiner, Schafer & Rader 1969), evaluated
    as Bluestein's FFT convolution in O((N + M) log(N + M)) for N frequencies
    and M times.
    """
    w = field.omega_grid
    _require_uniform(w, "field omega_grid")
    dw = field.domega
    t = np.asarray(t, dtype=float)
    _require_uniform(t, "t")
    n, m = w.size, t.size
    dt = _mean_step(t)
    # With w_k = w_c + p dw and t_j = t_c + q dt about the grid centres and
    # theta = dw dt, p q = (p^2 + q^2 - (q - p)^2) / 2 turns the sum over k
    # into a convolution with the chirp e^{i theta (q - p)^2 / 2}.  Centring
    # both grids keeps the chirp phases, and so their round-off, small.
    p = np.arange(n) - 0.5 * (n - 1)
    q = np.arange(m) - 0.5 * (m - 1)
    w_c = 0.5 * (w[0] + w[-1])
    t_c = 0.5 * (t[0] + t[-1])
    theta = dw * dt
    x = field.a_mean * np.exp(-1j * p * (dw * t_c + 0.5 * theta * p))
    r = np.arange(1 - n, m) - 0.5 * (m - n)  # every q - p, in convolution order
    conv = fft_convolve(x, np.exp(0.5j * theta * r * r))[n - 1 : n - 1 + m]
    out = (dw / TWO_PI) * np.exp(-1j * (w_c * t + 0.5 * theta * q * q)) * conv
    env = np.abs(out)
    return TimeDomainField(
        t=t,
        values=out,
        fwhm_envelope=_fwhm(t, env),
        fwhm_intensity=_fwhm(t, env**2),
    )
