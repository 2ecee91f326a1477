"""Truncated-Hilbert-space oracle for the analytic coherence formulas.

The measured side (`evolve`, `observables`) uses no closed form; each check's
expected side is the library's own prediction (`spectra.mean_field`,
`mean_photon_number`, `central_moment`, `pair_correlation`, `doc`).  On the
electron-ladder (x) photon-Fock product space the oracle applies the
interaction unitary U = exp(G) with the anti-Hermitian generator

    G = sum_modes g (B_n (x) a+) - conj(g) (B_n^T (x) a),

where B_n lowers the electron ladder index by the mode's harmonic n (photon
emission at n omega0 costs the electron n quanta), and measures observables
by direct operator application on the evolved state.  Agreement with
the predictions (mean field g F, invariant mean photon number |g|^2, central
moments, pair correlations) and with energy bookkeeping validates both routes.

exp(G)v is summed as a Chebyshev series (Tal-Ezer & Kosloff, J. Chem. Phys.
81, 3967, 1984).  With G = iH, H Hermitian, the Jacobi-Anger expansion
e^{i rho x} = J_0(rho) + 2 sum_k i^k J_k(rho) T_k(x) on |x| <= 1 gives

    exp(G) v = J_0(rho) v + 2 sum_{k>=1} J_k(rho) psi_k,
    psi_0 = v,  psi_1 = G v / rho,  psi_{k+1} = (2 G / rho) psi_k + psi_{k-1},

where psi_k = i^k T_k(H / rho) v, so every coefficient is real and the
recurrence runs on G itself.  rho is the Gershgorin bound sum_i |g_i|
(sqrt(N_i - 1) + sqrt(N_i)) on the spectrum of H for photon cutoffs N_i; it
depends on the space alone, so a K-window and the whole space sum the same
terms.  The term count K is fixed beforehand from |J_k(rho)| <= (rho/2)^k /
k!: the discarded tail lies below the unit round-off, so there is no
convergence test to fail and no tolerance to set.  The J_k(rho) come from
`estate.bessel_ladder`; a non-finite coupling is refused before the series
starts.  The tests cross-check the series against scipy's expm_multiply and a
dense expm of G, which they build on `_basis`; no scipy here.

G conserves K = j + sum_modes n * (photons in the mode), and the ladder puts
c_K on one state of each sector, |j = K, vacuum>.  So exp(G) v0 = c_K u with
u = exp(G) s, s the sum of those states over the occupied sectors (nonzero
c_j): one series per space and sector set, whatever the c_j, in float64 when
every g is real.  Each a_i only lowers K, by h_i, so every observable lies in
the window of sectors [K_min - max h_i, K_max] around the occupied ones.
`evolve` runs the series on that window's states (`_basis`, cached per space
shape and window) and returns the state there (`OracleState`); the margin and
any empty sector between occupied ones stay exactly 0, and nothing here builds
a vector of the whole space.  On the basis G is a pattern of padded rows, two
slots per mode, slot-major, so that a matvec is one gather, one product and a
sum over the slots; a_i is one gather times sqrt(n_i + 1).

`evolve` and `observables` make no BLAS call: no `@`, no `vdot`, no default
2-norm.  The matvec, inner products and norms are reduced elementwise (see
`_dot`).  On vectors of the two-mode spaces' length a BLAS call hands the
work to OpenBLAS's worker threads, which then spin between calls: they
doubled the oracle's CPU time at unchanged wall time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .errors import OracleMismatchError, PhysicsGuardError
from .estate import LadderState, bessel_ladder, pinem_ladder, propagate
from .coupling import FlatCoupling
from .kinematics import BeamParameters
from .spectra import central_moment, doc, ladder_spectrum, mean_field, mean_photon_number
from .spectra import pair_correlation

_DIMENSION_LIMIT = 20000
_ELECTRON_MARGIN = 5  # electron levels beyond the worst-case photon recoil
_NORM_TOL = 1.0e-10
_LEAK_TOL = 1.0e-8

DEFAULT_PHOTON_CUTOFF = 12
_MATRIX_TOL = 1.0e-6


@dataclass(frozen=True)
class OracleMode:
    """One photon mode at harmonic n * omega0 with coupling amplitude g."""

    harmonic: int
    g: complex
    photon_cutoff: int = DEFAULT_PHOTON_CUTOFF

    def __post_init__(self) -> None:
        if self.harmonic < 1:
            raise ValueError("harmonic must be >= 1")
        if self.photon_cutoff < 1:
            raise ValueError("photon_cutoff must be >= 1")


@dataclass(frozen=True)
class TruncatedSpace:
    """Electron levels -M..+M tensored with one Fock space per mode.  `evolve`
    keeps its seed series here, one per sector set, for the object's lifetime."""

    electron_halfwidth: int
    modes: tuple[OracleMode, ...]
    _series: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.electron_halfwidth < 1:
            raise ValueError("electron_halfwidth must be >= 1")
        if not self.modes:
            raise ValueError("need at least one mode")
        object.__setattr__(self, "modes", tuple(self.modes))
        harmonics = [m.harmonic for m in self.modes]
        if len(set(harmonics)) < len(harmonics):  # observables key each mode by its harmonic
            twice = next(h for h in harmonics if harmonics.count(h) > 1)
            raise ValueError(f"two modes at harmonic {twice}: each needs its own harmonic")
        if self.dimension > _DIMENSION_LIMIT:
            raise PhysicsGuardError(
                f"truncated space dimension {self.dimension} exceeds {_DIMENSION_LIMIT}"
            )

    @property
    def electron_dim(self) -> int:
        return 2 * self.electron_halfwidth + 1

    @property
    def photon_dims(self) -> tuple[int, ...]:
        return tuple(m.photon_cutoff + 1 for m in self.modes)

    @property
    def dimension(self) -> int:
        return self.electron_dim * int(np.prod(self.photon_dims))

    @classmethod
    def for_ladder(cls, ladder_cutoff: int, modes: tuple[OracleMode, ...]) -> "TruncatedSpace":
        """Electron half-width covering the ladder plus the worst-case photon
        recoil N_max * max harmonic, plus a safety margin."""
        n_max = max(m.photon_cutoff for m in modes)
        h_max = max(m.harmonic for m in modes)
        return cls(ladder_cutoff + n_max * h_max + _ELECTRON_MARGIN, tuple(modes))


class Basis(NamedTuple):
    """The states of a K-window and the operators on them (`_basis`)."""

    states: np.ndarray  # ascending full-space indices
    k: np.ndarray  # K of each state
    cols: np.ndarray  # G's pattern, slot-major: cols, sqrt_n, term
    sqrt_n: np.ndarray
    term: np.ndarray
    sources: np.ndarray  # a_i x = ratios[i] * x[sources[i]]
    ratios: np.ndarray


@lru_cache(maxsize=2)  # one |beta| of the matrix: one window per mode set
def _basis(electron_dim: int, harmonics: tuple, photon_dims: tuple, low: int, top: int) -> Basis:
    """The states whose K = j + sum_i h_i n_i lies in low..top, with G and each
    a_i on them; read-only, shared by every space of this shape.

    G conserves K, so these states are closed under it.  Its pattern is
    fixed-width padded rows: row r holds G[r, cols[s, r]] = sqrt_n[s, r] *
    coef[term[s]] in slot s, with coef = (g_0, -conj g_0, g_1, -conj g_1, ...).
    Each mode gives every row two slots, the diagonals col - row = +-(h *
    stride_electron - stride_i) of the full space: a photon created (the raising
    operator B_h (x) a_i+ maps |j + h, n_i - 1> to sqrt(n_i) |j, n_i>) and one
    absorbed.  The slots run in ascending column order; one whose neighbour lies
    outside the space is padding, sqrt_n = 0 at the row's own column.  a_i
    lowers K by h_i: sources[i] is the state one photon up, ratios[i] its
    sqrt(n_i + 1), 0 where that state lies above the top Fock level or the window.
    """
    photons = math.prod(photon_dims)
    k = _sector_labels(electron_dim, harmonics, photon_dims)
    states = np.flatnonzero((low <= k) & (k <= top))
    k = k[states]
    local = np.zeros(electron_dim * photons, dtype=np.intp)
    local[states] = np.arange(states.size)
    electron = states // photons
    slots, sources, ratios = [], [], []
    for i, (h, n_dim) in enumerate(zip(harmonics, photon_dims)):
        stride = math.prod(photon_dims[i + 1 :])
        offset = h * photons - stride
        n = states // stride % n_dim
        slots.append((-offset, 2 * i + 1, (n < n_dim - 1) & (electron >= h), np.sqrt(n + 1)))
        slots.append((offset, 2 * i, (n > 0) & (electron + h < electron_dim), np.sqrt(n)))
        up = (n < n_dim - 1) & (k + h <= top)
        sources.append(local[np.where(up, states + stride, states)])
        ratios.append(np.where(up, np.sqrt(n + 1.0), 0.0))
    slots.sort(key=lambda slot: slot[0])
    cols = np.stack([local[np.where(ok, states + d, states)] for d, _, ok, _ in slots])
    sqrt_n = np.stack([np.where(ok, s, 0.0) for _, _, ok, s in slots])
    term = np.array([t for _, t, _, _ in slots])
    return Basis(*_read_only(states, k, cols, sqrt_n, term, np.array(sources), np.array(ratios)))


def _read_only(*arrays: np.ndarray) -> tuple:
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _sector_labels(electron_dim: int, harmonics: tuple, photon_dims: tuple) -> np.ndarray:
    """K = j + sum_i h_i n_i of every state of the product space, flat."""
    k = np.arange(electron_dim) - (electron_dim - 1) // 2
    for h, n_dim in zip(harmonics, photon_dims):
        k = np.add.outer(k, h * np.arange(n_dim))
    return k.ravel()


def _shape(space: TruncatedSpace) -> tuple:
    return space.electron_dim, tuple(m.harmonic for m in space.modes), space.photon_dims


def _coefficients(space: TruncatedSpace) -> np.ndarray:
    """(g_0, -conj g_0, g_1, ...), float64 when every g is real, so that G is."""
    coef = np.array([c for m in space.modes for c in (m.g, -np.conj(m.g))], dtype=complex)
    return coef if coef.imag.any() else coef.real


def _spectral_bound(space: TruncatedSpace) -> float:
    """Gershgorin bound rho >= ||G||: a state's row holds |g_i| sqrt(n_i + 1) and
    |g_i| sqrt(n_i) per mode, largest at n_i = N_i - 1 for cutoff N_i."""
    return sum(
        abs(m.g) * (math.sqrt(m.photon_cutoff - 1) + math.sqrt(m.photon_cutoff))
        for m in space.modes
    )


def _series_terms(rho: float) -> int:
    """Chebyshev terms K after J_0 that leave a tail below the unit round-off:
    the smallest K with m = K + 1 >= rho and 4 (rho/2)^m / m! <= 2^-53.  From
    m >= rho on the bound |J_k(rho)| <= (rho/2)^k / k! at least halves per term,
    so the discarded 2 sum_{k>K} |J_k(rho)| is at most 4 (rho/2)^m / m!."""
    if rho == 0.0:
        return 0
    m = max(1, math.ceil(rho))
    while m * math.log(rho / 2.0) - math.lgamma(m + 1) > math.log(2.0**-55):
        m += 1
    return m - 1


def apply_unitary(space: TruncatedSpace, v: np.ndarray, basis: Basis) -> np.ndarray:
    """exp(G) v, `v` on the states of `basis`, by the Chebyshev series of the
    module docstring (real for a real `v` when every coupling is).  Raises
    PhysicsGuardError for a non-finite coupling, before the series starts."""
    rho = _spectral_bound(space)
    if not math.isfinite(rho):
        raise PhysicsGuardError(f"oracle coupling bound {rho!r} is not finite")
    cols, sqrt_n, term = basis.cols, basis.sqrt_n, basis.term
    terms = _series_terms(rho)
    bessel = bessel_ladder(rho, terms)[terms:]  # J_0 .. J_K
    coef = _coefficients(space)
    v = v.astype(np.result_type(v, coef), copy=False)
    out = bessel[0] * v
    if terms:
        values = sqrt_n * (coef[term, None] * (2.0 / rho))  # 2 G / rho
        previous, current = v, 0.5 * np.sum(values * v[cols], axis=0)
        out += 2.0 * bessel[1] * current
        for k in range(2, terms + 1):
            previous, current = current, np.sum(values * current[cols], axis=0) + previous
            out += 2.0 * bessel[k] * current
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b>, reduced elementwise rather than by BLAS (see the module docstring)."""
    return complex(np.sum(np.conj(a) * b))


@dataclass(frozen=True, eq=False)
class OracleState:
    """An evolved state on the K-window around the sectors it occupies (0 off
    the window): its basis, the amplitudes on the basis states and the
    population on each truncation boundary (`truncation_leakage`)."""

    basis: Basis
    amplitudes: np.ndarray
    leakage: dict


def evolve(space: TruncatedSpace, electron_coefficients: np.ndarray) -> OracleState:
    """Apply the interaction unitary to (ladder state, centred in the space) x
    (vacuum modes): c_K u on the window around the occupied sectors.  The seed
    series u of the module docstring is kept on `space`, read-only, per sector
    set: every ladder with the same nonzero c_j on this object reuses it.

    Raises ValueError for coefficients not 1-D of odd length or wider than the
    space's ladder; PhysicsGuardError for a non-finite coupling, when unitarity
    drifts beyond 1e-10 or when any truncation boundary (top Fock level, ladder
    edge) holds more than 1e-8 population -- enlarge the space rather than trust
    the result.
    """
    c = np.asarray(electron_coefficients, dtype=complex)
    if c.ndim != 1 or c.size % 2 != 1:
        raise ValueError("electron coefficients must be a 1-D array of odd length")
    if c.size // 2 > space.electron_halfwidth:
        raise ValueError("electron coefficients wider than the truncated ladder")
    half, h = c.size // 2, max(m.harmonic for m in space.modes)
    sectors = tuple((np.flatnonzero(c) - half).tolist())  # K = j of each nonzero c_j
    if sectors not in space._series:
        low, top = (sectors[0] - h, sectors[-1]) if sectors else (1, 0)  # no sector: no state
        basis = _basis(*_shape(space), low, top)
        vacuum = (np.array(sectors) + space.electron_halfwidth) * math.prod(space.photon_dims)
        seed = np.zeros(basis.states.size)
        seed[np.searchsorted(basis.states, vacuum)] = 1.0  # 1 on |j = K, vacuum>
        space._series[sectors] = (basis, *_read_only(apply_unitary(space, seed, basis)))
    basis, u = space._series[sectors]
    w = np.pad(c, (h, 0))[basis.k + half + h] * u  # c_K, 0 below the ladder
    norm = math.sqrt(_dot(w, w).real)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise PhysicsGuardError(f"evolved norm {norm!r} deviates from 1 beyond {_NORM_TOL:g}")
    leakage = truncation_leakage(space, basis, w)
    worst = float(np.max(list(leakage.values())))
    if not worst <= _LEAK_TOL:
        raise PhysicsGuardError(
            f"truncation boundary population {worst:.3e} exceeds {_LEAK_TOL:g}; "
            "increase electron_halfwidth or photon_cutoff"
        )
    return OracleState(basis, w, leakage)


def truncation_leakage(space: TruncatedSpace, basis: Basis, amplitudes: np.ndarray) -> dict:
    """Population stranded on each truncation boundary by `amplitudes` on the
    states of `basis`: the ladder's two edges, a prefix and a suffix of those
    ascending states, and each mode's top Fock level."""
    states = basis.states
    p = np.abs(amplitudes) ** 2
    stride = math.prod(space.photon_dims)  # of the electron index
    low, high = np.searchsorted(states, [stride, (space.electron_dim - 1) * stride])
    out = {"electron_low": float(np.sum(p[:low])), "electron_high": float(np.sum(p[high:]))}
    for i, (mode, n_dim) in enumerate(zip(space.modes, space.photon_dims)):
        stride //= n_dim
        out[f"mode{i}_top_fock"] = float(np.sum(p[states // stride % n_dim == mode.photon_cutoff]))
    return out


def _central_moments(vec, lower, a_vec, mean: complex, orders) -> dict:
    """{order: <(a - mean)^order>} for each order in `orders`, read off one chain
    u_k = (a - mean) u_{k-1}, u_0 = vec, whose first step reuses a_vec = a vec."""
    out, u = {}, vec
    for order in range(1, max(orders, default=0) + 1):
        u = (a_vec if order == 1 else lower(u)) - mean * u
        if order in orders:
            out[order] = _dot(vec, u)
    return out


@dataclass(frozen=True)
class OracleObservables:
    """Measured quantities of an evolved state, keyed by mode harmonic."""

    mean_a: dict
    mean_n: dict
    central_moments: dict
    pair_correlations: dict
    electron_mean_level: float
    leakage: dict
    norm: float


def observables(space: TruncatedSpace, state: OracleState, moment_orders=(2, 3)) -> OracleObservables:
    """Every observable of `state`, read off its window [K_min - max h_i, K_max].
    Each a_i lowers K by h_i, so a_i applied to the state lies in the window, and
    what a central-moment chain or pair term lowers out of it never returns to
    the sectors the state occupies.  There a_i is one gather times sqrt(n_i + 1):
    a v gives <a> and <n>, the central moments continue from it, and the pair
    terms reuse it (7 gathers for two modes and orders 2, 3)."""
    basis, v = state.basis, state.amplitudes
    lowering = [lambda x, s=s, r=r: r * x[s] for s, r in zip(basis.sources, basis.ratios)]
    a_vecs = [lower(v) for lower in lowering]
    mean_a, mean_n, moments, pairs = {}, {}, {}, {}
    for mode, lower, a_vec in zip(space.modes, lowering, a_vecs):
        mean = mean_a[mode.harmonic] = _dot(v, a_vec)
        mean_n[mode.harmonic] = _dot(a_vec, a_vec).real
        moments[mode.harmonic] = _central_moments(v, lower, a_vec, mean, moment_orders)
    for (i, mode_i), (r, mode_r) in combinations(enumerate(space.modes), 2):
        normal = _dot(a_vecs[i], a_vecs[r])
        pairs[(mode_i.harmonic, mode_r.harmonic)] = normal, _dot(v, lowering[i](a_vecs[r]))
    p = np.abs(v) ** 2
    j = basis.states // math.prod(space.photon_dims) - space.electron_halfwidth
    level, norm = float(np.sum(j * p)), math.sqrt(np.sum(p))
    return OracleObservables(mean_a, mean_n, moments, pairs, level, state.leakage, norm)


@dataclass(frozen=True)
class OracleCheck:
    name: str
    value: complex
    expected: complex
    error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class OracleCheckRow:
    """One configuration of the validation matrix with all its checks."""

    beta_abs: float
    d_over_zt: float
    g: float
    harmonics: tuple[int, ...]
    dimension: int
    doc_fundamental: float
    checks: tuple[OracleCheck, ...] = field(repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_error(self) -> float:
        return max(c.error for c in self.checks)


def _check(name: str, value, expected, tol: float) -> OracleCheck:
    err = abs(complex(value) - complex(expected))
    return OracleCheck(name, complex(value), complex(expected), float(err), tol, bool(err <= tol))


def _run_single(
    beta_abs: float, d_over_zt: float, g: float, harmonics: tuple, beam: BeamParameters, spaces
) -> OracleCheckRow:
    state = pinem_ladder(beta_abs, beam)
    if d_over_zt:
        state = propagate(state, d_over_zt * beam.talbot_distance, mode="quadratic")
    modes = tuple(OracleMode(harmonic=n, g=g) for n in harmonics)
    space = TruncatedSpace.for_ladder(state.cutoff, modes)
    space = spaces.setdefault(space, space)  # an equal space's object, and with it its series
    obs = observables(space, evolve(space, state.coefficients))

    # Expected side: the library's predictions on the ladder's harmonic lattice
    # up to F(3 * 2 omega0), with a flat g over every mode's harmonic.
    w0 = beam.omega0
    spectrum = ladder_spectrum(state, 3 * max(harmonics))
    model = FlatCoupling(g, 0.5 * w0, (max(harmonics) + 0.5) * w0)
    a_mean = mean_field(model, spectrum).a_mean  # at n omega0, n = 1, 2, ...

    checks: list[OracleCheck] = []
    for n in harmonics:
        checks.append(_check(f"mean_a[{n}]", obs.mean_a[n], a_mean[n - 1], _MATRIX_TOL))
        checks.append(
            _check(f"mean_n[{n}]", obs.mean_n[n], mean_photon_number(model, n * w0), _MATRIX_TOL)
        )
        for order, measured in obs.central_moments[n].items():
            pred = central_moment(model, spectrum, n * w0, order)
            checks.append(_check(f"central_moment[{n},{order}]", measured, pred, _MATRIX_TOL))
    for (n1, n2), (normal, anomalous) in obs.pair_correlations.items():
        pair = pair_correlation(model, spectrum, n1 * w0, n2 * w0)
        checks.append(_check(f"pair_normal[{n1},{n2}]", normal, pair.normal, _MATRIX_TOL))
        checks.append(_check(f"pair_anomalous[{n1},{n2}]", anomalous, pair.anomalous, _MATRIX_TOL))
    checks.append(_check("norm", obs.norm, 1.0, _NORM_TOL))
    drop = electron_mean_level_initial(state) - obs.electron_mean_level
    budget = sum(n * obs.mean_n[n] for n in obs.mean_n)
    checks.append(_check("energy_bookkeeping", drop, budget, 1.0e-8))
    leak = max(obs.leakage.values())
    checks.append(_check("truncation_leakage", leak, 0.0, _LEAK_TOL))

    return OracleCheckRow(
        beta_abs=beta_abs,
        d_over_zt=d_over_zt,
        g=g,
        harmonics=harmonics,
        dimension=space.dimension,
        doc_fundamental=doc(spectrum, w0),
        checks=tuple(checks),
    )


def electron_mean_level_initial(state: LadderState) -> float:
    j = state.level_indices
    return float(np.sum(j * np.abs(state.coefficients) ** 2))


BETA_GRID = (0.0, 0.5, 1.0)
DISTANCE_GRID = (0.0, 0.1, 0.25)
COUPLING_GRID = (0.05, 0.3, 0.8)
MODE_SETS = ((1,), (1, 2))


def run_test_matrix(beam: BeamParameters) -> list[OracleCheckRow]:
    """The full validation matrix: |beta| x d/z_T x g x mode sets (54 rows).  The
    three distances of a (|beta|, g, modes) evolve on one space object, so they
    share its seed series (`evolve`): 18 series for 54 rows.  The spaces of a
    |beta| and the basis cache go once that |beta|'s 18 rows are done, so at
    most one |beta|'s series and bases are held at a time."""
    rows = []
    for b in BETA_GRID:
        spaces = {}
        grid = product(DISTANCE_GRID, COUPLING_GRID, MODE_SETS)
        rows.extend(_run_single(b, d, g, m, beam, spaces) for d, g, m in grid)
        del spaces
        _basis.cache_clear()
    return rows


def require_all_passed(rows: list[OracleCheckRow]) -> None:
    """Raise OracleMismatchError naming the worst offending check."""
    bad = [r for r in rows if not r.passed]
    if not bad:
        return
    worst = max(
        (c for r in bad for c in r.checks if not c.passed), key=lambda c: c.error / c.tolerance
    )
    raise OracleMismatchError(
        f"{len(bad)} of {len(rows)} oracle configurations failed; worst check "
        f"{worst.name}: |{worst.value:.9g} - {worst.expected:.9g}| = {worst.error:.3e} "
        f"> {worst.tolerance:g}"
    )
