"""Truncated-Hilbert-space oracle for the analytic coherence formulas.

This module never uses the closed-form results it is meant to check.  It
builds the full electron-ladder (x) photon-Fock product space, applies the
interaction unitary U = exp(G) with the anti-Hermitian generator

    G = sum_modes g (B_n (x) a+) - conj(g) (B_n^T (x) a),

where B_n lowers the electron ladder index by the mode's harmonic n (photon
emission at n omega0 costs the electron n quanta), and measures observables
by direct operator application on the evolved state vector.  Agreement with
the ladder-overlap predictions (mean field g F, invariant mean photon number
|g|^2, central moments, pair correlations, energy bookkeeping) validates both
routes.

The two-mode spaces are far too large for dense matrix exponentials, so
exp(G)v is computed by scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham,
SIAM J. Sci. Comput. 33, 2011), which picks its Taylor degree and scaling
from an a-priori error bound; tests cross-check it against a dense expm on
small spaces; scipy.sparse is imported on the first evolution, not with the
module.  G conserves K = j + sum_modes n * (photons in the mode), so only the
K-sectors the initial ladder occupies (K = j for each nonzero c_j, the photons
in vacuum) are evolved: the other amplitudes stay exactly 0, as on the whole
space.  G is assembled from a sparsity pattern cached per space shape.  A
mode's annihilation operator is applied by shifting the mode's Fock axis of
the state tensor, sqrt(n+1) v[..., n+1, ...] -> out[..., n, ...], rather
than by building the Kronecker-product operator.

Inner products and norms are reduced elementwise (`_dot`), never by numpy's
`vdot` or its default 2-norm: on vectors of the two-mode spaces' length
those hand the reduction to OpenBLAS's worker threads, which then spin
between calls and doubled the oracle's CPU time at unchanged wall time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import OracleMismatchError, PhysicsGuardError
from .estate import LadderState, pinem_ladder, propagate
from .kinematics import BeamParameters
from .spectra import ladder_overlap

_DIMENSION_LIMIT = 20000
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
    """Electron levels -M..+M tensored with one Fock space per mode."""

    electron_halfwidth: int
    modes: tuple[OracleMode, ...]

    def __post_init__(self) -> None:
        if self.electron_halfwidth < 1:
            raise ValueError("electron_halfwidth must be >= 1")
        if not self.modes:
            raise ValueError("need at least one mode")
        object.__setattr__(self, "modes", tuple(self.modes))
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
    def for_ladder(
        cls, ladder_cutoff: int, modes: tuple[OracleMode, ...], margin: int = 5
    ) -> "TruncatedSpace":
        """Electron half-width covering the ladder plus the worst-case photon
        recoil N_max * max harmonic, plus a safety margin."""
        n_max = max(m.photon_cutoff for m in modes)
        h_max = max(m.harmonic for m in modes)
        return cls(ladder_cutoff + n_max * h_max + margin, tuple(modes))


@lru_cache(maxsize=8)
def _generator_pattern(electron_dim: int, harmonics: tuple, photon_dims: tuple, sectors):
    """CSR pattern of G on the states whose K = j + sum_i h_i n_i lies in
    `sectors` (None: every state), shared by every space of this shape (callers
    must not modify it).  G conserves K, so these states are closed under it.

    Returns (states, indptr, indices, sqrt_n, term): G's entry e is
    sqrt_n[e] * coef[term[e]] with coef = (g_0, -conj g_0, g_1, -conj g_1, ...).
    Mode i's raising operator B_h (x) a_i+ maps |j, n_i - 1> to sqrt(n_i) |j - h, n_i>,
    the single diagonal col - row = h * stride_electron - stride_i of the full space.
    """
    dim = electron_dim * math.prod(photon_dims)
    states = np.arange(dim)
    if sectors is not None:
        k = np.arange(electron_dim) - (electron_dim - 1) // 2
        for h, n_dim in zip(harmonics, photon_dims):
            k = np.add.outer(k, h * np.arange(n_dim))
        states = np.flatnonzero(np.isin(k, sectors))
    local = np.zeros(dim, dtype=np.intp)
    local[states] = np.arange(states.size)
    rows, cols, sqrt_n, term = [], [], [], []
    for i, (h, n_dim) in enumerate(zip(harmonics, photon_dims)):
        stride = math.prod(photon_dims[i + 1 :])
        offset = h * (dim // electron_dim) - stride
        n = states // stride % n_dim
        keep = (n > 0) & (states + offset < dim)
        r, c = local[states[keep]], local[states[keep] + offset]
        s = np.sqrt(n[keep])
        rows += [r, c]
        cols += [c, r]
        sqrt_n += [s, s]
        term += [np.full(s.size, 2 * i), np.full(s.size, 2 * i + 1)]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=states.size))])
    return states, indptr, cols[order], np.concatenate(sqrt_n)[order], np.concatenate(term)[order]


def _shape(space: TruncatedSpace) -> tuple:
    return space.electron_dim, tuple(m.harmonic for m in space.modes), space.photon_dims


def build_generator(space: TruncatedSpace, sectors=None):
    """Anti-Hermitian interaction generator G (complex128 CSR) on the states of
    `sectors` (None: the whole product space), in `_generator_pattern` order."""
    from scipy.sparse import csr_matrix

    states, indptr, indices, sqrt_n, term = _generator_pattern(*_shape(space), sectors)
    coef = np.array([c for m in space.modes for c in (m.g, -np.conj(m.g))], dtype=complex)
    return csr_matrix((sqrt_n * coef[term], indices, indptr), shape=(states.size,) * 2)


def initial_vector(space: TruncatedSpace, electron_coefficients: np.ndarray) -> np.ndarray:
    """Electron ladder amplitudes centred in the space, photon modes in vacuum."""
    c = np.asarray(electron_coefficients, dtype=complex)
    if c.ndim != 1 or c.size % 2 != 1:
        raise ValueError("electron coefficients must be a 1-D array of odd length")
    j = (c.size - 1) // 2
    m = space.electron_halfwidth
    if j > m:
        raise ValueError("electron coefficients wider than the truncated ladder")
    elec = np.zeros(space.electron_dim, dtype=complex)
    elec[m - j : m + j + 1] = c
    vec = elec
    for dim in space.photon_dims:
        vac = np.zeros(dim, dtype=complex)
        vac[0] = 1.0
        vec = np.kron(vec, vac)
    return vec


def expm_multiply(gen, v: np.ndarray) -> np.ndarray:
    """exp(gen) v; scipy.sparse.linalg is imported on first call, so runs that
    never evolve a state do not pay for loading it."""
    from scipy.sparse.linalg import expm_multiply as _expm_multiply

    return _expm_multiply(gen, v)


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b>, reduced elementwise rather than by BLAS (see the module docstring)."""
    return complex(np.sum(np.conj(a) * b))


def evolve(space: TruncatedSpace, electron_coefficients: np.ndarray) -> np.ndarray:
    """Apply the interaction unitary to (ladder state) x (vacuum modes).

    Raises PhysicsGuardError when unitarity drifts beyond 1e-10 or when any
    truncation boundary (top Fock level, ladder edge) holds more than 1e-8
    population -- enlarge the space rather than trust the result.
    """
    v0 = initial_vector(space, electron_coefficients)
    c = np.asarray(electron_coefficients)
    occupied = np.flatnonzero(c) - (c.size - 1) // 2  # K = j of every nonzero c_j
    sectors = tuple(occupied.tolist())
    states = _generator_pattern(*_shape(space), sectors)[0]
    v = np.zeros_like(v0)
    v[states] = expm_multiply(build_generator(space, sectors), v0[states])
    norm = math.sqrt(_dot(v, v).real)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise PhysicsGuardError(f"evolved norm {norm!r} deviates from 1 beyond {_NORM_TOL:g}")
    worst = float(np.max(list(truncation_leakage(space, v).values())))
    if not worst <= _LEAK_TOL:
        raise PhysicsGuardError(
            f"truncation boundary population {worst:.3e} exceeds {_LEAK_TOL:g}; "
            "increase electron_halfwidth or photon_cutoff"
        )
    return v


def evolve_dense(space: TruncatedSpace, electron_coefficients: np.ndarray) -> np.ndarray:
    """Dense scipy.linalg.expm reference path (small spaces only)."""
    from scipy.linalg import expm

    if space.dimension > 4000:
        raise PhysicsGuardError("dense reference limited to dimension <= 4000")
    gen = build_generator(space).toarray()
    v0 = initial_vector(space, electron_coefficients)
    return expm(gen) @ v0


def _as_tensor(space: TruncatedSpace, vec: np.ndarray) -> np.ndarray:
    return vec.reshape((space.electron_dim, *space.photon_dims))


def _annihilate(space: TruncatedSpace, vec: np.ndarray, index: int) -> np.ndarray:
    """a_index applied to vec: out[..., n, ...] = sqrt(n+1) vec[..., n+1, ...]."""
    t = np.moveaxis(_as_tensor(space, vec), 1 + index, -1)
    out = np.zeros_like(t)
    out[..., :-1] = np.sqrt(np.arange(1.0, t.shape[-1])) * t[..., 1:]
    return np.moveaxis(out, -1, 1 + index).reshape(-1)


def truncation_leakage(space: TruncatedSpace, vec: np.ndarray) -> dict:
    """Population stranded on each truncation boundary."""
    t = np.abs(_as_tensor(space, vec)) ** 2
    out = {
        "electron_low": float(np.sum(t[0])),
        "electron_high": float(np.sum(t[-1])),
    }
    for i in range(len(space.modes)):
        sl = [slice(None)] * t.ndim
        sl[1 + i] = -1
        out[f"mode{i}_top_fock"] = float(np.sum(t[tuple(sl)]))
    return out


def photon_distribution(space: TruncatedSpace, vec: np.ndarray, index: int) -> np.ndarray:
    """Marginal Fock-number distribution of one mode."""
    t = np.abs(_as_tensor(space, vec)) ** 2
    axes = tuple(k for k in range(t.ndim) if k != 1 + index)
    return np.sum(t, axis=axes)


def electron_mean_level(space: TruncatedSpace, vec: np.ndarray) -> float:
    t = np.sum(np.abs(_as_tensor(space, vec)) ** 2, axis=tuple(range(1, 1 + len(space.modes))))
    j = np.arange(-space.electron_halfwidth, space.electron_halfwidth + 1)
    return float(np.sum(j * t))


def oracle_mean_a(space: TruncatedSpace, vec: np.ndarray, index: int) -> complex:
    return _dot(vec, _annihilate(space, vec, index))


def oracle_mean_n(space: TruncatedSpace, vec: np.ndarray, index: int) -> float:
    w = _annihilate(space, vec, index)
    return _dot(w, w).real


def _central_moments(space: TruncatedSpace, vec, index: int, a_vec, mean: complex, orders) -> dict:
    """{order: <(a - mean)^order>} for each order in `orders`, read off one chain
    u_k = (a - mean) u_{k-1}, u_0 = vec, whose first step reuses a_vec = a vec."""
    out = {}
    u = vec
    for order in range(1, max(orders, default=0) + 1):
        u = (a_vec if order == 1 else _annihilate(space, u, index)) - mean * u
        if order in orders:
            out[order] = _dot(vec, u)
    return out


def oracle_central_moment(
    space: TruncatedSpace, vec: np.ndarray, index: int, order: int
) -> complex:
    """<(a - <a>)^order> by repeated operator application."""
    if order < 1:
        raise ValueError("order must be >= 1")
    a_vec = _annihilate(space, vec, index)
    return _central_moments(space, vec, index, a_vec, _dot(vec, a_vec), (order,))[order]


def oracle_pair_correlation(
    space: TruncatedSpace, vec: np.ndarray, index_a: int, index_b: int
) -> tuple[complex, complex]:
    """(<a+_i a_k>, <a_i a_k>) for two modes."""
    a_vec = _annihilate(space, vec, index_a)
    b_vec = _annihilate(space, vec, index_b)
    return _pair_terms(space, vec, index_a, a_vec, b_vec)


def _pair_terms(space: TruncatedSpace, vec, index_a: int, a_vec, b_vec) -> tuple[complex, complex]:
    normal = _dot(a_vec, b_vec)
    anomalous = _dot(vec, _annihilate(space, b_vec, index_a))
    return normal, anomalous


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


def observables(space: TruncatedSpace, vec: np.ndarray, moment_orders=(2, 3)) -> OracleObservables:
    """Every observable of `vec`, applying each mode's annihilation chain once:
    a v gives <a> and <n>, the central moments continue from it, and the pair
    terms reuse it (7 annihilations for two modes and orders 2, 3)."""
    a_vecs = [_annihilate(space, vec, i) for i in range(len(space.modes))]
    mean_a = {}
    mean_n = {}
    moments = {}
    for i, (mode, a_vec) in enumerate(zip(space.modes, a_vecs)):
        mean_a[mode.harmonic] = _dot(vec, a_vec)
        mean_n[mode.harmonic] = _dot(a_vec, a_vec).real
        moments[mode.harmonic] = _central_moments(
            space, vec, i, a_vec, mean_a[mode.harmonic], moment_orders
        )
    pairs = {}
    for i, mode_i in enumerate(space.modes):
        for k, mode_k in enumerate(space.modes):
            if i < k:
                pairs[(mode_i.harmonic, mode_k.harmonic)] = _pair_terms(
                    space, vec, i, a_vecs[i], a_vecs[k]
                )
    return OracleObservables(
        mean_a=mean_a,
        mean_n=mean_n,
        central_moments=moments,
        pair_correlations=pairs,
        electron_mean_level=electron_mean_level(space, vec),
        leakage=truncation_leakage(space, vec),
        norm=math.sqrt(_dot(vec, vec).real),
    )


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
    beta_abs: float, d_over_zt: float, g: float, harmonics: tuple[int, ...], beam: BeamParameters
) -> OracleCheckRow:
    state = pinem_ladder(beta_abs, beam)
    if d_over_zt:
        state = propagate(state, d_over_zt * beam.talbot_distance, mode="quadratic")
    modes = tuple(OracleMode(harmonic=n, g=g) for n in harmonics)
    space = TruncatedSpace.for_ladder(state.cutoff, modes)
    vec = evolve(space, state.coefficients)
    obs = observables(space, vec)

    def overlap(n: int) -> complex:
        return ladder_overlap(state, n)

    checks: list[OracleCheck] = []
    for mode in modes:
        n = mode.harmonic
        b_n = overlap(n)
        checks.append(_check(f"mean_a[{n}]", obs.mean_a[n], mode.g * b_n, _MATRIX_TOL))
        checks.append(_check(f"mean_n[{n}]", obs.mean_n[n], abs(mode.g) ** 2, _MATRIX_TOL))
        for order, measured in obs.central_moments[n].items():
            pred = sum(
                math.comb(order, k) * overlap(k * n) * (-b_n) ** (order - k)
                for k in range(order + 1)
            ) * mode.g**order
            checks.append(_check(f"central_moment[{n},{order}]", measured, pred, _MATRIX_TOL))
    for (n1, n2), (normal, anomalous) in obs.pair_correlations.items():
        g1 = modes[[m.harmonic for m in modes].index(n1)].g
        g2 = modes[[m.harmonic for m in modes].index(n2)].g
        checks.append(
            _check(f"pair_normal[{n1},{n2}]", normal, np.conj(g1) * g2 * overlap(n2 - n1), _MATRIX_TOL)
        )
        checks.append(
            _check(f"pair_anomalous[{n1},{n2}]", anomalous, g1 * g2 * overlap(n1 + n2), _MATRIX_TOL)
        )
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
        doc_fundamental=abs(overlap(1)) ** 2,
        checks=tuple(checks),
    )


def electron_mean_level_initial(state: LadderState) -> float:
    j = state.level_indices
    return float(np.sum(j * np.abs(state.coefficients) ** 2))


BETA_GRID = (0.0, 0.5, 1.0)
DISTANCE_GRID = (0.0, 0.1, 0.25)
COUPLING_GRID = (0.05, 0.3, 0.8)
MODE_SETS = ((1,), (1, 2))


def run_test_matrix(beam: BeamParameters | None = None) -> list[OracleCheckRow]:
    """The full validation matrix: |beta| x d/z_T x g x mode sets (54 rows)."""
    if beam is None:
        beam = BeamParameters.from_wavelength(200.0e3, 800.0)
    return [
        _run_single(b, d, g, m, beam)
        for b, d, g, m in product(BETA_GRID, DISTANCE_GRID, COUPLING_GRID, MODE_SETS)
    ]


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
