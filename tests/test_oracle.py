"""Truncated-Hilbert-space oracle: exact unitary evolution cross-validation.

The oracle sums exp(G) on (electron ladder) x (photon Fock spaces) as a
Chebyshev series over the K-window around the sectors the ladder occupies, and
never builds G as a matrix; that measured side shares no code path with the
analytic ladder/coupling formulas whose predictions it checks.  Here its state,
embedded in the whole space (`oracle_reference.full_vector`), is cross-checked
against scipy's expm_multiply and a dense expm of the whole space's generator,
and its observables against Kronecker-product operators.
"""

import dataclasses
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply

from clcoherence import (
    BeamParameters,
    OracleMismatchError,
    OracleMode,
    PhysicsGuardError,
    TruncatedSpace,
    pinem_ladder,
    propagate,
    run_test_matrix,
)
from clcoherence import oracle
from clcoherence.oracle import (
    BETA_GRID,
    COUPLING_GRID,
    DISTANCE_GRID,
    MODE_SETS,
    OracleState,
    electron_mean_level_initial,
    evolve,
    observables,
    require_all_passed,
    truncation_leakage,
)
from oracle_reference import build_generator, evolve_dense, full_vector, initial_vector, whole_basis
from clcoherence.spectra import CoherentField, PairCorrelation, ladder_overlap

BEAM = BeamParameters.from_wavelength(200e3, 800.0)


@pytest.fixture(scope="module")
def matrix_rows():
    """Run the 54-configuration validation matrix once per module."""
    return run_test_matrix(BEAM)


class TestGeneratorAlgebra:
    def test_anti_hermitian(self):
        space = TruncatedSpace(6, (OracleMode(1, 0.3 + 0.2j, photon_cutoff=4),))
        gen = build_generator(space)
        defect = sp.linalg.norm(gen + gen.conj().T)
        assert defect == 0.0

    def test_zero_coupling_gives_zero_matrix(self):
        space = TruncatedSpace(6, (OracleMode(1, 0.0, photon_cutoff=4),))
        gen = build_generator(space)
        assert abs(gen).max() == 0.0

    def test_two_mode_generator_is_sum(self):
        m1 = OracleMode(1, 0.3, photon_cutoff=3)
        m2 = OracleMode(2, 0.2, photon_cutoff=3)
        both = build_generator(TruncatedSpace(8, (m1, m2)))
        assert both.shape == (17 * 4 * 4, 17 * 4 * 4)
        assert sp.linalg.norm(both + both.conj().T) == 0.0


class TestEvolution:
    def test_weak_coupling_limit_is_identity(self):
        state = pinem_ladder(0.5, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 1e-9),))
        v = full_vector(space, evolve(space, state.coefficients))
        v0 = initial_vector(space, state.coefficients)
        assert np.linalg.norm(v - v0) < 1e-8

    def test_matches_dense_matrix_exponential(self):
        # Independent dense expm route on a space small enough to afford it.
        state = pinem_ladder(0.5, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.4),))
        assert space.dimension <= 4000
        fast = full_vector(space, evolve(space, state.coefficients))
        dense = evolve_dense(space, state.coefficients)
        assert np.linalg.norm(fast - dense) < 1e-10

    def test_two_mode_matches_dense_matrix_exponential(self):
        # Harmonics 1 and 2 with unequal photon cutoffs and complex couplings.
        state = propagate(pinem_ladder(0.5, BEAM), 0.1 * BEAM.talbot_distance, mode="quadratic")
        modes = (
            OracleMode(1, 0.12 + 0.09j, photon_cutoff=5),
            OracleMode(2, -0.06 + 0.08j, photon_cutoff=4),
        )
        space = TruncatedSpace(26, modes)
        assert space.dimension <= 4000
        fast = full_vector(space, evolve(space, state.coefficients))
        dense = evolve_dense(space, state.coefficients)
        assert np.linalg.norm(fast - dense) < 1e-10

    def test_bit_identical_under_global_random_seeds(self):
        # The largest (and strongest-coupled) space of the validation matrix
        # must not depend on the global numpy stream.
        state = propagate(
            pinem_ladder(max(BETA_GRID), BEAM),
            max(DISTANCE_GRID) * BEAM.talbot_distance,
            mode="quadratic",
        )
        modes = tuple(OracleMode(n, max(COUPLING_GRID)) for n in MODE_SETS[-1])
        space = TruncatedSpace.for_ladder(state.cutoff, modes)
        assert space.dimension == 17407
        saved = np.random.get_state()
        try:
            runs = []
            for seed in (1, 2):
                np.random.seed(seed)
                runs.append(full_vector(space, evolve(space, state.coefficients)))
        finally:
            np.random.set_state(saved)
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_norm_guard_rejects_nan_vector(self, monkeypatch):
        monkeypatch.setattr(
            oracle, "apply_unitary", lambda space, v, basis: np.full_like(v, np.nan)
        )
        state = pinem_ladder(0.5, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.1),))
        with pytest.raises(PhysicsGuardError, match="norm"):
            evolve(space, state.coefficients)

    def test_leakage_guard_rejects_nan_leakage(self, monkeypatch):
        # A NaN behind a finite entry: Python's max() would return the 0.0.
        monkeypatch.setattr(oracle, "apply_unitary", lambda space, v, basis: v)
        monkeypatch.setattr(
            oracle,
            "truncation_leakage",
            lambda space, basis, amplitudes: {"electron_low": 0.0, "top": np.nan},
        )
        state = pinem_ladder(0.5, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.1),))
        with pytest.raises(PhysicsGuardError, match="truncation"):
            evolve(space, state.coefficients)

    @pytest.mark.parametrize(
        "g", [math.nan, math.inf, complex(0.1, math.nan)], ids=["nan", "inf", "nan-imag"]
    )
    def test_non_finite_coupling_is_a_physics_guard(self, g):
        state = pinem_ladder(0.5, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.1), OracleMode(2, g)))
        with pytest.raises(PhysicsGuardError, match="not finite"):
            evolve(space, state.coefficients)

    def test_zero_coupling_returns_the_initial_vector(self):
        state = propagate(pinem_ladder(0.5, BEAM), 0.1 * BEAM.talbot_distance, mode="quadratic")
        modes = (OracleMode(1, 0.0), OracleMode(2, 0.0))
        space = TruncatedSpace.for_ladder(state.cutoff, modes)
        v0 = initial_vector(space, state.coefficients)
        np.testing.assert_array_equal(full_vector(space, evolve(space, state.coefficients)), v0)
        np.testing.assert_array_equal(oracle.apply_unitary(space, v0, whole_basis(space)), v0)

    def test_norm_preserved(self):
        state = pinem_ladder(1.0, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.8),))
        v = full_vector(space, evolve(space, state.coefficients))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)

    def test_leakage_guard_trips_on_tight_photon_cutoff(self):
        state = pinem_ladder(0.5, BEAM)
        space = TruncatedSpace.for_ladder(
            state.cutoff, (OracleMode(1, 0.8, photon_cutoff=1),)
        )
        with pytest.raises(PhysicsGuardError):
            evolve(space, state.coefficients)

    @pytest.mark.parametrize("harmonics,twice", [((1, 1), 1), ((1, 2, 2), 2)])
    def test_two_modes_at_one_harmonic_rejected(self, harmonics, twice):
        # observables key each mode by its harmonic: a second mode there would
        # overwrite the first's mean photon number and pair entries
        modes = tuple(OracleMode(h, 0.1 * (i + 1), 4) for i, h in enumerate(harmonics))
        with pytest.raises(ValueError, match=f"two modes at harmonic {twice}:"):
            TruncatedSpace(20, modes)

    def test_dimension_guard(self):
        with pytest.raises(PhysicsGuardError):
            TruncatedSpace(10000, (OracleMode(1, 0.1),))

    def test_full_vector_embedding(self):
        # zero coupling: the ladder centred in the space, the photon mode in vacuum
        state = pinem_ladder(0.5, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.0, photon_cutoff=2),))
        t = full_vector(space, evolve(space, state.coefficients)).reshape(space.electron_dim, 3)
        m, j = space.electron_halfwidth, state.cutoff
        expected = np.zeros_like(t)
        expected[m - j : m + j + 1, 0] = state.coefficients
        np.testing.assert_array_equal(t, expected)

    def test_all_zero_ladder_is_a_norm_guard(self):
        # no occupied sector: an empty window, and the norm guard reads 0
        space = TruncatedSpace(5, (OracleMode(1, 0.1, photon_cutoff=2), OracleMode(2, 0.1)))
        with pytest.raises(PhysicsGuardError, match="evolved norm 0.0 deviates"):
            evolve(space, np.zeros(5, dtype=complex))

    def test_evolve_rejects_oversized_ladder(self):
        space = TruncatedSpace(5, (OracleMode(1, 0.1, photon_cutoff=2),))
        with pytest.raises(ValueError, match="wider than the truncated ladder"):
            evolve(space, np.zeros(13, dtype=complex))

    def test_state_holds_only_the_occupied_sectors(self):
        # the matrix's largest space: the state on the window [K_min - 2, K_max]
        # of the occupied sectors, in ascending full-space order, nonzero on the
        # occupied sectors only, with norm 1
        state = propagate(
            pinem_ladder(max(BETA_GRID), BEAM),
            max(DISTANCE_GRID) * BEAM.talbot_distance,
            mode="quadratic",
        )
        modes = tuple(OracleMode(n, max(COUPLING_GRID)) for n in MODE_SETS[-1])
        space = TruncatedSpace.for_ladder(state.cutoff, modes)
        assert space.dimension == 17407
        evolved = evolve(space, state.coefficients)
        k = oracle._sector_labels(*oracle._shape(space))
        sectors = _occupied_sectors(state.coefficients)
        window = np.flatnonzero((min(sectors) - 2 <= k) & (k <= max(sectors)))
        assert 0 < window.size < space.dimension
        assert evolved.basis.states.tobytes() == window.tobytes()
        assert np.all(np.diff(evolved.basis.states) > 0)
        assert evolved.amplitudes.shape == evolved.basis.states.shape
        held = np.isin(k[window], sectors)
        assert np.all(evolved.amplitudes[~held] == 0) and np.all(evolved.amplitudes[held] != 0)
        norm = math.sqrt(np.sum(np.abs(evolved.amplitudes) ** 2))
        assert abs(norm - 1.0) <= 1e-10


class TestSingleModeObservables:
    def test_unmodulated_electron_dark_mode(self):
        # beta = 0: no density modulation, so <a> = 0 (no coherent amplitude)
        # while <n> = |g|^2 (spontaneous emission is state-independent).
        state = pinem_ladder(0.0, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.3),))
        obs = observables(space, evolve(space, state.coefficients))
        assert abs(obs.mean_a[1]) < 1e-10
        assert obs.mean_n[1] == pytest.approx(0.09, abs=1e-8)

    def test_photon_distribution_is_poissonian(self):
        # Single dominant electron level, g = 0.5: the mode ends in a coherent
        # state whose number distribution is Poisson(|g|^2).
        state = pinem_ladder(0.0, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.5),))
        v = full_vector(space, evolve(space, state.coefficients))
        dist = np.sum(np.abs(v.reshape(space.electron_dim, -1)) ** 2, axis=0)  # P(n)
        mean = 0.25
        expected = np.array(
            [math.exp(-mean) * mean**k / math.factorial(k) for k in range(dist.size)]
        )
        np.testing.assert_allclose(dist, expected, atol=1e-10)

    def test_weak_coupling_first_order_amplitudes(self):
        # g = 0.05: the one-photon sector holds amplitudes g * c_{j+n} --
        # the electron dropped n levels to emit the photon.
        g = 0.05
        state = pinem_ladder(1.0, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, g),))
        v = full_vector(space, evolve(space, state.coefficients))
        t = v.reshape(space.electron_dim, space.photon_dims[0])
        m, j = space.electron_halfwidth, state.cutoff
        one_photon = t[:, 1]
        c_padded = np.zeros(space.electron_dim, dtype=complex)
        c_padded[m - j : m + j + 1] = state.coefficients
        expected = g * np.roll(c_padded, -1)  # electron index shifted down by n=1
        np.testing.assert_allclose(one_photon, expected, atol=1e-4)

    def test_strong_coupling_mean_field(self):
        # g = 0.8 on a bunched beam: <a> = g * b_1 within 1e-6.
        g = 0.8
        state = propagate(pinem_ladder(1.0, BEAM), 0.1 * BEAM.talbot_distance, mode="quadratic")
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, g),))
        obs = observables(space, evolve(space, state.coefficients))
        expected = g * ladder_overlap(state, 1)
        assert abs(obs.mean_a[1] - expected) < 1e-6
        assert obs.mean_n[1] == pytest.approx(g * g, abs=1e-6)

    def test_emission_probability_first_order(self):
        # Total emission probability 1 - P(0) agrees with the integrated
        # weak-coupling rate |g|^2 to first order.
        g = 0.05
        state = pinem_ladder(0.5, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, g),))
        v = full_vector(space, evolve(space, state.coefficients))
        emitted = 1.0 - np.sum(np.abs(v.reshape(space.electron_dim, -1)[:, 0]) ** 2)
        assert abs(emitted - g * g) < 1e-5  # error is O(g^4)


@pytest.fixture(scope="module")
def strong_two_mode():
    state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
    modes = (OracleMode(1, 0.2), OracleMode(2, 0.2))
    space = TruncatedSpace.for_ladder(state.cutoff, modes)
    return state, space, evolve(space, state.coefficients)


class TestTwoModeObservables:
    def test_cross_mode_pair_correlations(self, strong_two_mode):
        state, space, v = strong_two_mode
        normal, anomalous = observables(space, v).pair_correlations[(1, 2)]
        g = 0.2
        assert abs(normal - g * g * ladder_overlap(state, 1)) < 1e-6
        assert abs(anomalous - g * g * ladder_overlap(state, 3)) < 1e-6

    def test_energy_bookkeeping(self, strong_two_mode):
        state, space, v = strong_two_mode
        obs = observables(space, v)
        drop = electron_mean_level_initial(state) - obs.electron_mean_level
        budget = obs.mean_n[1] + 2.0 * obs.mean_n[2]
        assert drop == pytest.approx(budget, abs=1e-8)

    def test_leakage_well_controlled(self, strong_two_mode):
        ladder, space, v = strong_two_mode
        leak = truncation_leakage(space, v.basis, v.amplitudes)
        assert set(leak) == {"electron_low", "electron_high", "mode0_top_fock", "mode1_top_fock"}
        assert max(leak.values()) < 1e-8
        assert leak == v.leakage


def _kron_annihilation(space: TruncatedSpace, index: int) -> sp.csr_matrix:
    """Reference a_index = I_electron (x) ... (x) a (x) ... (x) I on the full space."""
    out = sp.identity(space.electron_dim, format="csr")
    for k, dim in enumerate(space.photon_dims):
        op = sp.diags(np.sqrt(np.arange(1.0, dim)), offsets=1) if k == index else sp.identity(dim)
        out = sp.kron(out, op, format="csr")
    return out


def _kron_generator(space: TruncatedSpace) -> sp.csr_matrix:
    """Reference G = sum_modes g U - conj(g) U^H with each raising operator
    U = B_h (x) I (x) ... (x) a+ (x) ... (x) I built as a Kronecker chain."""
    gen = None
    for i, mode in enumerate(space.modes):
        h = mode.harmonic
        up = sp.diags(np.ones(space.electron_dim - h), offsets=h, format="csr")
        for k, dim in enumerate(space.photon_dims):
            op = sp.diags(np.sqrt(np.arange(1.0, dim)), offsets=-1) if k == i else sp.identity(dim)
            up = sp.kron(up, op, format="csr")
        term = mode.g * up - np.conj(mode.g) * up.conj().T
        gen = term if gen is None else gen + term
    return gen.tocsr()


class TestGeneratorAgainstKron:
    """The diagonal-index generator equals the Kronecker chain exactly."""

    @staticmethod
    def assert_exact(space):
        gen = build_generator(space)
        assert gen.dtype == np.complex128
        assert abs(gen - _kron_generator(space)).max() == 0.0

    @pytest.mark.parametrize(
        "modes",
        [
            (OracleMode(1, 0.3, photon_cutoff=4),),
            (OracleMode(1, 0.12 + 0.09j, photon_cutoff=5), OracleMode(2, -0.06 + 0.08j, photon_cutoff=3)),
            (OracleMode(1, -0.2 + 0.05j, photon_cutoff=3), OracleMode(3, 0.07 - 0.15j, photon_cutoff=6)),
        ],
        ids=["one-mode", "harmonics-1-2", "harmonics-1-3"],
    )
    def test_small_spaces(self, modes):
        self.assert_exact(TruncatedSpace(12, modes))

    def test_every_validation_matrix_space(self):
        # Same shape, three couplings: the shape-keyed cache must not keep g.
        for b, d, g, harmonics in itertools.product(
            BETA_GRID, DISTANCE_GRID, COUPLING_GRID, MODE_SETS
        ):
            state = pinem_ladder(b, BEAM)
            if d:
                state = propagate(state, d * BEAM.talbot_distance, mode="quadratic")
            modes = tuple(OracleMode(n, g) for n in harmonics)
            self.assert_exact(TruncatedSpace.for_ladder(state.cutoff, modes))


def _matrix_spaces():
    """(space, ladder coefficients) for each of the 54 validation-matrix rows."""
    for b, d, g, harmonics in itertools.product(BETA_GRID, DISTANCE_GRID, COUPLING_GRID, MODE_SETS):
        state = pinem_ladder(b, BEAM)
        if d:
            state = propagate(state, d * BEAM.talbot_distance, mode="quadratic")
        modes = tuple(OracleMode(n, g) for n in harmonics)
        yield TruncatedSpace.for_ladder(state.cutoff, modes), state.coefficients


def _other_spaces():
    """Complex unequal couplings with unequal cutoffs, harmonics (1, 3), harmonic 2 alone."""
    coefficients = propagate(
        pinem_ladder(0.5, BEAM), 0.1 * BEAM.talbot_distance, mode="quadratic"
    ).coefficients
    for modes in (
        (OracleMode(1, 0.12 + 0.09j, photon_cutoff=5), OracleMode(2, -0.06 + 0.08j, photon_cutoff=4)),
        (OracleMode(1, -0.1 + 0.05j, photon_cutoff=5), OracleMode(3, 0.05 - 0.07j, photon_cutoff=4)),
        (OracleMode(2, 0.2 - 0.1j, photon_cutoff=8),),
    ):
        yield TruncatedSpace(40, modes), coefficients


def _occupied_sectors(coefficients):
    """K = j of every nonzero ladder amplitude c_j (the photons start in vacuum)."""
    return tuple((np.flatnonzero(coefficients) - (coefficients.size - 1) // 2).tolist())


def _reached(space, coefficients):
    """Full-space indices of the states in the occupied sectors."""
    k = oracle._sector_labels(*oracle._shape(space))
    return np.flatnonzero(np.isin(k, _occupied_sectors(coefficients)))


def _window(space, sectors) -> oracle.Basis:
    """The oracle's basis on the K-window [min(sectors) - max h_i, max(sectors)]."""
    low = min(sectors) - max(m.harmonic for m in space.modes)
    return oracle._basis(*oracle._shape(space), low, max(sectors))


class TestReachableSubspace:
    """evolve runs one series on the seed s (the vacuum state |j = K, vac> of each
    K-sector the ladder occupies) over the K-window around those sectors and
    scales it by c_K; the same series on the whole space's seed vector, scaled
    the same way, must come out bit for bit."""

    @staticmethod
    def assert_matches_full_space(space, coefficients):
        seed = (initial_vector(space, coefficients) != 0) * 1.0
        full = oracle.apply_unitary(space, seed, whole_basis(space))
        reached = _reached(space, coefficients)
        k = oracle._sector_labels(*oracle._shape(space))[reached]
        expected = np.zeros(space.dimension, dtype=complex)
        expected[reached] = coefficients[k + coefficients.size // 2] * full[reached]
        assert not np.delete(full, reached).any()
        assert full_vector(space, evolve(space, coefficients)).tobytes() == expected.tobytes()

    @staticmethod
    def assert_closed(space, coefficients):
        reached = _reached(space, coefficients)
        unreached = np.setdiff1d(np.arange(space.dimension), reached)
        assert 0 < reached.size < space.dimension
        assert set(np.flatnonzero(initial_vector(space, coefficients))) <= set(reached)
        gen = build_generator(space)
        assert gen[unreached][:, reached].count_nonzero() == 0

    def test_every_validation_matrix_space_is_bit_identical(self):
        for space, coefficients in _matrix_spaces():
            self.assert_matches_full_space(space, coefficients)

    def test_other_spaces_are_bit_identical(self):
        for space, coefficients in _other_spaces():
            self.assert_matches_full_space(space, coefficients)

    def test_window_generator_is_the_full_generator_on_the_window_states(self):
        for space, coefficients in _other_spaces():
            window = _window(space, _occupied_sectors(coefficients))
            states = window.states
            assert states.size > _reached(space, coefficients).size
            local = build_generator(space, window)
            assert local.shape == (states.size, states.size)
            assert abs(local - build_generator(space)[states][:, states]).max() == 0.0

    def test_generator_never_leaves_the_reached_states(self):
        for space, coefficients in itertools.chain(_matrix_spaces(), _other_spaces()):
            self.assert_closed(space, coefficients)

    def test_reached_states_are_the_ladder_k_sectors(self):
        # K = j + sum_i h_i n_i in the sectors of the nonzero c_j: every |K| <= J
        # for |beta| > 0, K = 0 alone for beta = 0: 30% of the matrix; their
        # windows add the max h_i sectors below: 31%
        total = reached = windowed = 0
        for space, coefficients in _matrix_spaces():
            grids = np.meshgrid(
                np.arange(-space.electron_halfwidth, space.electron_halfwidth + 1),
                *(np.arange(d) for d in space.photon_dims),
                indexing="ij",
            )
            k = grids[0] + sum(m.harmonic * n for m, n in zip(space.modes, grids[1:]))
            sectors = _occupied_sectors(coefficients)
            expected = np.flatnonzero(np.isin(k, sectors))
            np.testing.assert_array_equal(_reached(space, coefficients), expected)
            low = min(sectors) - max(m.harmonic for m in space.modes)
            window = np.flatnonzero((low <= k) & (k <= max(sectors)))
            np.testing.assert_array_equal(evolve(space, coefficients).basis.states, window)
            total += space.dimension
            reached += expected.size
            windowed += window.size
        assert (total, reached, windowed) == (487890, 144882, 153549)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((6,), "1-D array of odd length"),
            ((23,), "wider than the truncated ladder"),
            ((3, 3), "1-D array of odd length"),
        ],
        ids=["even-length", "oversized", "2-d"],
    )
    def test_evolve_rejects_bad_coefficients(self, shape, message):
        space = TruncatedSpace(5, (OracleMode(1, 0.1, photon_cutoff=2),))
        size = math.prod(shape)
        with pytest.raises(ValueError, match=message):
            evolve(space, np.ones(shape, dtype=complex) / np.sqrt(size))


def _spy_series(monkeypatch) -> list:
    """Record the space of every Chebyshev series `evolve` runs."""
    spaces = []
    series = oracle.apply_unitary

    def spy(space, v, basis):
        spaces.append(space)
        return series(space, v, basis)

    monkeypatch.setattr(oracle, "apply_unitary", spy)
    return spaces


class TestSharedSeedSeries:
    """One series per space object and occupied sectors, whatever the c_j: the
    three distances of a (|beta|, g, modes) share it, each with its own state."""

    def test_matrix_runs_18_series_for_54_rows(self, monkeypatch):
        spaces = _spy_series(monkeypatch)
        rows = run_test_matrix(BEAM)
        assert (len(rows), len(spaces), len(set(map(id, spaces)))) == (54, 18, 18)
        assert all(r.passed for r in rows)
        mean_a = {}  # the first check is the measured <a> of the lowest harmonic
        for r in rows:
            mean_a.setdefault((r.beta_abs, r.g, r.harmonics), []).append(r.checks[0].value)
        assert len(mean_a) == 18
        for (beta_abs, _, _), values in mean_a.items():
            assert len(values) == 3 and (beta_abs == 0.0 or len(set(values)) == 3)

    def test_rows_differing_only_in_distance_get_different_states(self, monkeypatch):
        ladders = [pinem_ladder(1.0, BEAM)] + [
            propagate(pinem_ladder(1.0, BEAM), d * BEAM.talbot_distance, mode="quadratic")
            for d in DISTANCE_GRID[1:]
        ]
        modes = (OracleMode(1, 0.3), OracleMode(2, 0.3))
        space = TruncatedSpace.for_ladder(ladders[0].cutoff, modes)
        spaces = _spy_series(monkeypatch)
        shared = [full_vector(space, evolve(space, ladder.coefficients)) for ladder in ladders]
        assert spaces == [space]
        for a, b in itertools.combinations(shared, 2):
            assert np.max(np.abs(a - b)) > 1e-3
        # sharing moves no bit: an equal space object runs its own series
        for ladder, v in zip(ladders, shared):
            fresh = TruncatedSpace.for_ladder(ladder.cutoff, modes)
            assert full_vector(fresh, evolve(fresh, ladder.coefficients)).tobytes() == v.tobytes()
        assert len(spaces) == 1 + len(ladders)

    def test_a_series_does_not_outlive_its_space(self, monkeypatch):
        state = pinem_ladder(0.5, BEAM)
        modes = (OracleMode(1, 0.1),)
        monkeypatch.setattr(
            oracle, "apply_unitary", lambda space, v, basis: np.full_like(v, np.nan)
        )
        with pytest.raises(PhysicsGuardError, match="norm"):
            evolve(TruncatedSpace.for_ladder(state.cutoff, modes), state.coefficients)
        monkeypatch.undo()
        v = evolve(TruncatedSpace.for_ladder(state.cutoff, modes), state.coefficients).amplitudes
        assert abs(oracle._dot(v, v) - 1.0) <= 1e-10

    def test_matrix_leaves_the_basis_cache_empty(self):
        state = pinem_ladder(0.5, BEAM)
        evolve(TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.1),)), state.coefficients)
        assert oracle._basis.cache_info().currsize > 0
        run_test_matrix(BEAM)
        assert oracle._basis.cache_info().currsize == 0

    def test_matrix_holds_no_space_of_a_finished_beta(self, monkeypatch):
        # the 18 rows of a |beta| done, its spaces (their series and bases) are gone
        seen = []  # (|beta|, weak reference to the space its row evolved on)
        run_single, evolve_state = oracle._run_single, oracle.evolve

        def each_row(beta_abs, *args):
            finished = [ref for b, ref in seen if b != beta_abs]
            assert all(ref() is None for ref in finished), beta_abs
            if finished and not any(b == beta_abs for b, _ in seen):
                assert oracle._basis.cache_info().currsize == 0
            seen.append((beta_abs, None))
            return run_single(beta_abs, *args)

        def spy(space, coefficients):
            seen[-1] = (seen[-1][0], weakref.ref(space))
            return evolve_state(space, coefficients)

        monkeypatch.setattr(oracle, "_run_single", each_row)
        monkeypatch.setattr(oracle, "evolve", spy)
        rows = run_test_matrix(BEAM)
        assert len(rows) == len(seen) == 54 and all(r.passed for r in rows)
        assert all(ref() is None for _, ref in seen)

    def test_cached_arrays_are_read_only(self):
        state = pinem_ladder(0.5, BEAM)
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(1, 0.1),))
        evolved = evolve(space, state.coefficients)
        observables(space, evolve(space, state.coefficients))
        basis, u = space._series[_occupied_sectors(state.coefficients)]
        assert evolved.basis is basis is _window(space, _occupied_sectors(state.coefficients))
        assert len(basis) == 7
        for array in (*basis, u):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
            with pytest.raises(ValueError, match="read-only"):
                array *= 1


class TestAgainstScipyExpmMultiply:
    """The Chebyshev series against scipy's expm_multiply (Al-Mohy & Higham)
    on the whole space's CSR generator."""

    TOL = 1e-14

    @staticmethod
    def worst(spaces):
        worst = 0.0
        for space, coefficients in spaces:
            reference = scipy_expm_multiply(
                build_generator(space), initial_vector(space, coefficients)
            )
            v = full_vector(space, evolve(space, coefficients))
            worst = max(worst, np.max(np.abs(v - reference)))
        return worst

    def test_every_validation_matrix_space(self):
        assert self.worst(_matrix_spaces()) <= self.TOL

    def test_other_spaces(self):
        assert self.worst(_other_spaces()) <= self.TOL


class TestChebyshevSeries:
    def test_spectral_bound_is_the_largest_gershgorin_row_sum(self):
        for space, _ in _other_spaces():
            gen = build_generator(space)
            rows = np.asarray(abs(gen).sum(axis=1)).ravel()
            assert rows.max() == pytest.approx(oracle._spectral_bound(space), rel=1e-14)

    @pytest.mark.parametrize("rho", [1e-9, 0.3, 1.0, 10.85, 100.0, 2000.0])
    def test_discarded_tail_is_below_the_unit_round_off(self, rho):
        # sum the bound (rho/2)^k / k! over the discarded terms in log space
        terms = oracle._series_terms(rho)
        assert terms + 1 >= rho
        tail = 2.0 * sum(
            math.exp(k * math.log(rho / 2.0) - math.lgamma(k + 1))
            for k in range(terms + 1, terms + 200)
        )
        assert tail <= 2.0**-53
        shorter = math.exp(terms * math.log(rho / 2.0) - math.lgamma(terms + 1))
        assert terms == math.ceil(rho) - 1 or 4.0 * shorter > 2.0**-53

    def test_zero_bound_takes_no_terms(self):
        assert oracle._series_terms(0.0) == 0


class TestSlicedAnnihilationAgainstKron:
    """The mode operators `observables` gathers on the K-sectors around the state
    against explicit Kronecker products on the whole space."""

    TOL = 1e-13

    def assert_matches_kron(self, space, state):
        obs = observables(space, state, moment_orders=(1, 2, 3, 4))
        v = full_vector(space, state)
        a = [_kron_annihilation(space, i) for i in range(len(space.modes))]
        for i, mode in enumerate(space.modes):
            n = mode.harmonic
            mean = np.vdot(v, a[i] @ v)
            assert abs(obs.mean_a[n] - mean) <= self.TOL
            assert abs(obs.mean_n[n] - np.vdot(a[i] @ v, a[i] @ v).real) <= self.TOL
            assert set(obs.central_moments[n]) == {1, 2, 3, 4}
            u = v
            for order in (1, 2, 3, 4):
                u = a[i] @ u - mean * u
                assert abs(obs.central_moments[n][order] - np.vdot(v, u)) <= self.TOL
        for (i, mode_i), (k, mode_k) in itertools.combinations(enumerate(space.modes), 2):
            normal, anomalous = obs.pair_correlations[(mode_i.harmonic, mode_k.harmonic)]
            assert abs(normal - np.vdot(a[i] @ v, a[k] @ v)) <= self.TOL
            assert abs(anomalous - np.vdot(v, a[i] @ (a[k] @ v))) <= self.TOL
        t = np.abs(v.reshape(space.electron_dim, *space.photon_dims)) ** 2
        j = np.arange(-space.electron_halfwidth, space.electron_halfwidth + 1)
        assert abs(obs.norm - np.linalg.norm(v)) <= self.TOL
        populations = t.sum(axis=tuple(range(1, t.ndim)))
        assert abs(obs.electron_mean_level - np.sum(j * populations)) <= self.TOL
        edges = [t[0].sum(), t[-1].sum()] + [np.take(t, -1, axis=i).sum() for i in range(1, t.ndim)]
        np.testing.assert_allclose(list(obs.leakage.values()), edges, rtol=0, atol=self.TOL)

    def test_ladder_with_a_gap_between_occupied_levels(self):
        # c_j = 0 at j = -3, 0..3: sectors {-4, -2, -1, 4}, not contiguous, and the
        # gathered window [-6, 4] holds the empty sectors between them
        coefficients = np.zeros(9, dtype=complex)
        coefficients[[0, 2, 3, 8]] = np.array([0.5, -0.3 + 0.4j, 0.1j, 0.6]) / math.sqrt(0.87)
        modes = (
            OracleMode(1, 0.15 + 0.1j, photon_cutoff=6),
            OracleMode(2, -0.1 + 0.12j, photon_cutoff=5),
        )
        space = TruncatedSpace.for_ladder(4, modes)
        state = evolve(space, coefficients)
        v = full_vector(space, state)
        k = oracle._sector_labels(*oracle._shape(space))
        held = set(k[v != 0].tolist())
        assert {-4, -2, -1, 4} <= held and held.isdisjoint({-3, 0, 1, 2, 3})
        reference = scipy_expm_multiply(build_generator(space), initial_vector(space, coefficients))
        assert np.max(np.abs(v - reference)) <= 1e-14
        self.assert_matches_kron(space, state)

    @pytest.mark.parametrize(
        "modes, sectors",
        [
            ((OracleMode(1, 0.3 + 0.2j, photon_cutoff=8),), [-2, 0, 3]),
            (
                (OracleMode(1, 0.15 + 0.1j, photon_cutoff=6), OracleMode(2, 0.1j, photon_cutoff=5)),
                [-4, -2, -1, 4],
            ),
        ],
        ids=["one-mode", "harmonics-1-2"],
    )
    def test_any_vector_on_separated_sectors(self, modes, sectors):
        # random amplitudes on every state of the sectors, ladder and Fock edges
        # included, on the window that holds them
        space = TruncatedSpace(5, modes)
        k = oracle._sector_labels(*oracle._shape(space))
        rng = np.random.default_rng(25)
        w = np.where(np.isin(k, sectors), [1, 1j] @ rng.normal(size=(2, k.size)), 0.0)
        window = _window(space, sectors)
        amplitudes = (w / np.linalg.norm(w))[window.states]
        leakage = truncation_leakage(space, window, amplitudes)
        self.assert_matches_kron(space, OracleState(window, amplitudes, leakage))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_random_windows_match_the_dense_route_and_kron(self, data):
        # 1-2 modes of distinct harmonics 1-3 (photon cutoff <= 8 alone, <= 5 in a
        # pair, so that the dense expm stays below dimension ~1,700); each |g|^2
        # keeps the Poisson(|g|^2) population of its top Fock level N below 1e-8:
        # |g|^(2N) / N! <= 2.5e-9
        harmonics = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
        modes = []
        for h in harmonics:
            cutoff = data.draw(st.integers(1, 8 if len(harmonics) == 1 else 5))
            g_max = (2.5e-9 * math.factorial(cutoff)) ** (0.5 / cutoff)
            g_abs = data.draw(st.floats(0.1 * g_max, g_max))
            phase = data.draw(st.floats(-math.pi, math.pi))
            modes.append(OracleMode(h, g_abs * complex(math.cos(phase), math.sin(phase)), cutoff))
        # a normalized ladder of half-width J with exact-zero gaps between occupied levels
        half = data.draw(st.integers(1, 3))
        occupied = data.draw(st.lists(st.booleans(), min_size=2 * half + 1, max_size=2 * half + 1))
        occupied[data.draw(st.integers(0, 2 * half))] = True
        coefficients = np.zeros(2 * half + 1, dtype=complex)
        for j in np.flatnonzero(occupied):
            magnitude = data.draw(st.floats(0.1, 1.0))
            phase = data.draw(st.floats(-math.pi, math.pi))
            coefficients[j] = magnitude * complex(math.cos(phase), math.sin(phase))
        coefficients /= math.sqrt(np.sum(np.abs(coefficients) ** 2))
        space = TruncatedSpace.for_ladder(half, tuple(modes))
        assert space.dimension <= 4000
        state = evolve(space, coefficients)
        dense = evolve_dense(space, coefficients)
        assert np.linalg.norm(full_vector(space, state) - dense) < 1e-10
        self.assert_matches_kron(space, state)

    def test_harmonics_one_and_three_with_complex_couplings(self):
        state = propagate(pinem_ladder(0.5, BEAM), 0.1 * BEAM.talbot_distance, mode="quadratic")
        modes = (
            OracleMode(1, -0.1 + 0.05j, photon_cutoff=5),
            OracleMode(3, 0.05 - 0.07j, photon_cutoff=4),
        )
        space = TruncatedSpace(40, modes)
        self.assert_matches_kron(space, evolve(space, state.coefficients))

    def test_single_mode_observables(self, strong_two_mode):
        _, space, v = strong_two_mode
        self.assert_matches_kron(space, v)

    def test_pair_correlations(self, strong_two_mode):
        _, space, state = strong_two_mode
        a0, a1 = _kron_annihilation(space, 0), _kron_annihilation(space, 1)
        normal, anomalous = observables(space, state).pair_correlations[(1, 2)]
        v = full_vector(space, state)
        assert abs(normal - np.vdot(a0 @ v, a1 @ v)) <= self.TOL
        assert abs(anomalous - np.vdot(v, a0 @ (a1 @ v))) <= self.TOL


class TestValidationMatrix:
    def test_all_rows_pass(self, matrix_rows):
        assert len(matrix_rows) == 54
        failures = [r for r in matrix_rows if not r.passed]
        assert not failures, f"{len(failures)} oracle rows failed"
        assert max(r.max_error for r in matrix_rows) < 1e-6

    def test_mean_photon_number_is_state_independent(self, matrix_rows):
        # <n> must equal |g|^2 in every configuration while the DOC spans a
        # wide range: emission probability carries no coherence information.
        for row in matrix_rows:
            for check in row.checks:
                if check.name.startswith("mean_n"):
                    assert check.error < 1e-6
        docs = [r.doc_fundamental for r in matrix_rows]
        assert max(docs) - min(docs) > 0.3

    def test_observables_structure(self, matrix_rows):
        two_mode = next(r for r in matrix_rows if len(r.harmonics) == 2)
        names = {c.name for c in two_mode.checks}
        assert "pair_normal[1,2]" in names
        assert "pair_anomalous[1,2]" in names
        assert "energy_bookkeeping" in names

    def test_require_all_passed_accepts_good_rows(self, matrix_rows):
        require_all_passed(matrix_rows)  # must not raise

    def test_require_all_passed_raises_with_details(self, matrix_rows):
        import dataclasses

        row = matrix_rows[0]
        bad_check = dataclasses.replace(
            row.checks[0], error=1.0, passed=False, expected=0.0 + 0.0j
        )
        bad_row = dataclasses.replace(row, checks=(bad_check, *row.checks[1:]))
        with pytest.raises(OracleMismatchError) as excinfo:
            require_all_passed([bad_row, *matrix_rows[1:]])
        assert bad_check.name in str(excinfo.value)


class TestExpectedSideIsTheLibrary:
    """Each check's expected value is the library's own prediction: perturbing
    one prediction by 1e-3 fails exactly the checks that read it."""

    CHECKS = {
        "mean_field": ("mean_a",),
        "mean_photon_number": ("mean_n",),
        "central_moment": ("central_moment",),
        "pair_correlation": ("pair_normal", "pair_anomalous"),
    }

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_perturbed_prediction_fails_its_checks(self, monkeypatch, name):
        predict = getattr(oracle, name)

        def perturbed(*args, **kwargs):
            out = predict(*args, **kwargs)
            if isinstance(out, CoherentField):
                return dataclasses.replace(out, a_mean=out.a_mean + 1e-3)
            if isinstance(out, PairCorrelation):
                return PairCorrelation(out.normal + 1e-3, out.anomalous + 1e-3)
            return out + 1e-3

        monkeypatch.setattr(oracle, name, perturbed)
        row = oracle._run_single(1.0, 0.1, 0.3, (1, 2), BEAM, {})
        failed = {c.name for c in row.checks if not c.passed}
        reading = {c.name for c in row.checks if c.name.startswith(self.CHECKS[name])}
        assert reading and failed == reading


class TestObservablesHelper:
    def test_keys_by_harmonic(self):
        state = pinem_ladder(0.5, BEAM)
        modes = (OracleMode(1, 0.1, photon_cutoff=4), OracleMode(2, 0.1, photon_cutoff=4))
        space = TruncatedSpace.for_ladder(state.cutoff, modes)
        obs = observables(space, evolve(space, state.coefficients))
        assert set(obs.mean_a) == {1, 2}
        assert set(obs.mean_n) == {1, 2}
        assert set(obs.central_moments[1]) == {2, 3}
        assert set(obs.pair_correlations) == {(1, 2)}
        assert obs.norm == pytest.approx(1.0, abs=1e-10)

    def test_zero_state_reads_zero(self):
        modes = (OracleMode(1, 0.3, photon_cutoff=4), OracleMode(2, 0.1, photon_cutoff=3))
        space = TruncatedSpace(6, modes)
        window = _window(space, (-2, 3))
        zero = np.zeros(window.states.size, dtype=complex)
        state = OracleState(window, zero, truncation_leakage(space, window, zero))
        obs = observables(space, state, moment_orders=(1, 2))
        assert obs.mean_a == obs.mean_n == {1: 0.0, 2: 0.0}
        assert obs.central_moments == {1: {1: 0.0, 2: 0.0}, 2: {1: 0.0, 2: 0.0}}
        assert obs.pair_correlations == {(1, 2): (0.0, 0.0)}
        assert (obs.norm, obs.electron_mean_level, max(obs.leakage.values())) == (0.0, 0.0, 0.0)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            OracleMode(0, 0.1)
        with pytest.raises(ValueError):
            OracleMode(1, 0.1, photon_cutoff=0)


class TestElementwiseReductions:
    """The oracle's inner products and norms are summed elementwise, never by
    BLAS, whose worker threads would spin between the calls."""

    def test_dot_agrees_with_vdot(self):
        # Relative to |a| |b|, the Cauchy-Schwarz bound on |<a|b>|: for
        # independent random vectors <a|b> itself cancels to ~sqrt(n) terms.
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 1000, 16_807):
            for _ in range(5):
                a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                scale = math.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
                assert abs(oracle._dot(a, b) - np.vdot(a, b)) <= 1e-15 * scale
                assert abs(oracle._dot(a, a) - np.vdot(a, a)) <= 1e-15 * np.vdot(a, a).real

    def test_evolve_and_observables_make_no_blas_reduction(self, monkeypatch):
        def no_vdot(*args, **kwargs):
            raise AssertionError("numpy.vdot called")

        def no_norm(*args, **kwargs):
            raise AssertionError("numpy.linalg.norm called")

        monkeypatch.setattr(np, "vdot", no_vdot)
        monkeypatch.setattr(np.linalg, "norm", no_norm)
        state = pinem_ladder(0.5, BEAM)
        modes = (OracleMode(1, 0.3, photon_cutoff=6), OracleMode(2, 0.2, photon_cutoff=6))
        space = TruncatedSpace.for_ladder(state.cutoff, modes)
        obs = observables(space, evolve(space, state.coefficients))
        assert obs.norm == pytest.approx(1.0, abs=1e-10)
        assert obs.mean_n[1] == pytest.approx(0.09, abs=1e-6)
