"""Density spectra, degree of coherence, field statistics.

Independent cross-checks used here:
  * FFT pipeline vs direct ladder-coefficient sums vs closed Bessel-sum form,
    three separately coded routes to the same quantity;
  * the closed-form band spectrum vs the FFT pipeline on its own lattice;
  * the FFT pipeline's phase table and band cut vs the whole-lattice route
    with e^{i omega t0} evaluated at every bin;
  * Gaussian envelope vs the analytic Gaussian Fourier transform;
  * central moments vs direct numerical expectation integrals over the
    synthesized density.
"""

import math
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analytic_pinem_overlap
from clcoherence import (
    BeamParameters,
    CoherentField,
    DensitySpectrum,
    EnvelopeSpec,
    FlatCoupling,
    GridCoverageError,
    PhysicsGuardError,
    ReferencePulse,
    band_spectrum,
    central_moment,
    coupling_amplitude,
    density_spectrum,
    doc,
    doc_map,
    ladder_overlap,
    ladder_spectrum,
    mean_field,
    mean_photon_number,
    optimal_bunching_distance,
    pair_correlation,
    pinem_ladder,
    propagate,
    spectral_width,
    synthesize_density,
    time_domain_field,
)
from clcoherence.config import LIMITS, ScenarioConfig
from clcoherence.constants import TWO_PI
from clcoherence import scenarios, spectra
from clcoherence.scenarios import build_state, run_scenario
from clcoherence.estate import SamplingLattice, propagation_phase
from clcoherence.spectra import (
    _DOC_MAP_BLOCK,
    _next_fast_len,
    _require_uniform,
)

BEAM = BeamParameters.from_wavelength(200e3, 800.0)
W0 = BEAM.omega0
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fft_spectrum(beta, distance_nm=0.0, mode="exact", envelope=EnvelopeSpec("infinite")):
    state = pinem_ladder(beta, BEAM)
    if distance_nm:
        state = propagate(state, distance_nm, mode=mode)
    return state, density_spectrum(synthesize_density(state, envelope))


class TestFFTPipeline:
    def test_matches_ladder_sums(self):
        # Sampled-density FFT and the direct coefficient sums agree to 1e-8.
        state, spec = fft_spectrum(4.0, 6.43e6)
        for n in range(-12, 13):
            direct = ladder_overlap(state, n)
            sampled = spec.value_at(n * W0)
            assert abs(direct - sampled) < 1e-8

    def test_infinite_envelope_off_harmonics_vanish(self):
        # Periodic density: every non-harmonic lattice bin is exactly zero
        # up to roundoff (discrete orthogonality).
        state, spec = fft_spectrum(4.0, 6.43e6)
        per = int(round(W0 / spec.domega))
        assert per > 1  # several lattice bins between harmonics
        off = np.ones(spec.omega_grid.size, dtype=bool)
        harmonic_idx = np.nonzero(
            np.abs(np.remainder(spec.omega_grid / W0 + 0.5, 1.0) - 0.5) < 1e-9
        )[0]
        off[harmonic_idx] = False
        assert np.max(np.abs(spec.values[off])) < 1e-10

    def test_gaussian_envelope_closed_form(self):
        # Unmodulated beam, 200 fs Gaussian density: |F| = exp(-w^2 D^2/(16 ln2)).
        fwhm = 200.0
        _, spec = fft_spectrum(0.0, envelope=EnvelopeSpec("gaussian", fwhm_fs=fwhm))
        w = spec.omega_grid
        sel = np.abs(w) < 0.12  # out to |F| ~ 1e-23
        expected = np.exp(-(w[sel] ** 2) * fwhm**2 / (16.0 * math.log(2.0)))
        np.testing.assert_allclose(spec.values[sel].real, expected, atol=5e-9)
        np.testing.assert_allclose(spec.values[sel].imag, 0.0, atol=5e-9)

    def test_zero_distance_harmonics_vanish(self):
        # Pure phase modulation has a flat density: F(n != 0) = 0.
        state, spec = fft_spectrum(4.0, 0.0)
        for n in range(1, 21):
            assert abs(spec.value_at(n * W0)) < 1e-10
            assert abs(ladder_overlap(state, n)) < 1e-10


# (|beta|, distance in nm): zero distance and the bunching optimum, which sits
# near 6.47 mm at |beta| = 4 and scales as 1/|beta|; |beta| = 0 takes the
# |beta| = 4 distance.
BAND_STATES = [
    (beta_abs, distance)
    for beta_abs in (0.0, 1.0, 4.0)
    for distance in (0.0, 6.47e6 * 4.0 / (beta_abs or 4.0))
]
BAND_ENVELOPES = [
    EnvelopeSpec("gaussian", fwhm_fs=200.0),
    EnvelopeSpec("gaussian", fwhm_fs=50.0),
    EnvelopeSpec("gaussian", fwhm_fs=3.0),
    EnvelopeSpec("infinite"),
]


def assert_band_matches_fft(state, envelope, max_omega):
    """band_spectrum equals the FFT route's lattice exactly and its values to 1e-8."""
    ref = density_spectrum(synthesize_density(state, envelope))
    band = band_spectrum(state, envelope, -max_omega, max_omega)
    shared = np.abs(ref.omega_grid) <= max_omega
    np.testing.assert_array_equal(band.omega_grid, ref.omega_grid[shared])
    assert np.max(np.abs(band.values - ref.values[shared])) <= 1e-8
    return band


class TestBandSpectrum:
    @pytest.mark.parametrize("envelope", BAND_ENVELOPES, ids=lambda e: f"{e.kind}-{e.fwhm_fs}")
    @pytest.mark.parametrize("beta_abs,distance", BAND_STATES)
    def test_matches_fft_route(self, envelope, beta_abs, distance):
        state = pinem_ladder(beta_abs, BEAM)
        if distance:
            state = propagate(state, distance)
        assert_band_matches_fft(state, envelope, 2.3 * W0)

    def test_normalization_is_the_line_sum_at_zero(self):
        # 3 fs lines overlap: sum_n L_n e^{-a (n w0)^2} is not L_0, so dividing
        # by L_0 instead would miss the FFT route by ~5e-3.
        state = propagate(pinem_ladder(4.0, BEAM), 6.47e6)
        envelope = EnvelopeSpec("gaussian", fwhm_fs=3.0)
        a = envelope.fwhm_fs**2 / (16.0 * math.log(2.0))
        n = np.arange(-2 * state.cutoff, 2 * state.cutoff + 1)
        lines = np.array([ladder_overlap(state, k) for k in n])
        norm = np.sum(lines * np.exp(-a * (n * W0) ** 2))
        assert abs(norm - 1.0) > 1e-3
        band = assert_band_matches_fft(state, envelope, 2.3 * W0)
        k = np.argmin(np.abs(band.omega_grid - W0))
        expected = np.sum(lines * np.exp(-a * (band.omega_grid[k] - n * W0) ** 2)) / norm
        assert abs(band.values[k] - expected) < 1e-13

    @pytest.mark.parametrize("beta_abs", [4.0, 60.0])
    @pytest.mark.parametrize(
        "envelope,window",
        [
            (EnvelopeSpec("gaussian", fwhm_fs=50.0), 500.0),
            (EnvelopeSpec("infinite"), 100.0 * BEAM.optical_period),
        ],
    )
    def test_explicit_window(self, envelope, window, beta_abs):
        # |beta| = 60 samples 512 times a period, |beta| = 4 256 times
        state = propagate(pinem_ladder(beta_abs, BEAM), 6.47e6 * 4.0 / beta_abs)
        assert_band_matches_fft(state, replace(envelope, window_fs=window), 2.3 * W0)

    def test_band_beyond_nyquist_is_the_whole_lattice(self):
        state = propagate(pinem_ladder(1.0, BEAM), 2.0e7)
        band = assert_band_matches_fft(state, EnvelopeSpec("infinite"), math.inf)
        assert band.omega_grid.size == 256 * 64

    @pytest.mark.parametrize(
        "envelope",
        [
            EnvelopeSpec("gaussian", fwhm_fs=200.0, window_fs=100.0),
            EnvelopeSpec("infinite", window_fs=10 * BEAM.optical_period),
        ],
        ids=["gaussian", "infinite"],
    )
    def test_same_guards_as_the_fft_route(self, envelope):
        # a window below 8 fwhm, resp. 64 periods
        state = pinem_ladder(1.0, BEAM)
        with pytest.raises(ValueError, match="window"):
            synthesize_density(state, envelope)
        with pytest.raises(ValueError, match="window"):
            band_spectrum(state, envelope, -2.0 * W0, 2.0 * W0)

    @pytest.mark.parametrize("max_omega", [0.0, -1.0, math.nan])
    def test_max_omega_must_be_positive(self, max_omega):
        with pytest.raises(ValueError):
            band_spectrum(pinem_ladder(1.0, BEAM), EnvelopeSpec("infinite"), -max_omega, max_omega)

    @pytest.mark.parametrize("low, high", [(0.5 * W0, 2.0 * W0), (-2.0 * W0, -0.5 * W0)])
    def test_range_must_hold_zero(self, low, high):
        with pytest.raises(ValueError, match="omega = 0"):
            band_spectrum(pinem_ladder(1.0, BEAM), EnvelopeSpec("infinite"), low, high)

    # waveguide and pulse-shape read 0..hi, whose lattice holds no -omega partner:
    # the Hermitian guard is kept in reach here, on the symmetric range
    @pytest.mark.parametrize("envelope", BAND_ENVELOPES, ids=lambda e: f"{e.kind}-{e.fwhm_fs}")
    @pytest.mark.parametrize("beta_abs,distance", BAND_STATES)
    def test_symmetric_range_is_hermitian(self, envelope, beta_abs, distance):
        state = propagate(pinem_ladder(beta_abs, BEAM), distance)
        band = band_spectrum(state, envelope, -2.3 * W0, 2.3 * W0)
        w, v = band.omega_grid, band.values
        assert w.size % 2 == 1 and np.array_equal(w, -w[::-1])
        assert np.max(np.abs(v - np.conj(v[::-1]))) <= spectra._HERMITIAN_TOL

    @pytest.mark.parametrize("envelope", BAND_ENVELOPES, ids=lambda e: f"{e.kind}-{e.fwhm_fs}")
    @pytest.mark.parametrize("low, high", [(0.0, 1.5), (-0.16, 2.3), (-2.3, 0.0)])
    def test_range_is_the_symmetric_cut_bit_for_bit(self, envelope, low, high):
        state = propagate(pinem_ladder(4.0, BEAM), 6.47e6)
        whole = band_spectrum(state, envelope, -2.3 * W0, 2.3 * W0)
        band = band_spectrum(state, envelope, low * W0, high * W0)
        shared = (whole.omega_grid >= low * W0) & (whole.omega_grid <= high * W0)
        assert band.omega_grid.tobytes() == whole.omega_grid[shared].tobytes()
        assert band.values.tobytes() == whole.values[shared].tobytes()

    def test_detect_lattice_peak_is_its_arrays_and_one_temporary(self):
        # the shipped detect run's spectrum: guards and all, the peak is its omega and
        # F (24 B a point), the integer k of the cut (8 B) and one complex temporary
        # (16 B); the whole-lattice mask and the guards' copies took 56 B a point
        cfg = ScenarioConfig.from_file("detect", CONFIGS / "detect.json")
        state = build_state(cfg)
        band_spectrum(state, cfg.envelope, *cfg.lattice_range)  # first-call allocations
        tracemalloc.start()
        try:
            spec = band_spectrum(state, cfg.envelope, *cfg.lattice_range)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * spec.omega_grid.size


def exp_phase_spectrum(density):
    """(omega, F) by the full-lattice route: np.fft.ifft, e^{i omega t0} evaluated
    at every bin, t0 = -N dt/2, then both arrays fftshifted."""
    n_fft = density.lattice.n_fft
    raw = np.fft.ifft(density.samples, n=n_fft) * (n_fft * density.dt)
    omega = TWO_PI * np.fft.fftfreq(n_fft, d=density.dt)
    values = raw * np.exp(1j * omega * (-0.5 * density.samples.size * density.dt))
    return np.fft.fftshift(omega), np.fft.fftshift(values)


FFT_CASES = [
    (4.0, 6.47e6, EnvelopeSpec("gaussian", fwhm_fs=200.0)),
    (1.0, 2.588e7, EnvelopeSpec("gaussian", fwhm_fs=3.0)),
    (4.0, 6.47e6, EnvelopeSpec("infinite")),
]
FFT_CASE_IDS = ["gaussian-200", "gaussian-3", "infinite"]


def fft_case_density(beta_abs, distance, envelope):
    return synthesize_density(propagate(pinem_ladder(beta_abs, BEAM), distance), envelope)


class TestDensitySpectrumBand:
    @pytest.mark.parametrize("case", FFT_CASES, ids=FFT_CASE_IDS)
    def test_phase_table_matches_per_bin_exp(self, case):
        density = fft_case_density(*case)
        spec = density_spectrum(density)
        omega, values = exp_phase_spectrum(density)
        np.testing.assert_array_equal(spec.omega_grid, omega)
        assert np.max(np.abs(spec.values - values)) <= 1e-10

    @pytest.mark.parametrize(
        "max_omega", [0.7 * W0, 2.3 * W0, 24.0 * W0 * (1.0 + 1e-12), 1.0e6 * W0]
    )
    @pytest.mark.parametrize("case", FFT_CASES, ids=FFT_CASE_IDS)
    def test_band_is_the_whole_lattice_cut(self, case, max_omega):
        density = fft_case_density(*case)
        whole = density_spectrum(density)
        band = density_spectrum(density, max_omega)
        shared = np.abs(whole.omega_grid) <= max_omega
        np.testing.assert_array_equal(band.omega_grid, whole.omega_grid[shared])
        np.testing.assert_array_equal(band.values, whole.values[shared])

    @pytest.mark.parametrize("max_omega", [0.0, -1.0, math.nan])
    def test_max_omega_must_be_positive(self, max_omega):
        with pytest.raises(ValueError, match="max_omega"):
            density_spectrum(fft_case_density(*FFT_CASES[2]), max_omega)


class TestDensitySpectrumFold:
    """density_spectrum(d, top, step) transforms the padded density folded modulo
    n/step; it must give every step-th bin of the whole transform."""

    TOP = 24.0 * W0 * (1.0 + 1e-12)
    # measured at most 3.4e-16 over these cases (|F| <= 1, so absolute)
    FOLD_TOL = 1e-15

    def assert_is_every_step_th_bin(self, density, step):
        whole = density_spectrum(density, self.TOP)
        folded = density_spectrum(density, self.TOP, step)
        first = (whole.omega_grid.size // 2) % step  # the first bin k = 0 (mod step)
        np.testing.assert_array_equal(folded.omega_grid, whole.omega_grid[first::step])
        assert np.max(np.abs(folded.values - whole.values[first::step])) <= self.FOLD_TOL

    # 2: a zero-padded rfft, no fold; 10: a fold with a remainder; 16 and
    # periods x pad (one period, the harmonics only): folds into whole rows
    @pytest.mark.parametrize("step", [2, 10, 16, 1200 * 8])
    def test_gaussian_fold_is_every_step_th_bin(self, step):
        density = fft_case_density(*FFT_CASES[0])
        assert density.lattice.periods == 1200
        self.assert_is_every_step_th_bin(density, step)

    @pytest.mark.parametrize("step", [1, 64])
    def test_infinite_fold_is_every_step_th_bin(self, step):
        density = fft_case_density(*FFT_CASES[2])
        assert density.lattice.periods == 64
        self.assert_is_every_step_th_bin(density, step)

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info < (3, 11),
        reason="a Python call hands its arguments to the callee's frame from CPython 3.11",
    )
    def test_doc_slice_frees_its_density_before_the_large_rfft(self, monkeypatch, tmp_path):
        # the density's one reference goes into spectrum.csv's transform, which
        # drops it once folded: the samples are gone when the rfft starts
        samples, alive_at = [], []
        synthesize, rfft = scenarios.synthesize_density, spectra.rfft

        def tracked_synthesis(*args):
            density = synthesize(*args)
            samples.append(weakref.ref(density.samples))
            return density

        def tracked_rfft(x, n):
            alive_at.append((n, samples[0]() is not None))
            return rfft(x, n=n)

        monkeypatch.setattr(scenarios, "synthesize_density", tracked_synthesis)
        monkeypatch.setattr(spectra, "rfft", tracked_rfft)
        cfg = ScenarioConfig.from_file("doc-slice", CONFIGS / "doc_slice.json")
        run_scenario(cfg, tmp_path)
        assert alive_at == [(256, True), (245760, False)]

    @pytest.mark.parametrize("step", [0, -10, 7, 3943, 2457600 * 2, math.nan])
    def test_step_must_divide_the_padded_length(self, step):
        density = fft_case_density(*FFT_CASES[0])
        assert 8 * density.samples.size == 2457600
        with pytest.raises(ValueError, match="must divide the padded length 2457600"):
            density_spectrum(density, self.TOP, step)


class TestLatticeSpanLimit:
    """A config is refused at load when its lattice needs more than
    LIMITS["lattice_span"] steps up to its top; up to that, omega_k = 2 pi (k val)
    keeps its steps within the 1e-9 uniformity check."""

    LIMIT = LIMITS["lattice_span"].limit

    @pytest.mark.parametrize("pad", [8, 1], ids=["x8 padded", "unpadded"])
    @pytest.mark.parametrize(
        "period_fs, per_period", [(BEAM.optical_period, 256), (1.2 / 299.792458, 300), (35.36, 509)]
    )
    def test_lattice_at_the_limit_is_uniform(self, pad, period_fs, per_period):
        periods = int(self.LIMIT / (24 * pad))
        max_omega = 24 * TWO_PI / period_fs
        lattice = SamplingLattice(period_fs / per_period, per_period, periods, pad)
        _, omega = lattice.frequencies(-max_omega, max_omega)
        assert 0.99 * self.LIMIT < omega.size // 2 <= self.LIMIT  # steps from 0 up to the top
        _require_uniform(omega, "omega")

    @pytest.mark.parametrize(
        "scenario, name",
        [
            ("doc-slice", "doc_slice"),
            ("doc-slice", "doc_slice_infinite"),
            ("waveguide", "waveguide"),
            ("pulse-shape", "pulse_shape"),
            ("detect", "detect"),
        ],
        ids=["gaussian-200", "infinite", "waveguide", "pulse-shape", "detect"],
    )
    def test_span_is_the_steps_up_to_the_top(self, scenario, name):
        # a top on a lattice point (24 omega0, 1.5 omega0) may round to either side of it
        cfg = ScenarioConfig.from_file(scenario, CONFIGS / f"{name}.json")
        spec = band_spectrum(build_state(cfg), cfg.envelope, *cfg.lattice_range)
        sizes = cfg.sizes()
        steps = sizes["lattice_span"]
        assert round(spec.omega_grid[-1] / spec.domega) in (steps - 1, steps)
        if scenario == "doc-slice":  # the load-time count is the array the run builds
            density = synthesize_density(build_state(cfg), cfg.envelope)
            assert sizes["samples"] == density.lattice.n_fft


def former_uniform(x) -> bool:
    """The uniformity test as a max over |steps - steps[0]|."""
    steps = np.diff(x)
    return bool(
        steps[0] > 0.0
        and np.max(np.abs(steps - steps[0])) <= spectra._UNIFORM_TOL * steps[0]
    )


# moves of a point, in units of the tolerance on one step: either side of its edge
BUMPS = [-2.0, -1.0000001, -1.0, -0.9999999, 0.5, 0.9999999, 1.0, 1.0000001]


class TestRequireUniform:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        origin=st.floats(min_value=-1e3, max_value=1e3),
        step=st.floats(min_value=1e-6, max_value=10.0),
        bumps=st.lists(
            st.tuples(st.integers(min_value=0, max_value=39), st.sampled_from(BUMPS)),
            max_size=3,
        ),
        nan_at=st.sampled_from([None, "first", "middle", "last"]),
    )
    def test_decides_as_the_max_abs_form(self, n, origin, step, bumps, nan_at):
        x = origin + step * np.arange(n)
        for i, size in bumps:  # move a point by about the tolerance on one step
            x[i % n] += size * spectra._UNIFORM_TOL * step
        if nan_at is not None:
            x[{"first": 0, "middle": n // 2, "last": n - 1}[nan_at]] = math.nan
        uniform = former_uniform(x)
        if nan_at is not None:
            assert not uniform
        if uniform:
            _require_uniform(x, "x")
        else:
            with pytest.raises(ValueError, match="uniform and ascending"):
                _require_uniform(x, "x")


class TestNumpyFFTAgainstScipy:
    """The numpy.fft routes give scipy.fft's lengths and bits."""

    def test_next_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len

        for n in [*range(1, 5001), 65537, 10**6 + 1]:
            assert _next_fast_len(n) == next_fast_len(n), n

    @pytest.mark.parametrize("name", ["doc_slice", "doc_slice_infinite"])
    def test_rfft_band_is_scipy_ifft_bit_for_bit(self, name):
        # the shipped doc-slice densities through the scipy.fft.ifft route
        from scipy.fft import ifft

        cfg = ScenarioConfig.from_file("doc-slice", CONFIGS / f"{name}.json")
        state = build_state(cfg)
        density = synthesize_density(state, cfg.envelope)
        max_omega = min(2 * state.cutoff, 24) * cfg.beam.omega0 * (1.0 + 1e-12)
        spec = density_spectrum(density, max_omega, step=1)  # no fold: the whole transform

        pad, n_fft = density.lattice.pad, density.lattice.n_fft
        k, omega = density.lattice.frequencies(-max_omega, max_omega)
        phase = np.exp(-1j * np.pi / pad * np.arange(2 * pad))
        ref = ifft(density.samples, n=n_fft)[k] * (n_fft * density.dt) * phase[k % (2 * pad)]
        assert spec.omega_grid.tobytes() == omega.tobytes()
        assert spec.values.tobytes() == ref.tobytes()


class TestAnalyticOverlap:
    @pytest.mark.parametrize("beta_abs", [1.0, 4.0])
    @pytest.mark.parametrize("x", [0.0, 0.01, 0.25])
    def test_matches_ladder_route(self, beta_abs, x):
        state = pinem_ladder(beta_abs, BEAM)
        state = propagate(state, x * BEAM.talbot_distance, mode="quadratic")
        for n in range(-8, 9):
            closed = analytic_pinem_overlap(beta_abs, n, x)
            direct = ladder_overlap(state, n)
            assert abs(closed - direct) < 1e-10

    def test_zero_beta(self):
        assert analytic_pinem_overlap(0.0, 0, 0.3) == 1.0
        assert analytic_pinem_overlap(0.0, 3, 0.3) == 0.0

    def test_normalization_any_distance(self):
        for x in (0.0, 0.123, 0.5):
            assert analytic_pinem_overlap(2.0, 0, x) == pytest.approx(1.0, abs=1e-12)


class TestDensitySpectrumValidation:
    def _grid(self, n=9):
        return np.linspace(-4, 4, n) * 1.0

    def test_f0_must_be_one(self):
        v = np.full(9, 0.5, dtype=complex)
        with pytest.raises(PhysicsGuardError):
            DensitySpectrum(self._grid(), v)

    def test_hermitian_symmetry_enforced(self):
        v = np.zeros(9, dtype=complex)
        v[4] = 1.0
        v[5] = 0.3 + 0.1j
        v[3] = 0.3 + 0.1j  # should be conj
        with pytest.raises(PhysicsGuardError):
            DensitySpectrum(self._grid(), v)

    def test_modulus_bound_enforced(self):
        v = np.zeros(9, dtype=complex)
        v[4] = 1.0
        v[5] = 1.5
        v[3] = 1.5
        with pytest.raises(PhysicsGuardError):
            DensitySpectrum(self._grid(), v)

    def test_grid_must_be_uniform(self):
        g = self._grid().copy()
        g[7] += 0.2
        v = np.zeros(9, dtype=complex)
        v[4] = 1.0
        with pytest.raises(ValueError):
            DensitySpectrum(g, v)

    def test_grid_must_contain_zero(self):
        g = self._grid() + 0.5
        v = np.zeros(9, dtype=complex)
        v[4] = 1.0
        with pytest.raises(ValueError):
            DensitySpectrum(g, v)

    def test_nan_at_zero_trips_f0_guard(self):
        v = np.zeros(9, dtype=complex)
        v[4] = math.nan
        with pytest.raises(PhysicsGuardError, match=r"F\(0\)"):
            DensitySpectrum(self._grid(), v)

    def test_nan_at_both_ends_trips_hermitian_guard(self):
        v = np.zeros(9, dtype=complex)
        v[4] = 1.0
        v[0] = v[-1] = math.nan
        with pytest.raises(PhysicsGuardError, match="Hermitian"):
            DensitySpectrum(self._grid(), v)

    def test_nan_without_mirror_point_trips_modulus_guard(self):
        # grid -4..5: the last point has no -omega partner to compare with
        grid = np.arange(-4.0, 6.0)
        v = np.zeros(10, dtype=complex)
        v[4] = 1.0
        v[-1] = math.nan
        with pytest.raises(PhysicsGuardError, match=r"\|F\| exceeds"):
            DensitySpectrum(grid, v)

    # the lattices of waveguide and pulse-shape (0..hi) and of detect (-(hi - lo)..2 hi)
    @pytest.mark.parametrize("below, above", [(0, 8), (8, 0), (2, 8), (8, 3)])
    def test_one_sided_grid_checks_the_pairs_it_holds(self, below, above):
        grid = np.arange(-below, above + 1) * 0.25
        v = np.zeros(grid.size, dtype=complex)
        v[below] = 1.0
        v[0 if below > above else -1] = 0.3j  # the outermost point has no partner
        DensitySpectrum(grid, v)
        pairs = min(below, above)
        if pairs:  # a breach on the outermost pair
            v[below - pairs] = v[below + pairs] = 0.3j
            with pytest.raises(PhysicsGuardError, match="Hermitian"):
                DensitySpectrum(grid, v)

    @pytest.mark.parametrize("grid", [np.arange(0.0, 9.0), np.arange(-8.0, 1.0)])
    @pytest.mark.parametrize("offset", [1e-12, -1e-12])
    def test_zero_found_at_either_end_within_its_snap(self, grid, offset):
        v = np.zeros(grid.size, dtype=complex)
        v[np.argmin(np.abs(grid))] = 1.0
        DensitySpectrum(grid + offset, v)
        with pytest.raises(ValueError, match="omega = 0"):
            DensitySpectrum(grid + 0.5, v)

    def test_value_at_snaps_and_guards(self):
        state = pinem_ladder(1.0, BEAM)
        spec = ladder_spectrum(state, n_max=6)
        # Tiny numerical offsets snap onto the lattice.
        assert spec.value_at(2 * W0 * (1 + 1e-9)) == spec.value_at(2 * W0)
        with pytest.raises(GridCoverageError):
            spec.value_at(2.5 * W0)  # between lattice points
        with pytest.raises(GridCoverageError):
            spec.value_at(7 * W0)  # outside covered range

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_value_at_rejects_non_finite_frequency(self, omega):
        spec = ladder_spectrum(pinem_ladder(2.0, BEAM))
        with pytest.raises(GridCoverageError):
            spec.value_at(omega)


def _band(n=5):
    return W0 * np.arange(1.0, n + 1.0)


# Each guard on a frequency or time grid, fed that grid: (error, call).
GRID_GUARDS = {
    "spectrum lattice": (
        ValueError,
        lambda g: DensitySpectrum(g - 3.0 * W0, np.eye(1, g.size, 2)[0]),
    ),
    "spectrum lookup": (
        GridCoverageError,
        lambda g: ladder_spectrum(pinem_ladder(2.0, BEAM)).value_at(g),
    ),
    "coherent field": (ValueError, lambda g: CoherentField(g, np.ones(g.size))),
    "reference pulse": (ValueError, lambda g: ReferencePulse(g, np.ones(g.size))),
    "coupling amplitude": (
        ValueError,
        lambda g: coupling_amplitude(FlatCoupling(1.0, 0.5 * W0, 5.5 * W0), g),
    ),
    "time grid": (ValueError, lambda g: time_domain_field(CoherentField(_band(), np.ones(5)), g)),
}


@pytest.mark.parametrize("position", [0, 2, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("guard", sorted(GRID_GUARDS))
def test_grid_guards_reject_nan(guard, position):
    """A NaN anywhere in a grid trips its guard: each check is written so that NaN fails it."""
    error, call = GRID_GUARDS[guard]
    grid = _band()
    grid[position] = math.nan
    with pytest.raises(error):
        call(grid)


class TestDegreeOfCoherence:
    def test_unit_at_zero_frequency(self):
        for beta, d in [(1.0, 0.0), (4.0, 6.43e6), (2.0, 1.0e7)]:
            state, spec = fft_spectrum(beta, d)
            assert doc(spec, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_in_harmonic(self):
        state, spec = fft_spectrum(4.0, 6.43e6)
        for n in range(1, 15):
            assert doc(spec, n * W0) == pytest.approx(doc(spec, -n * W0), abs=1e-12)

    def test_doc_map_matches_pointwise_propagation(self):
        state = pinem_ladder(4.0, BEAM)
        distances = np.array([0.0, 2.0e6, 6.43e6, 1.1e7])
        dm = doc_map(state, distances, n_max=10)
        assert dm.shape == (11, 4)
        for col, d in enumerate(distances):
            moved = propagate(state, d)
            for n in range(11):
                expected = abs(ladder_overlap(moved, n)) ** 2
                assert dm[n, col] == pytest.approx(expected, abs=1e-12)

    def test_doc_map_quadratic_mode(self):
        state = pinem_ladder(1.0, BEAM)
        d = np.array([0.0, 0.1 * BEAM.talbot_distance])
        dm = doc_map(state, d, n_max=4, mode="quadratic")
        for n in range(5):
            expected = abs(analytic_pinem_overlap(1.0, n, 0.1)) ** 2
            assert dm[n, 1] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])  # inf: refused, not a NaN row
    def test_doc_map_rejects_negative_or_nan_distance(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            doc_map(pinem_ladder(2.0, BEAM), np.array([0.0, bad, 1.0e6]), n_max=3)

    def test_doc_zero_row_is_unity(self):
        state = pinem_ladder(2.0, BEAM)
        dm = doc_map(state, np.linspace(0, 1e7, 11), n_max=3)
        np.testing.assert_allclose(dm[0], 1.0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "quadratic"])
    def test_doc_map_matches_propagate_in_each_mode(self, mode):
        # doc_map and propagate share one propagation phase; both modes agree
        state = pinem_ladder(3.0 * np.exp(0.7j), BEAM)
        distances = np.array([0.0, 0.13, 0.5, 1.37]) * BEAM.talbot_distance
        dm = doc_map(state, distances, n_max=8, mode=mode)
        for col, d in enumerate(distances):
            moved = propagate(state, d, mode)
            for n in range(9):
                expected = abs(ladder_overlap(moved, n)) ** 2
                assert dm[n, col] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "quadratic"])
    @pytest.mark.parametrize(
        "size",
        [1, 2, _DOC_MAP_BLOCK - 1, _DOC_MAP_BLOCK, _DOC_MAP_BLOCK + 1, 2 * _DOC_MAP_BLOCK + 1, 2001],
    )
    def test_doc_map_blocks_match_one_block_bit_for_bit(self, size, mode):
        # The reference builds every distance's amplitudes in one block.  A block
        # one distance wide sums its levels pairwise, so a split that leaves one
        # (257 or 513 distances into blocks of 256) moves the last bit.
        state = pinem_ladder(4.0, BEAM)
        d = np.linspace(0.0, 2.0e7, size)
        amp = state.coefficients[:, None] * propagation_phase(BEAM, state.level_indices, d, mode)
        levels = amp.shape[0]
        expected = np.array(
            [np.abs(np.sum(np.conj(amp[: levels - n]) * amp[n:], axis=0)) ** 2 for n in range(41)]
        )
        np.testing.assert_array_equal(doc_map(state, d, n_max=40, mode=mode), expected)

    def test_doc_map_rejects_an_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown propagation mode 'paraxial'"):
            doc_map(pinem_ladder(1.0, BEAM), np.array([1.0e6]), mode="paraxial")


class TestSpectralWidth:
    def test_one_dimensional(self):
        docs = np.array([1.0, 0.5, 0.2, 0.005, 0.02, 1e-6])
        assert spectral_width(docs) == 4
        assert spectral_width(docs, threshold=0.1) == 2

    def test_matrix_per_column(self):
        m = np.array([[1.0, 1.0], [0.5, 0.001], [0.02, 0.0]])
        np.testing.assert_array_equal(spectral_width(m), [2, 0])

    def test_all_below_threshold(self):
        assert spectral_width(np.array([0.001, 0.001])) == 0


class TestOptimalBunchingDistance:
    def test_narrow_scan_lands_on_plateau(self):
        # Scan a narrow bracket around the known optimum to keep this fast;
        # the full-range behaviour is exercised by the acceptance gate.
        opt = optimal_bunching_distance(
            pinem_ladder(4.0, BEAM),
            d_min=5.5e6,
            d_max=8.0e6,
            coarse_step=5.0e4,
            refine_tol=1.0e3,
            threshold=0.01,
            n_scan=40,
        )
        assert opt.width == 17
        assert 6.0e6 < opt.distance < 7.2e6
        # The optimum must sit inside the reported plateau of maximal width.
        top = opt.coarse_distances[opt.coarse_widths == opt.width]
        assert top.min() - 5e4 <= opt.distance <= top.max() + 5e4

    def test_carries_the_coarse_doc_map(self):
        state = pinem_ladder(4.0, BEAM)
        opt = optimal_bunching_distance(
            state,
            d_min=5.5e6,
            d_max=8.0e6,
            coarse_step=5.0e4,
            refine_tol=1.0e3,
            threshold=0.01,
            n_scan=40,
        )
        expected = doc_map(state, opt.coarse_distances, n_max=40)
        np.testing.assert_array_equal(opt.coarse_doc, expected)
        np.testing.assert_array_equal(opt.coarse_widths, spectral_width(expected))


class TestCoherentField:
    def setup_method(self):
        self.state, self.spec = fft_spectrum(4.0, 6.43e6)
        self.model = FlatCoupling(0.05, 0.5 * W0, 20.5 * W0)

    def test_values_are_g_times_f(self):
        field = mean_field(self.model, self.spec, band=(0.9 * W0, 5.1 * W0))
        recomputed = 0.05 * self.spec.value_at(field.omega_grid)
        np.testing.assert_allclose(field.a_mean, recomputed, atol=1e-15)

    def test_modulus_never_exceeds_coupling(self):
        field = mean_field(self.model, self.spec, band=(0.9 * W0, 20.1 * W0))
        assert np.all(np.abs(field.a_mean) <= 0.05 * (1 + 1e-9))

    def test_band_validation(self):
        with pytest.raises(ValueError):
            mean_field(self.model, self.spec, band=(3.0, 1.0))

    def test_nan_coupling_trips_the_cap(self):
        # FlatCoupling refuses a NaN g0 when built: set it past that check
        model = FlatCoupling(0.05, 0.5 * W0, 20.5 * W0)
        object.__setattr__(model, "g0", complex(math.nan, 0.0))
        with pytest.raises(PhysicsGuardError, match="exceeds"):
            mean_field(model, self.spec, band=(0.9 * W0, 5.1 * W0))

    def test_mean_photon_number_is_state_independent(self):
        # <n> depends only on the coupling, not on the electron state.
        w = np.array([W0, 2 * W0, 3 * W0])
        n = mean_photon_number(self.model, w)
        np.testing.assert_allclose(n, 0.05**2, atol=1e-15)
        assert mean_photon_number(self.model, 30 * W0) == 0.0  # outside band


class TestCentralMoments:
    def _direct_integral(self, density, omega, f_omega, order):
        # <(b - F)^N> = integral rho(t) (e^{i w t} - F)^N dt, evaluated by
        # direct Riemann sum on the synthesized density: an independent route
        # that bypasses the binomial expansion entirely.
        n = density.samples.size
        t = density.dt * (np.arange(n) - 0.5 * n)  # the lattice's times, centred on t = 0
        b = np.exp(1j * omega * t)
        return np.sum(density.samples * (b - f_omega) ** order) * density.dt

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_direct_expectation_integral(self, order):
        g0 = 0.3
        state = propagate(pinem_ladder(1.0, BEAM), 6.43e6, mode="quadratic")
        dens = synthesize_density(state, EnvelopeSpec("infinite"))
        spec = density_spectrum(dens)
        model = FlatCoupling(g0, 0.5 * W0, 50 * W0)
        omega = W0
        m = central_moment(model, spec, omega, order)
        direct = g0**order * self._direct_integral(dens, omega, spec.value_at(omega), order)
        assert abs(m - direct) < 1e-10

    def test_first_central_moment_vanishes(self):
        state = propagate(pinem_ladder(1.0, BEAM), 3.0e6)
        spec = ladder_spectrum(state)
        model = FlatCoupling(0.4, 0.5 * W0, 10 * W0)
        assert abs(central_moment(model, spec, W0, 1)) < 1e-14

    def test_order_bounds(self):
        state = pinem_ladder(1.0, BEAM)
        spec = ladder_spectrum(state)
        model = FlatCoupling(0.4, 0.5 * W0, 10 * W0)
        for bad in (0, 9, -1):
            with pytest.raises(ValueError):
                central_moment(model, spec, W0, bad)

    def test_lattice_coverage_guard(self):
        state = pinem_ladder(1.0, BEAM)
        spec = ladder_spectrum(state, n_max=4)
        model = FlatCoupling(0.4, 0.5 * W0, 10 * W0)
        # order 2 at omega = 3*w0 needs F(6*w0), outside the n_max=4 lattice.
        with pytest.raises(GridCoverageError):
            central_moment(model, spec, 3 * W0, 2)


class TestPairCorrelation:
    def test_matches_ladder_overlap(self):
        state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
        spec = ladder_spectrum(state)
        g = FlatCoupling(0.2, 0.5 * W0, 60 * W0)
        pc = pair_correlation(g, spec, W0, 2 * W0)
        b1 = ladder_overlap(state, 1)
        b3 = ladder_overlap(state, 3)
        assert abs(pc.normal - 0.2 * 0.2 * b1) < 1e-8
        assert abs(pc.anomalous - 0.2 * 0.2 * b3) < 1e-8

    def test_unmodulated_beam_decorrelated(self):
        state = pinem_ladder(0.0, BEAM)
        spec = ladder_spectrum(state, n_max=20)
        g = FlatCoupling(0.2, 0.5 * W0, 30 * W0)
        pc = pair_correlation(g, spec, W0, 2 * W0)
        assert abs(pc.normal) < 1e-14  # omega != omega': F(w0) = 0
        assert abs(pc.anomalous) < 1e-14

    def test_equal_frequency_normal_is_coupling_power(self):
        state = pinem_ladder(2.0, BEAM)
        spec = ladder_spectrum(state)
        g = FlatCoupling(0.3, 0.5 * W0, 90 * W0)
        pc = pair_correlation(g, spec, 2 * W0, 2 * W0)
        assert pc.normal == pytest.approx(0.09, abs=1e-12)

    def test_positive_frequency_required(self):
        state = pinem_ladder(1.0, BEAM)
        spec = ladder_spectrum(state)
        g = FlatCoupling(0.3, 0.5 * W0, 10 * W0)
        with pytest.raises(ValueError):
            pair_correlation(g, spec, -W0, W0)


class TestTimeDomainField:
    def test_gaussian_pulse_widths(self):
        # Flat coupling across the whole first-harmonic line turns the
        # spectral line shape back into the 200 fs temporal envelope.
        state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
        dens = synthesize_density(state, EnvelopeSpec("gaussian", fwhm_fs=200.0))
        spec = density_spectrum(dens)
        model = FlatCoupling(1.0, 0.5 * W0, 1.5 * W0)
        field = mean_field(model, spec, band=(0.5 * W0, 1.5 * W0))
        t = np.linspace(-800.0, 800.0, 2001)
        tf = time_domain_field(field, t=t)
        assert tf.fwhm_envelope == pytest.approx(200.0, rel=0.01)
        assert tf.fwhm_intensity == pytest.approx(200.0 / math.sqrt(2.0), rel=0.01)

    def test_narrow_window_returns_nan(self):
        state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
        dens = synthesize_density(state, EnvelopeSpec("gaussian", fwhm_fs=200.0))
        spec = density_spectrum(dens)
        model = FlatCoupling(1.0, 0.5 * W0, 1.5 * W0)
        field = mean_field(model, spec, band=(0.5 * W0, 1.5 * W0))
        t = np.linspace(-20.0, 20.0, 64)  # envelope never reaches half max
        tf = time_domain_field(field, t=t)
        assert math.isnan(tf.fwhm_envelope)


def direct_time_field(field, t):
    """E(t_j) = (d omega / 2 pi) sum_k <a_k> e^{-i omega_k t_j} as the direct
    O(N M) sum, kept as the reference for the chirp-z route."""
    phases = np.exp(-1j * np.asarray(t)[:, None] * field.omega_grid[None, :])
    return field.domega / (2.0 * math.pi) * (phases @ field.a_mean)


def random_band_field(n, seed):
    """A complex spectrum on n uniform points of a 0.12 rad/fs band at omega0."""
    rng = np.random.default_rng(seed)
    w = W0 - 0.06 + 0.12 * np.arange(n) / (n - 1)
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    return CoherentField(w, a)


class TestTimeDomainFieldAgainstDirectSum:
    # (N spectral points, M time samples): M < N, M > N, M = N, odd and even.
    SIZES = [(601, 200), (600, 257), (150, 901), (256, 256), (257, 257)]

    @pytest.mark.parametrize("n, m", SIZES)
    def test_matches_direct_sum(self, n, m):
        field = random_band_field(n, seed=n + m)
        t = np.linspace(-2560.0, 2560.0, m)
        direct = direct_time_field(field, t)
        fast = time_domain_field(field, t=t).values
        assert np.max(np.abs(fast - direct)) <= 1e-11 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n, m", SIZES)
    def test_matches_scipy_czt(self, n, m):
        from scipy.signal import czt

        field = random_band_field(n, seed=n + m)
        w, dw = field.omega_grid, field.domega
        t = np.linspace(-1000.0, 3000.0, m)
        tau = t[1] - t[0]
        # X_j = sum_k x_k A^{-k} W^{jk} with A = e^{i dw t_0}, W = e^{-i dw tau}
        spiral = czt(field.a_mean, m, w=np.exp(-1j * dw * tau), a=np.exp(1j * dw * t[0]))
        reference = dw / (2.0 * math.pi) * np.exp(-1j * w[0] * t) * spiral
        fast = time_domain_field(field, t=t).values
        # scipy's chirp is not centred, so it is the less accurate of the two
        assert np.max(np.abs(fast - reference)) <= 1e-9 * np.max(np.abs(reference))

    def test_default_grid_matches_direct_sum(self):
        # 512 samples over one full period 2 pi / d omega of the spectral lattice
        field = random_band_field(301, seed=5)
        span = 2.0 * math.pi / field.domega
        tf = time_domain_field(field, t=np.linspace(-0.5 * span, 0.5 * span, 512))
        direct = direct_time_field(field, tf.t)
        assert np.max(np.abs(tf.values - direct)) <= 1e-11 * np.max(np.abs(direct))

    def test_non_uniform_grids_rejected(self):
        field = random_band_field(64, seed=1)
        t = np.linspace(-100.0, 100.0, 33)
        t[5] += 1e-6 * (t[1] - t[0])
        with pytest.raises(ValueError, match="uniform"):
            time_domain_field(field, t=t)
        with pytest.raises(ValueError, match="uniform"):
            time_domain_field(field, t=t[::-1])
        w = field.omega_grid.copy()
        w[10] += 1e-6 * field.domega
        with pytest.raises(ValueError, match="uniform"):
            time_domain_field(CoherentField(w, field.a_mean), t=t[:5])


@settings(max_examples=25, deadline=None)
@given(
    mod=st.floats(min_value=0.1, max_value=5.0),
    x=st.floats(min_value=0.0, max_value=0.5),
)
def test_spectrum_invariants(mod, x):
    state = propagate(pinem_ladder(mod, BEAM), x * BEAM.talbot_distance, mode="quadratic")
    spec = ladder_spectrum(state, n_max=10)
    # DOC(0) = 1; DOC symmetric; 0 <= DOC <= 1.
    vals = doc(spec, spec.omega_grid)
    assert vals[10] == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-12)
    assert np.all(vals <= 1.0 + 1e-9)
