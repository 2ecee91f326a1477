"""Balanced-heterodyne detection: splitter algebra, Poisson sampling, noise floor."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcoherence import (
    BeamParameters,
    BeamSplitter,
    EnvelopeSpec,
    FlatCoupling,
    GaussianBandCoupling,
    GridCoverageError,
    NoiseFloorReport,
    PhysicsGuardError,
    ReferencePulse,
    band_spectrum,
    coupling_amplitude,
    density_spectrum,
    detector_means,
    ladder_spectrum,
    mean_field,
    noise_floor_terms,
    pinem_ladder,
    propagate,
    sample_shots,
    snr_estimate,
    synthesize_density,
)
from clcoherence.config import ScenarioConfig
from clcoherence.spectra import _mean_step
from clcoherence.scenarios import _band_spectrum, build_coupling, build_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BEAM = BeamParameters.from_wavelength(200e3, 800.0)
W0 = BEAM.omega0


def difference_signal(splitter, reference, field):
    """mu1 - mu2 at unit quantum efficiency, as detect's phase sweep writes it."""
    mu1, mu2 = detector_means(splitter, reference, field)
    return mu1 - mu2


def make_setup(g0=0.05, n_points=8, total_counts=1.0e4, phase=0.0):
    """Reference + CL field sharing the harmonic lattice w0 .. n*w0."""
    state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
    spectrum = ladder_spectrum(state, n_max=2 * n_points)
    model = FlatCoupling(g0, 0.5 * W0, (n_points + 0.5) * W0)
    field = mean_field(model, spectrum, band=(0.5 * W0, (n_points + 0.5) * W0))
    ref = ReferencePulse.gaussian(
        field.omega_grid, center=2.0 * W0, sigma=2.0 * W0,
        total_counts=total_counts, phase=phase,
    )
    return model, spectrum, field, ref


class TestBeamSplitter:
    def test_unitarity_enforced(self):
        with pytest.raises(ValueError):
            BeamSplitter(R=0.8, T=0.8)
        with pytest.raises(ValueError):
            BeamSplitter(R=1.0, T=0.1)

    def test_heterodyne_is_exactly_balanced(self):
        s = BeamSplitter.heterodyne()
        assert s.imbalance == 0.0  # exact float zero, not approximately
        assert s.is_balanced
        assert abs(s.kappa) == pytest.approx(1.0, abs=1e-15)

    def test_unbalanced_splitter(self):
        s = BeamSplitter(R=math.sqrt(0.4), T=math.sqrt(0.6))
        assert s.imbalance == pytest.approx(0.2, abs=1e-15)
        assert not s.is_balanced
        assert abs(s.kappa) == pytest.approx(2.0 * math.sqrt(0.24), abs=1e-15)

    def test_complex_phases_allowed(self):
        s = BeamSplitter(R=0.6 * np.exp(0.3j), T=0.8 * np.exp(-1.1j))
        assert s.imbalance == pytest.approx(0.28, abs=1e-12)


class TestDetectorMeans:
    @pytest.mark.parametrize(
        "splitter",
        [
            BeamSplitter.heterodyne(),
            BeamSplitter(R=math.sqrt(0.4), T=math.sqrt(0.6)),
            BeamSplitter(R=0.6 * np.exp(0.3j), T=0.8 * np.exp(-1.1j)),
        ],
    )
    def test_energy_conservation_any_splitter(self, splitter):
        model, spectrum, field, ref = make_setup()
        mu1, mu2 = detector_means(splitter, ref, field)
        total_in = ref.total_counts + float(
            np.sum(np.abs(field.a_mean) ** 2) * field.domega
        )
        assert mu1 + mu2 == pytest.approx(total_in, rel=1e-12)

    def test_reference_only(self):
        _, _, _, ref = make_setup()
        mu1, mu2 = detector_means(BeamSplitter.heterodyne(), ref, None)
        assert mu1 == pytest.approx(0.5 * ref.total_counts, rel=1e-12)
        assert mu2 == pytest.approx(0.5 * ref.total_counts, rel=1e-12)

    def test_quantum_efficiency_scales_means(self):
        model, spectrum, field, ref = make_setup()
        s = BeamSplitter.heterodyne()
        full = detector_means(s, ref, field)
        thinned = detector_means(s, ref, field, qe1=0.5, qe2=0.25)
        assert thinned[0] == pytest.approx(0.5 * full[0], rel=1e-14)
        assert thinned[1] == pytest.approx(0.25 * full[1], rel=1e-14)
        with pytest.raises(ValueError):
            detector_means(s, ref, field, qe1=1.5)

    def test_mismatched_grids_rejected(self):
        model, spectrum, field, ref = make_setup()
        shifted = ReferencePulse(ref.omega_grid + 0.1 * W0, ref.alpha)
        with pytest.raises(ValueError):
            detector_means(BeamSplitter.heterodyne(), shifted, field)


class TestPhaseSweep:
    def test_signal_is_sinusoidal_in_reference_phase(self):
        model, spectrum, field, ref = make_setup(g0=0.2)
        s = BeamSplitter.heterodyne()
        phases = np.linspace(0.0, 2.0 * math.pi, 25, endpoint=False)
        signal = np.array(
            [difference_signal(s, ref.with_phase(p), field) for p in phases]
        )
        # Least-squares fit S = A cos(phi) + B sin(phi) + C.
        design = np.column_stack([np.cos(phases), np.sin(phases), np.ones_like(phases)])
        coef, *_ = np.linalg.lstsq(design, signal, rcond=None)
        fit = design @ coef
        amplitude = math.hypot(coef[0], coef[1])
        assert np.max(np.abs(signal - fit)) < 1e-9 * amplitude
        assert abs(coef[2]) < 1e-9 * amplitude  # no DC offset when balanced

    def test_amplitude_bounded_by_cauchy_schwarz(self):
        model, spectrum, field, ref = make_setup(g0=0.2)
        s = BeamSplitter.heterodyne()
        p_cl = float(np.sum(np.abs(field.a_mean) ** 2) * field.domega)
        bound = 2.0 * math.sqrt(ref.total_counts * p_cl)
        phases = np.linspace(0.0, 2.0 * math.pi, 720)
        peak = max(abs(difference_signal(s, ref.with_phase(p), field)) for p in phases)
        assert peak <= bound * (1.0 + 1e-12)

    def test_bound_saturated_by_matched_reference(self):
        # alpha proportional to <a> with the right phase meets the bound.
        model, spectrum, field, _ = make_setup(g0=0.2)
        alpha = 50.0 * field.a_mean * np.exp(0.4j)
        ref = ReferencePulse(field.omega_grid, alpha)
        s = BeamSplitter.heterodyne()
        p_cl = float(np.sum(np.abs(field.a_mean) ** 2) * field.domega)
        bound = 2.0 * math.sqrt(ref.total_counts * p_cl)
        phases = np.linspace(0.0, 2.0 * math.pi, 4001)
        peak = max(abs(difference_signal(s, ref.with_phase(p), field)) for p in phases)
        assert peak == pytest.approx(bound, rel=1e-6)


class TestReferencePulse:
    def test_gaussian_total_counts_exact(self):
        grid = W0 * np.arange(1, 12)
        ref = ReferencePulse.gaussian(grid, 5 * W0, W0, total_counts=1234.5)
        assert ref.total_counts == pytest.approx(1234.5, rel=1e-12)

    def test_gaussian_carries_the_requested_counts_on_the_detect_grid(self):
        # the shipped detect run's 2,305-point reference grid: its FFT-generated
        # steps jitter, and normalizing with w[1] - w[0] missed by 8.4e-14
        cfg = ScenarioConfig.from_file("detect", CONFIGS / "detect.json")
        spectrum = band_spectrum(build_state(cfg), cfg.envelope, *cfg.lattice_range)
        grid = mean_field(build_coupling(cfg), spectrum, band=cfg.band).omega_grid
        assert grid.size == 2305
        ref = cfg.detection.reference
        center, sigma = ref.center_over_omega0 * W0, ref.sigma_over_omega0 * W0
        for counts in (ref.total_counts, 1.0, 3.0e6):
            pulse = ReferencePulse.gaussian(grid, center, sigma, counts, ref.phase_rad)
            assert abs(pulse.total_counts - counts) <= 1e-15 * counts

    @pytest.mark.parametrize("seed", range(8))
    def test_gaussian_carries_the_requested_counts_on_jittered_grids(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 3000))
        step = W0 * rng.uniform(0.1, 1.0) / n
        grid = W0 + step * (np.arange(n) - n // 2)
        grid += rng.integers(-8, 9, n) * np.spacing(grid[-1])  # a few ulps, as FFT grids carry
        counts = 10.0 ** rng.uniform(-2.0, 7.0)
        pulse = ReferencePulse.gaussian(grid, W0, step * n / 6.0, counts, rng.uniform(0.0, 7.0))
        assert abs(pulse.total_counts - counts) <= 1e-15 * counts

    def test_with_phase_preserves_counts(self):
        grid = W0 * np.arange(1, 12)
        ref = ReferencePulse.gaussian(grid, 5 * W0, W0, total_counts=10.0)
        rotated = ref.with_phase(1.234)
        assert rotated.total_counts == pytest.approx(ref.total_counts, rel=1e-14)
        np.testing.assert_allclose(np.abs(rotated.alpha), np.abs(ref.alpha), atol=1e-15)

    def test_validation(self):
        grid = W0 * np.arange(1, 6)
        with pytest.raises(ValueError):
            ReferencePulse(np.array([-1.0, 1.0, 2.0]), np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            ReferencePulse(grid[::-1], np.zeros(5, dtype=complex))
        with pytest.raises(ValueError):
            ReferencePulse.gaussian(grid, 3 * W0, -1.0, 10.0)
        with pytest.raises(ValueError):
            ReferencePulse.gaussian(grid, 3 * W0, W0, -5.0)
        for sigma, counts in ((math.nan, 10.0), (W0, math.nan)):  # a NaN trips the guard
            with pytest.raises(ValueError):
                ReferencePulse.gaussian(grid, 3 * W0, sigma, counts)
        with pytest.raises(ValueError, match="not finite"):  # a NaN centre: a NaN profile
            ReferencePulse.gaussian(grid, math.nan, W0, 10.0)

    def test_gaussian_on_one_point_grid_rejected(self):
        with pytest.raises(ValueError, match="2 or more points"):
            ReferencePulse.gaussian(np.array([W0]), W0, 0.1 * W0, 10.0)


class TestShotSampling:
    def test_deterministic_for_fixed_seed(self):
        model, spectrum, field, ref = make_setup(total_counts=500.0)
        s = BeamSplitter.heterodyne()
        e1 = sample_shots(*detector_means(s, ref, field), n_shots=64, seed=11)
        e2 = sample_shots(*detector_means(s, ref, field), n_shots=64, seed=11)
        np.testing.assert_array_equal(e1.counts1, e2.counts1)
        np.testing.assert_array_equal(e1.counts2, e2.counts2)

    def test_counter_based_prefix_property(self):
        # Extending an ensemble never changes already-drawn shots.
        model, spectrum, field, ref = make_setup(total_counts=500.0)
        s = BeamSplitter.heterodyne()
        short = sample_shots(*detector_means(s, ref, field), n_shots=30, seed=3)
        long = sample_shots(*detector_means(s, ref, field), n_shots=100, seed=3)
        np.testing.assert_array_equal(short.counts1, long.counts1[:30])
        np.testing.assert_array_equal(short.counts2, long.counts2[:30])

    @pytest.mark.parametrize(
        "seed, total_counts",
        [
            (3, 500.0),
            (2**40 + 17, 6.0),
            (1212, 1.2e4),  # means 6317 and 2740, the detect workload's scale
            (2**100 + 3, 3.0e6),  # means 1.6e6 and 6.8e5; key above 2**64
            (5, 19.08165654602937),  # mu1 = 10.0, where PTRS takes over
            (5, 19.081656546029368),  # mu1 = 10 - 4.4e-16
            (8, 0.0),  # the CL field alone: means of 3e-3
            (np.int64(7), 1.2e4),  # a numpy integer seed, as rng.integers gives
        ],
    )
    def test_stream_matches_numpy_poisson(self, seed, total_counts):
        # Pins the stream: detector d's shots are the first draws of
        # Generator(Philox(key=seed, counter=[0, 0, 0, d])).poisson(mean, n).
        # The means cover both of numpy's Poisson algorithms (below and above
        # a mean of 10).
        model, spectrum, field, ref = make_setup(total_counts=total_counts)
        splitter = BeamSplitter(R=math.cos(0.7), T=np.exp(0.4j) * math.sin(0.7))
        means = detector_means(splitter, ref, field, 0.9, 0.55)
        ens = sample_shots(*means, n_shots=300, seed=seed)
        for det, counts, mean in ((1, ens.counts1, means[0]), (2, ens.counts2, means[1])):
            bitgen = np.random.Philox(key=seed, counter=[0, 0, 0, det])
            expected = np.random.Generator(bitgen).poisson(mean, 300)
            np.testing.assert_array_equal(counts, expected)

    def test_detectors_with_equal_means_draw_separate_streams(self):
        _, _, _, ref = make_setup(total_counts=400.0)
        s = BeamSplitter.heterodyne()
        mu1, mu2 = detector_means(s, ref, None)
        assert mu1 == mu2
        ens = sample_shots(mu1, mu2, n_shots=64, seed=4)
        assert np.any(ens.counts1 != ens.counts2)

    def test_seed_changes_stream(self):
        model, spectrum, field, ref = make_setup(total_counts=500.0)
        s = BeamSplitter.heterodyne()
        e1 = sample_shots(*detector_means(s, ref, field), n_shots=64, seed=1)
        e2 = sample_shots(*detector_means(s, ref, field), n_shots=64, seed=2)
        assert np.any(e1.counts1 != e2.counts1)

    def test_poisson_statistics(self):
        _, _, _, ref = make_setup(total_counts=400.0)
        s = BeamSplitter.heterodyne()
        ens = sample_shots(*detector_means(s, ref, None), n_shots=4000, seed=5)
        mu = 200.0  # each detector sees half the reference
        for counts in (ens.counts1, ens.counts2):
            assert np.mean(counts) == pytest.approx(mu, rel=0.02)
            assert np.var(counts, ddof=1) / np.mean(counts) == pytest.approx(1.0, abs=0.08)

    def test_quantum_efficiency_thins(self):
        _, _, _, ref = make_setup(total_counts=400.0)
        s = BeamSplitter.heterodyne()
        mu1, mu2 = detector_means(s, ref, None, qe1=0.5, qe2=1.0)
        ens = sample_shots(mu1, mu2, n_shots=2000, seed=5)
        assert mu1 == pytest.approx(100.0, rel=1e-12)
        assert mu2 == pytest.approx(200.0, rel=1e-12)
        assert np.mean(ens.counts1) == pytest.approx(100.0, rel=0.05)

    def test_overflow_guard(self):
        grid = W0 * np.arange(1, 6)
        ref = ReferencePulse.gaussian(grid, 3 * W0, W0, total_counts=4.0e12)
        with pytest.raises(PhysicsGuardError):
            sample_shots(*detector_means(BeamSplitter.heterodyne(), ref, None), n_shots=1, seed=0)

    def test_shot_count_validation(self):
        _, _, _, ref = make_setup()
        with pytest.raises(ValueError):
            sample_shots(*detector_means(BeamSplitter.heterodyne(), ref, None), n_shots=0, seed=0)

    def test_ensemble_shape_helpers(self):
        _, _, _, ref = make_setup(total_counts=100.0)
        means = detector_means(BeamSplitter.heterodyne(), ref, None)
        ens = sample_shots(*means, n_shots=16, seed=1)
        assert ens.n_shots == 16
        assert np.column_stack([ens.counts1, ens.counts2]).shape == (16, 2)
        assert ens.counts1.dtype == np.int64


class TestSnrEstimate:
    def test_fields_are_consistent(self):
        model, spectrum, field, ref = make_setup(g0=0.3, total_counts=2000.0)
        means = detector_means(BeamSplitter.heterodyne(), ref, field)
        ens = sample_shots(*means, n_shots=500, seed=9)
        rep = snr_estimate(ens)
        diff = ens.counts1 - ens.counts2
        assert rep.signal == pytest.approx(np.mean(diff))
        assert rep.noise_per_shot == pytest.approx(np.std(diff, ddof=1))
        assert rep.snr == pytest.approx(abs(rep.signal) / rep.stderr)
        assert rep.snr_per_shot * math.sqrt(rep.n_shots) == pytest.approx(rep.snr)

    def test_mc_mean_tracks_analytic_signal(self):
        model, spectrum, field, ref = make_setup(
            g0=0.3, total_counts=2000.0, phase=0.5 * math.pi
        )
        s = BeamSplitter.heterodyne()
        analytic = difference_signal(s, ref, field)
        ens = sample_shots(*detector_means(s, ref, field), n_shots=3000, seed=21)
        rep = snr_estimate(ens)
        assert abs(rep.signal - analytic) < 4.0 * rep.stderr

    def test_mc_variance_tracks_poisson_sum(self):
        model, spectrum, field, ref = make_setup(g0=0.3, total_counts=2000.0)
        s = BeamSplitter.heterodyne()
        mu1, mu2 = detector_means(s, ref, field)
        ens = sample_shots(mu1, mu2, n_shots=3000, seed=23)
        rep = snr_estimate(ens)
        assert rep.noise_per_shot**2 == pytest.approx(mu1 + mu2, rel=0.07)

    def test_degenerate_ensembles_rejected(self):
        _, _, _, ref = make_setup(total_counts=100.0)
        means = detector_means(BeamSplitter.heterodyne(), ref, None)
        ens = sample_shots(*means, n_shots=1, seed=0)
        with pytest.raises(ValueError):
            snr_estimate(ens)

    def test_zero_variance_ensemble_is_physics_guard(self):
        _, _, _, ref = make_setup(total_counts=0.0)
        means = detector_means(BeamSplitter.heterodyne(), ref, None)
        ens = sample_shots(*means, n_shots=50, seed=0)
        with pytest.raises(PhysicsGuardError, match="zero variance"):
            snr_estimate(ens)


class TestNoiseFloor:
    def test_vacuum_variance_equals_reference_counts(self):
        # No CL coupling: the balanced noise floor is exactly the reference
        # shot noise, |kappa|^2 * total counts.
        model, spectrum, field, ref = make_setup()
        dead = FlatCoupling(0.0, 0.5 * W0, 8.5 * W0)
        rep = noise_floor_terms(BeamSplitter.heterodyne(), ref, dead, spectrum)
        assert rep.cl_shot == 0.0
        assert rep.field_cross == pytest.approx(0.0, abs=1e-12 * ref.total_counts)
        assert rep.variance_total == pytest.approx(ref.total_counts, rel=1e-10)

    def test_splitter_coefficient_cancellation(self):
        model, spectrum, field, ref = make_setup()
        balanced = noise_floor_terms(BeamSplitter.heterodyne(), ref, model, spectrum)
        assert balanced.alpha4_coefficient == 0.0
        assert balanced.alpha3_coefficient == 0.0
        assert balanced.is_balanced
        lopsided = noise_floor_terms(
            BeamSplitter(R=math.sqrt(0.4), T=math.sqrt(0.6)), ref, model, spectrum
        )
        assert lopsided.alpha4_coefficient == pytest.approx(0.04, abs=1e-14)
        assert lopsided.alpha3_coefficient > 0.0
        assert not lopsided.is_balanced

    def test_terms_sum_to_total(self):
        model, spectrum, field, ref = make_setup(g0=0.3)
        rep = noise_floor_terms(BeamSplitter.heterodyne(), ref, model, spectrum)
        assert rep.variance_total == pytest.approx(
            rep.reference_shot + rep.cl_shot + rep.field_cross, rel=1e-14
        )
        assert rep.variance_total > 0.0

    def test_unmodulated_beam_keeps_incoherent_term(self):
        # <a> = 0 for an unmodulated electron but <a+a> = |g|^2 survives.
        state = pinem_ladder(0.0, BEAM)
        spectrum = ladder_spectrum(state, n_max=20)
        model = FlatCoupling(0.3, 0.5 * W0, 8.5 * W0)
        field = mean_field(model, spectrum, band=(0.5 * W0, 8.5 * W0))
        assert np.max(np.abs(field.a_mean)) < 1e-14
        ref = ReferencePulse.gaussian(
            field.omega_grid, 2.0 * W0, 2.0 * W0, total_counts=100.0
        )
        rep = noise_floor_terms(BeamSplitter.heterodyne(), ref, model, spectrum)
        assert rep.cl_shot > 0.0
        # The normal correlator reduces to |g|^2 at equal frequencies, feeding
        # a positive alpha-weighted cross term.
        assert rep.field_cross > 0.0


def dense_noise_floor(splitter, reference, model, spectrum):
    """The N x N double-sum formula of the noise floor, kept as the reference
    for the FFT (Toeplitz/Hankel) route of `noise_floor_terms`."""
    w = reference.omega_grid
    dw = reference.domega
    alpha = reference.alpha
    g = np.asarray(coupling_amplitude(model, w), dtype=complex)
    mean_a = g * spectrum.value_at(w)
    f_diff = spectrum.value_at(w[None, :] - w[:, None])
    f_sum = spectrum.value_at(w[None, :] + w[:, None])
    c_norm = np.conj(g)[:, None] * g[None, :] * f_diff - np.conj(mean_a)[:, None] * mean_a[None, :]
    c_anom = g[:, None] * g[None, :] * f_sum - mean_a[:, None] * mean_a[None, :]
    kappa = splitter.kappa
    p = splitter.imbalance
    abs_k2 = abs(kappa) ** 2
    reference_shot = abs_k2 * float(np.sum(np.abs(alpha) ** 2) * dw)
    cl_shot = abs_k2 * float(np.sum(np.abs(g) ** 2) * dw)
    cross = float(dw * dw * (
        2.0 * np.real(kappa**2 * np.sum(alpha[:, None] * alpha[None, :] * np.conj(c_anom)))
        + 2.0 * np.real(abs_k2 * np.sum(alpha[:, None] * np.conj(alpha)[None, :] * c_norm))
    ))
    return NoiseFloorReport(
        variance_total=reference_shot + cl_shot + cross,
        reference_shot=reference_shot,
        cl_shot=cl_shot,
        field_cross=cross,
        alpha4_coefficient=p * p,
        alpha3_coefficient=2.0 * abs(p) * abs(kappa),
        is_balanced=p == 0.0,
    )


# kappa^2 = -1 for the heterodyne splitter; the tilted one has a complex
# kappa^2, so a wrongly conjugated anomalous (Hankel) sum cannot hide.
SPLITTERS = {
    "heterodyne": BeamSplitter.heterodyne(),
    "complex-kappa2": BeamSplitter(R=math.cos(0.7), T=np.exp(0.4j) * math.sin(0.7)),
}


@pytest.fixture(scope="module")
def sampled_spectrum():
    state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
    return density_spectrum(synthesize_density(state, EnvelopeSpec("gaussian", fwhm_fs=50.0)))


def random_reference(grid, seed):
    rng = np.random.default_rng(seed)
    alpha = 30.0 * (rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    return ReferencePulse(grid, alpha)


class TestNoiseFloorAgainstDenseSum:
    @pytest.mark.parametrize("splitter", SPLITTERS.values(), ids=SPLITTERS.keys())
    @pytest.mark.parametrize("stride", [1, 2])
    def test_sampled_lattice(self, sampled_spectrum, splitter, stride):
        spec = sampled_spectrum
        i_w0 = int(np.argmin(np.abs(spec.omega_grid - W0)))
        grid = spec.omega_grid[i_w0 - 60 : i_w0 + 61 : stride]
        ref = random_reference(grid, seed=stride)
        model = GaussianBandCoupling(0.4 * np.exp(0.3j), W0, 0.02)
        self._assert_matches(splitter, ref, model, spec)

    @pytest.mark.parametrize("splitter", SPLITTERS.values(), ids=SPLITTERS.keys())
    @pytest.mark.parametrize("stride", [1, 2])
    def test_harmonic_lattice(self, splitter, stride):
        state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
        spec = ladder_spectrum(state, n_max=40)
        grid = W0 * np.arange(1, 20, stride)
        ref = random_reference(grid, seed=10 + stride)
        model = FlatCoupling(0.3 - 0.1j, 0.5 * W0, 12.5 * W0)
        self._assert_matches(splitter, ref, model, spec)

    def test_uncovered_sum_frequencies_raise_on_both_routes(self):
        state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
        spec = ladder_spectrum(state, n_max=10)  # covers w_m - w_n, not w_n + w_m
        ref = ReferencePulse.gaussian(W0 * np.arange(1, 9), 3 * W0, W0, total_counts=100.0)
        model = FlatCoupling(0.3, 0.5 * W0, 8.5 * W0)
        for route in (noise_floor_terms, dense_noise_floor):
            with pytest.raises(GridCoverageError):
                route(BeamSplitter.heterodyne(), ref, model, spec)

    @staticmethod
    def _assert_matches(splitter, ref, model, spec):
        fast = noise_floor_terms(splitter, ref, model, spec)
        dense = dense_noise_floor(splitter, ref, model, spec)
        assert abs(dense.field_cross) > 1e-6 * dense.variance_total  # not a vanishing cross term
        for name in ("variance_total", "reference_shot", "cl_shot", "field_cross",
                     "alpha4_coefficient", "alpha3_coefficient"):
            assert getattr(fast, name) == pytest.approx(getattr(dense, name), rel=1e-12, abs=0.0), name
        assert fast.is_balanced == dense.is_balanced


def _lower(t, axis):
    """The annihilation operator on one Fock axis of a state tensor:
    out[.., n, ..] = sqrt(n + 1) t[.., n + 1, ..]."""
    t = np.moveaxis(t, axis, -1)
    out = np.zeros_like(t)
    out[..., :-1] = np.sqrt(np.arange(1.0, t.shape[-1])) * t[..., 1:]
    return np.moveaxis(out, -1, axis)


def _raise(t, axis):
    """The creation operator on one Fock axis; the top level's image is dropped."""
    t = np.moveaxis(t, axis, -1)
    out = np.zeros_like(t)
    out[..., 1:] = np.sqrt(np.arange(1.0, t.shape[-1])) * t[..., :-1]
    return np.moveaxis(out, -1, axis)


class TestDetectLattice:
    """detect builds its lattice on [-(hi - lo), 2 hi] only: every difference and
    every sum of two band points that the noise floor looks up is on it."""

    @settings(max_examples=30, deadline=None)
    @given(
        center=st.floats(min_value=0.3, max_value=3.0),
        width=st.floats(min_value=0.02, max_value=0.999),  # 2 or more band points
        fwhm_fs=st.floats(min_value=20.0, max_value=400.0),
    )
    def test_every_noise_floor_lookup_is_covered(self, center, width, fwhm_fs):
        payload = json.loads((CONFIGS / "detect.json").read_text())
        payload["envelope"]["fwhm_fs"] = fwhm_fs
        reference = payload["detection"]["reference"]
        reference.update(center_over_omega0=center, sigma_over_omega0=width * center / 6.0)
        cfg = ScenarioConfig.from_mapping("detect", payload)
        spectrum = _band_spectrum(cfg, "detection.reference")  # the run's own lattice
        model = build_coupling(cfg)
        grid = mean_field(model, spectrum, band=cfg.band).omega_grid
        lo, hi = cfg.band
        # the range is tight: its low end is within a step of lo - hi
        step = _mean_step(spectrum.omega_grid)
        assert lo - hi - step < spectrum.omega_grid[0] <= lo - hi + 1e-9 * step
        assert spectrum.omega_grid[0] <= grid[0] - grid[-1]
        pulse = ReferencePulse.gaussian(grid, center * W0, width * center / 6.0 * W0, 1e4)
        report = noise_floor_terms(BeamSplitter.heterodyne(), pulse, model, spectrum)
        assert math.isfinite(report.variance_total)


class TestNoiseFloorAgainstOracle:
    """Var(D) from the quantum state: one CL mode at omega0 evolved by the
    oracle, tensored with a coherent reference mode |b>, and
    D = p (n_a - n_r) + kappa a+ r + conj(kappa) r+ a applied by Fock-axis
    shifts.  noise_floor_terms describes the same discrete mode on the grid
    [omega0, 2 omega0] with d omega = omega0: alpha = (b / sqrt(d omega), 0), a
    flat g0 = g / sqrt(d omega) on [0.5, 1.5] omega0, and F up to 4 omega0 so
    that F(2 omega0) covers the anomalous term."""

    B = 1.5 * np.exp(0.6j)  # |b| = 1.5; a phase, so a conjugated b^2 term cannot hide
    REFERENCE_LEVELS = 30  # the coherent state's weight above them is ~1e-21
    # worst relative difference measured 3.6e-11 over these 18 cases (at
    # g = 0.8, the most photons above the CL mode's cutoff of 12); both routes
    # are exact, so the bound only has to cover round-off and the populations
    # (<= 1e-8, the oracle's guard) at the truncation edges
    REL_TOL = 1e-9

    @pytest.mark.parametrize("g", [0.05, 0.3, 0.8])
    @pytest.mark.parametrize("d_over_zt", [0.0, 0.1, 0.25])
    @pytest.mark.parametrize("beta_abs", [0.5, 1.0])
    def test_heterodyne_variance_matches_the_evolved_state(self, beta_abs, d_over_zt, g):
        from clcoherence.oracle import OracleMode, TruncatedSpace, evolve
        from oracle_reference import full_vector

        state = pinem_ladder(beta_abs, BEAM)
        if d_over_zt:
            state = propagate(state, d_over_zt * BEAM.talbot_distance, mode="quadratic")
        space = TruncatedSpace.for_ladder(state.cutoff, (OracleMode(harmonic=1, g=g),))
        psi = full_vector(space, evolve(space, state.coefficients)).reshape(space.electron_dim, -1)
        n = np.arange(self.REFERENCE_LEVELS)
        root_factorial = np.array([math.sqrt(math.factorial(k)) for k in n])
        ref = np.exp(-0.5 * abs(self.B) ** 2) * self.B**n / root_factorial
        joint = psi[:, :, None] * ref  # (electron, CL photons, reference photons)

        splitter = BeamSplitter.heterodyne()
        p, kappa = splitter.imbalance, splitter.kappa
        levels_a, levels_r = np.arange(joint.shape[1]), n
        d_joint = (
            p * (levels_a[:, None] - levels_r) * joint
            + kappa * _raise(_lower(joint, 2), 1)
            + np.conj(kappa) * _raise(_lower(joint, 1), 2)
        )
        mean = np.sum(np.conj(joint) * d_joint)
        oracle_variance = np.sum(np.abs(d_joint) ** 2) - abs(mean) ** 2
        assert abs(mean.imag) <= 1e-12  # D is Hermitian

        dw = W0
        grid = W0 * np.array([1.0, 2.0])
        reference = ReferencePulse(grid, np.array([self.B / math.sqrt(dw), 0.0]))
        model = FlatCoupling(g / math.sqrt(dw), 0.5 * W0, 1.5 * W0)
        report = noise_floor_terms(splitter, reference, model, ladder_spectrum(state, 4))
        assert report.variance_total == pytest.approx(oracle_variance, rel=self.REL_TOL, abs=0.0)
