"""Ladder-state construction, dispersive propagation, density synthesis.

The Bessel coefficients are validated against an independent route: direct
numerical Fourier analysis of the time-domain phase factor over one optical
period, which never touches ``scipy.special``.  The tiled one-period density
is checked against a running-phasor sum over the whole window.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcoherence import (
    BeamParameters,
    EnvelopeSpec,
    LadderState,
    PhysicsGuardError,
    TruncationError,
    WavepacketDensity,
    auto_cutoff,
    pinem_ladder,
    propagate,
    synthesize_density,
)
from clcoherence.constants import TWO_PI
from clcoherence.estate import _BLOCK, SamplingLattice, bessel_ladder, sampling_lattice
from clcoherence.spectra import ladder_overlap

BEAM = BeamParameters.from_wavelength(200e3, 800.0)


def coefficient(state: LadderState, j: int) -> complex:
    """c_j of the ladder, 0 beyond its cutoff."""
    if abs(j) > state.cutoff:
        return 0.0 + 0.0j
    return complex(state.coefficients[j + state.cutoff])


def to_json_dict(state: LadderState) -> dict:
    return {
        "beam": {
            "kinetic_energy_ev": state.beam.kinetic_energy,
            "photon_energy_ev": state.beam.photon_energy,
        },
        "coefficients_real": state.coefficients.real.tolist(),
        "coefficients_imag": state.coefficients.imag.tolist(),
    }


def from_json_dict(payload: dict) -> LadderState:
    beam = BeamParameters(
        kinetic_energy=payload["beam"]["kinetic_energy_ev"],
        photon_energy=payload["beam"]["photon_energy_ev"],
    )
    c = np.asarray(payload["coefficients_real"]) + 1j * np.asarray(payload["coefficients_imag"])
    return LadderState(c, beam)


def fourier_coefficients_oracle(beta, j_values, samples=16384):
    """Fourier coefficients of exp(-2i|beta| sin(w0 t - arg(-beta))) by quadrature.

    c_j = (1/T0) * integral over one period of psi(t) * exp(+i j w0 t) dt,
    evaluated with the trapezoid rule on a periodic integrand (spectrally
    accurate).  Completely independent of Bessel functions.
    """
    mod = abs(beta)
    phase_off = math.atan2((-beta).imag, (-beta).real)
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    psi = np.exp(-2j * mod * np.sin(theta - phase_off))
    out = []
    for j in j_values:
        integrand = psi * np.exp(1j * j * theta)
        out.append(np.mean(integrand))
    return np.array(out)


class TestAutoCutoff:
    def test_frozen_values(self):
        assert auto_cutoff(4.0) == 28
        assert auto_cutoff(1.0) == 22
        assert auto_cutoff(0.0) == 20

    def test_monotone_nondecreasing(self):
        values = [auto_cutoff(b) for b in np.linspace(0.0, 12.0, 49)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestPinemLadder:
    @pytest.mark.parametrize("beta", [1.0, 4.0, 1j * 2.5, 2.0 * np.exp(0.7j)])
    def test_matches_fourier_oracle(self, beta):
        state = pinem_ladder(beta, BEAM)
        j = state.level_indices
        oracle = fourier_coefficients_oracle(beta, j)
        np.testing.assert_allclose(state.coefficients, oracle, atol=1e-12)

    def test_real_beta_sign_pattern(self):
        # arg(-beta) = pi for real positive beta, so c_j carries (-1)^j.
        from scipy.special import jv

        state = pinem_ladder(1.5, BEAM)
        j = state.level_indices
        expected = jv(j, 3.0) * np.cos(math.pi * j)
        np.testing.assert_allclose(state.coefficients.real, expected, atol=1e-14)
        np.testing.assert_allclose(state.coefficients.imag, 0.0, atol=1e-14)

    def test_cosine_convention(self):
        # beta = i|beta| reproduces the cosine-phase modulation
        # psi(t) = exp(-2 i |beta| cos(w0 t)).
        mod = 4.0
        state = pinem_ladder(1j * mod, BEAM)
        theta = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
        psi = np.zeros_like(theta, dtype=complex)
        for j, c in zip(state.level_indices, state.coefficients):
            psi += c * np.exp(-1j * j * theta)
        np.testing.assert_allclose(psi, np.exp(-2j * mod * np.cos(theta)), atol=1e-10)

    def test_norm_and_symmetry(self):
        state = pinem_ladder(4.0, BEAM)
        assert abs(np.vdot(state.coefficients, state.coefficients).real - 1.0) < 1e-12
        # |J_{-j}| = |J_j|
        mods = np.abs(state.coefficients)
        np.testing.assert_allclose(mods, mods[::-1], atol=1e-15)

    def test_zero_beta_is_plane_wave(self):
        state = pinem_ladder(0.0, BEAM)
        assert coefficient(state, 0) == pytest.approx(1.0)
        assert np.sum(np.abs(state.coefficients)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("beta_abs", [0.0, 1.0, 4.0, 60.0, 451.0])
    def test_half_width_is_auto_cutoff(self, beta_abs):
        assert pinem_ladder(beta_abs, BEAM).cutoff == auto_cutoff(beta_abs)


class TestBesselLadder:
    """The Jacobi-Anger FFT against scipy.special.jv, up to |beta| = 1000."""

    @pytest.mark.parametrize("beta_abs", [0.5, 4.0, 30.0, 100.0, 1000.0])
    def test_matches_jv(self, beta_abs):
        from scipy.special import jv

        cutoff = auto_cutoff(beta_abs)
        j = np.arange(-cutoff, cutoff + 1)
        got = bessel_ladder(2.0 * beta_abs, cutoff)
        # measured: 5.6e-17 at |beta| = 0.5, 1.9e-16 at 4, 3.1e-14 at 1000
        assert np.max(np.abs(got - jv(j, 2.0 * beta_abs))) <= 1e-13

    def test_zero_argument_is_the_unit_vector(self):
        np.testing.assert_array_equal(bessel_ladder(0.0, 3), [0, 0, 0, 1, 0, 0, 0])


class TestLadderState:
    def test_validation_rejects_even_length(self):
        with pytest.raises(ValueError):
            LadderState(np.array([1.0, 0.0]), BEAM)

    def test_validation_rejects_unnormalized(self):
        c = np.zeros(5, dtype=complex)
        c[2] = 0.5
        with pytest.raises(PhysicsGuardError):
            LadderState(c, BEAM)

    def test_edge_occupation_guard(self):
        c = np.zeros(5, dtype=complex)
        c[0] = 1.0
        with pytest.raises(TruncationError):
            LadderState(c, BEAM)

    def test_nan_coefficient_trips_norm_guard(self):
        c = pinem_ladder(1.0, BEAM).coefficients.copy()
        c[c.size // 2] = math.nan
        with pytest.raises(PhysicsGuardError, match="norm"):
            LadderState(c, BEAM)

    def test_nan_boundary_coefficient_trips_edge_guard(self):
        c = pinem_ladder(1.0, BEAM).coefficients.copy()
        c[-1] = math.nan
        with pytest.raises(TruncationError):
            LadderState(c, BEAM)

    def test_coefficient_lookup(self):
        state = pinem_ladder(1.0, BEAM)
        assert coefficient(state, 0) == state.coefficients[state.cutoff]
        assert coefficient(state, state.cutoff + 5) == 0.0

    def test_json_round_trip(self):
        state = propagate(pinem_ladder(2.0, BEAM), 1e6)
        data = to_json_dict(state)
        back = from_json_dict(data)
        np.testing.assert_array_equal(back.coefficients, state.coefficients)
        assert back.beam.photon_energy == state.beam.photon_energy


class TestPropagation:
    def test_zero_distance_identity(self):
        state = pinem_ladder(4.0, BEAM)
        out = propagate(state, 0.0)
        np.testing.assert_array_equal(out.coefficients, state.coefficients)

    def test_talbot_revival_quadratic(self):
        # After one Talbot distance the quadratic phases are multiples of 2*pi.
        state = pinem_ladder(4.0, BEAM)
        out = propagate(state, BEAM.talbot_distance, mode="quadratic")
        np.testing.assert_allclose(out.coefficients, state.coefficients, atol=1e-9)

    def test_half_talbot_alternating_signs(self):
        # At z_T/2 the quadratic phase is exp(-i pi j^2) = (-1)^j.
        state = pinem_ladder(4.0, BEAM)
        out = propagate(state, 0.5 * BEAM.talbot_distance, mode="quadratic")
        j = state.level_indices
        expected = state.coefficients * np.power(-1.0, np.abs(j) % 2)
        np.testing.assert_allclose(out.coefficients, expected, atol=1e-9)

    def test_exact_vs_quadratic_overlaps(self):
        # The two dispersion treatments give nearly identical bunching
        # amplitudes at millimetre scale (cubic corrections ~1e-4).
        state = pinem_ladder(4.0, BEAM)
        d = 6.43e6  # nm
        exact = propagate(state, d, mode="exact")
        quad = propagate(state, d, mode="quadratic")
        for n in range(6):
            a = abs(ladder_overlap(exact, n))
            b = abs(ladder_overlap(quad, n))
            assert abs(a - b) < 1e-3

    def test_distance_accumulates(self):
        state = pinem_ladder(1.0, BEAM)
        # quadratic: the exact mode's phases k_j d reach ~1e10 rad, and their
        # round-off would swamp the comparison
        out = propagate(propagate(state, 1e6, "quadratic"), 2e6, "quadratic")
        expected = propagate(state, 3e6, "quadratic").coefficients
        np.testing.assert_allclose(out.coefficients, expected, rtol=0.0, atol=1e-12)

    def test_negative_distance_rejected(self):
        # a NaN or inf is refused, not sent on to the guards
        for distance in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                propagate(pinem_ladder(1.0, BEAM), distance)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            propagate(pinem_ladder(1.0, BEAM), 1.0, mode="cubic")


class TestDensitySynthesis:
    def test_periodicity_infinite_envelope(self):
        state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
        density = synthesize_density(state, EnvelopeSpec("infinite"))
        m = int(round(BEAM.optical_period / density.dt))
        rho = density.samples
        # One full period forward must reproduce the same sample values.
        np.testing.assert_allclose(rho[:-m], rho[m:], rtol=0.0, atol=1e-12 * rho.max())

    def test_flat_density_for_unmodulated_beam(self):
        density = synthesize_density(pinem_ladder(0.0, BEAM), EnvelopeSpec("infinite"))
        rho = density.samples
        assert np.max(np.abs(rho - rho.mean())) < 1e-14 * rho.mean()

    def test_bunching_peaks_exceed_mean(self):
        # Bunched beam develops sharp periodic density spikes.
        state = propagate(pinem_ladder(4.0, BEAM), 6.43e6, mode="quadratic")
        density = synthesize_density(state, EnvelopeSpec("infinite"))
        rho = density.samples
        assert rho.max() > 5.0 * rho.mean()

    def test_normalization(self):
        state = propagate(pinem_ladder(2.0, BEAM), 3e6)
        for env in (EnvelopeSpec("infinite"), EnvelopeSpec("gaussian", fwhm_fs=200.0)):
            density = synthesize_density(state, env)
            integral = np.sum(density.samples) * density.dt
            assert integral == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_envelope_fwhm(self):
        # Unmodulated beam with a 200 fs Gaussian envelope: density FWHM = 200 fs.
        density = synthesize_density(
            pinem_ladder(0.0, BEAM), EnvelopeSpec("gaussian", fwhm_fs=200.0)
        )
        rho = density.samples
        half = 0.5 * rho.max()
        times = density.dt * (np.arange(rho.size) - 0.5 * rho.size)
        above = times[rho >= half]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(200.0, rel=5e-3)

    def test_window_snapped_to_whole_periods(self):
        density = synthesize_density(pinem_ladder(1.0, BEAM), EnvelopeSpec("infinite"))
        window = density.samples.size * density.dt
        periods = window / BEAM.optical_period
        assert periods == pytest.approx(round(periods), abs=1e-9)
        assert density.lattice.periods == round(periods)

    def test_dt_snapped_to_period_fraction(self):
        density = synthesize_density(pinem_ladder(1.0, BEAM), EnvelopeSpec("infinite"))
        ratio = BEAM.optical_period / density.dt
        assert ratio == pytest.approx(round(ratio), abs=1e-9)
        assert round(ratio) >= 64

    def test_256_samples_a_period_up_to_half_width_127(self):
        for cutoff in range(128):
            assert sampling_lattice(BEAM, EnvelopeSpec("infinite"), cutoff).per_period == 256

    @pytest.mark.parametrize(
        "cutoff,per_period", [(128, 512), (255, 512), (256, 1024), (511, 1024), (1023, 2048)]
    )
    def test_samples_a_period_are_the_power_of_two_above_2j(self, cutoff, per_period):
        lattice = sampling_lattice(BEAM, EnvelopeSpec("infinite"), cutoff)
        assert lattice.per_period == per_period
        assert lattice.dt == BEAM.optical_period / per_period

    def test_window_too_short_rejected(self):
        state = pinem_ladder(1.0, BEAM)
        with pytest.raises(ValueError):
            synthesize_density(state, EnvelopeSpec("gaussian", fwhm_fs=200.0, window_fs=100.0))

    def test_nan_sample_trips_negativity_guard(self):
        density = synthesize_density(pinem_ladder(1.0, BEAM), EnvelopeSpec("infinite"))
        rho = density.samples.copy()
        rho[7] = math.nan
        with pytest.raises(PhysicsGuardError, match="negative"):
            WavepacketDensity(rho, density.lattice)

    def test_nan_step_trips_integral_guard(self):
        density = synthesize_density(pinem_ladder(1.0, BEAM), EnvelopeSpec("infinite"))
        with pytest.raises(PhysicsGuardError, match="integral"):
            WavepacketDensity(density.samples, density.lattice._replace(dt=math.nan))

    def test_one_sample_per_lattice_time(self):
        density = synthesize_density(pinem_ladder(1.0, BEAM), EnvelopeSpec("infinite"))
        lattice = density.lattice
        assert density.samples.size == lattice.per_period * lattice.periods
        with pytest.raises(ValueError, match="one sample per time"):
            WavepacketDensity(density.samples, lattice._replace(periods=lattice.periods + 1))

    @pytest.mark.parametrize(
        "envelope,pad",
        [(EnvelopeSpec("infinite"), 1), (EnvelopeSpec("gaussian", fwhm_fs=200.0), 8)],
        ids=["infinite", "gaussian"],
    )
    def test_pad_and_fft_length(self, envelope, pad):
        lattice = sampling_lattice(BEAM, envelope, 20)
        assert lattice.pad == pad
        assert lattice.n_fft == pad * lattice.per_period * lattice.periods

    def test_envelope_validation(self):
        with pytest.raises(ValueError):
            EnvelopeSpec("gaussian")  # missing fwhm
        with pytest.raises(ValueError):
            EnvelopeSpec("gaussian", fwhm_fs=-10.0)
        with pytest.raises(ValueError):
            EnvelopeSpec("boxcar")
        with pytest.raises(ValueError):
            EnvelopeSpec("infinite", fwhm_fs=100.0)
        # a NaN, infinite or non-positive width or window is refused here, not by sampling_lattice
        bad = ((math.nan, None), (100.0, math.nan), (100.0, 0.0), (math.inf, None), (100.0, math.inf))
        for fwhm_fs, window_fs in bad:
            with pytest.raises(ValueError, match="positive"):
                EnvelopeSpec("gaussian", fwhm_fs, window_fs)
        for window_fs in (math.nan, -1.0, math.inf):
            with pytest.raises(ValueError, match="window_fs must be positive"):
                EnvelopeSpec("infinite", window_fs=window_fs)

    def test_samples_are_read_only_and_alias_no_writable_array(self):
        density = synthesize_density(pinem_ladder(1.0, BEAM), EnvelopeSpec("infinite"))
        assert not density.samples.flags.writeable
        # a read-only array is kept; a writable one is copied, and a caller's
        # later writes to it do not reach the density
        assert WavepacketDensity(density.samples, density.lattice).samples is density.samples
        rho = density.samples.copy()
        copy = WavepacketDensity(rho, density.lattice)
        assert not np.shares_memory(copy.samples, rho)
        rho[:] = 0.0
        np.testing.assert_array_equal(copy.samples, density.samples)

    def test_negative_round_off_is_clamped_in_a_copy(self):
        density = synthesize_density(pinem_ladder(1.0, BEAM), EnvelopeSpec("infinite"))
        rho = density.samples.copy()
        rho[4] += rho[3]  # the integral stays 1
        rho[3] = -1.0e-13
        rho.flags.writeable = False
        clamped = WavepacketDensity(rho, density.lattice)
        assert clamped.samples[3] == 0.0 and rho[3] == -1.0e-13
        assert not clamped.samples.flags.writeable


def running_phasor_density(state, envelope):
    """rho(t) sampled over the whole window, one full-length pass per ladder level.

    The reference for `synthesize_density`: psi accumulates c_j e^{-i j omega0 t}
    with a running phasor, is multiplied by the amplitude envelope f(t), and is
    squared and normalized on `sampling_lattice`'s lattice.
    """
    dt_eff, per_period, periods, _ = sampling_lattice(state.beam, envelope, state.cutoff)
    t = -0.5 * (periods * state.beam.optical_period) + dt_eff * np.arange(periods * per_period)
    omega0 = state.beam.omega0
    step = np.exp(-1j * omega0 * t)
    running = np.exp(1j * state.cutoff * omega0 * t)  # e^{-i j omega0 t} at j = -cutoff
    psi = np.zeros(t.size, dtype=complex)
    for c_j in state.coefficients:
        psi += c_j * running
        running *= step
    if envelope.kind == "gaussian":
        psi *= np.exp(-2.0 * math.log(2.0) * (t / envelope.fwhm_fs) ** 2)
    rho = np.abs(psi) ** 2
    return rho / (np.sum(rho) * dt_eff)


def whole_array_density(state, envelope):
    """`synthesize_density`'s arithmetic on whole arrays: the one-period phase
    matrix at once and |f|^2 over the whole window in one buffer."""
    dt_eff, per_period, n_periods, _ = sampling_lattice(state.beam, envelope, state.cutoff)
    t_period = state.beam.optical_period
    t0 = -0.5 * (n_periods * t_period)
    t_one = dt_eff * np.arange(per_period) - 0.5 * (n_periods % 2) * t_period
    phase = np.exp(np.multiply.outer(-1j * state.beam.omega0 * t_one, state.level_indices))
    rho = np.tile(np.abs(np.sum(phase * state.coefficients, axis=1)) ** 2, n_periods)
    if envelope.kind == "gaussian":
        f2 = np.arange(rho.size, dtype=float)
        f2 *= dt_eff
        f2 += t0
        f2 /= envelope.fwhm_fs
        np.square(f2, out=f2)
        f2 *= -4.0 * math.log(2.0)
        rho *= np.exp(f2, out=f2)
    rho /= np.sum(rho) * dt_eff
    return rho


class TestBlockedSynthesis:
    """The phase matrix and |f|^2 in blocks give the whole-array samples bit for
    bit, with one density and one block alive at a time."""

    # |beta| = 60: 329 levels, 49 rows a block of the 512-row phase matrix
    STATE = propagate(pinem_ladder(60.0, BEAM), 6.47e6 * 4.0 / 60.0)
    ENVELOPES = [
        EnvelopeSpec("infinite"),
        EnvelopeSpec("gaussian", fwhm_fs=50.0, window_fs=301 * BEAM.optical_period),
    ]

    @pytest.mark.parametrize("envelope", ENVELOPES, ids=["infinite", "gaussian-50"])
    def test_blocks_match_the_whole_arrays_bit_for_bit(self, envelope):
        density = synthesize_density(self.STATE, envelope)
        assert density.lattice.per_period > 4 * (_BLOCK // self.STATE.coefficients.size)
        if envelope.kind == "gaussian":
            assert density.samples.size > 4 * _BLOCK
        assert density.samples.tobytes() == whole_array_density(self.STATE, envelope).tobytes()

    @pytest.mark.parametrize("envelope", ENVELOPES, ids=["infinite", "gaussian-50"])
    def test_peak_is_one_density_and_one_block(self, envelope):
        synthesize_density(self.STATE, envelope)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            density = synthesize_density(self.STATE, envelope)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block is 16 B a matrix element, its product with the coefficients as much
        # again; whole arrays took the 2.6 MB phase matrix and two density copies
        assert peak < density.samples.nbytes + 4 * 16 * _BLOCK


def _band_cases():
    from test_spectra import BAND_ENVELOPES, BAND_STATES

    return [(b, d, env) for b, d in BAND_STATES for env in BAND_ENVELOPES]


class TestPeriodicSynthesis:
    """One tiled period against the running-phasor loop over the whole window."""

    @staticmethod
    def assert_matches_loop(state, envelope):
        density = synthesize_density(state, envelope)
        ref = running_phasor_density(state, envelope)
        assert density.samples.shape == ref.shape
        assert np.max(np.abs(density.samples - ref)) <= 1e-10 * np.max(ref)
        return density

    @pytest.mark.parametrize(
        "beta_abs,distance,envelope",
        _band_cases(),
        ids=lambda v: f"{v.kind}-{v.fwhm_fs}" if isinstance(v, EnvelopeSpec) else f"{v:g}",
    )
    def test_matches_running_phasor_loop(self, beta_abs, distance, envelope):
        state = pinem_ladder(beta_abs, BEAM)
        if distance:
            state = propagate(state, distance)
        self.assert_matches_loop(state, envelope)

    @pytest.mark.parametrize(
        "envelope",
        [EnvelopeSpec("infinite"), EnvelopeSpec("gaussian", fwhm_fs=50.0)],
        ids=["infinite", "gaussian-50"],
    )
    def test_large_beta_with_explicit_window(self, envelope):
        # |beta| = 60 at its bunching distance: 512 samples a period, 65 or 301 periods
        state = propagate(pinem_ladder(60.0, BEAM), 6.47e6 * 4.0 / 60.0)
        periods = 65 if envelope.kind == "infinite" else 301
        envelope = replace(envelope, window_fs=periods * BEAM.optical_period)
        density = self.assert_matches_loop(state, envelope)
        assert round(BEAM.optical_period / density.dt) == 512
        assert density.lattice.periods == periods

    @pytest.mark.parametrize(
        "envelope,window",
        [
            (EnvelopeSpec("infinite"), 65.0 * BEAM.optical_period),
            (EnvelopeSpec("gaussian", fwhm_fs=50.0), 401.0 * BEAM.optical_period),
        ],
        ids=["infinite-65", "gaussian-401"],
    )
    def test_odd_number_of_periods(self, envelope, window):
        # t0 = -n_periods T0/2 is then a half period off the period grid
        state = propagate(pinem_ladder(4.0, BEAM), 6.47e6)
        density = self.assert_matches_loop(state, replace(envelope, window_fs=window))
        assert density.lattice.periods % 2 == 1


def masked_frequencies(lattice, low, high, step=1):
    """(k, omega) by the whole-lattice mask: omega_k = 2 pi (k * val) on every
    k = 0 (mod step) of the centred lattice, then low <= omega <= high."""
    n_fft = lattice.n_fft
    val = 1.0 / (n_fft * lattice.dt)
    k = step * np.arange(-(n_fft // 2 // step), (n_fft - 1) // 2 // step + 1)
    omega = TWO_PI * (k * val)
    keep = (omega >= low) & (omega <= high)
    return k[keep], omega[keep]


def symmetric_frequencies(lattice, max_omega, step=1):
    """The symmetric cut |omega| <= max_omega as `frequencies` made it before it took
    a range: the bins up to the top, a mask, and a copy of each array."""
    n_fft = lattice.n_fft
    val = 1.0 / (n_fft * lattice.dt)
    k_max = int(min(max_omega / (TWO_PI * val), n_fft // 2)) + 1
    lo, hi = max(-k_max, -(n_fft // 2)), min(k_max, (n_fft - 1) // 2)
    k = step * np.arange(-(-lo // step), hi // step + 1)
    omega = TWO_PI * (k * val)
    keep = np.abs(omega) <= max_omega
    return k[keep], omega[keep]


class TestLatticeFrequencies:
    """`SamplingLattice.frequencies` cuts one k and one omega array with two bounds:
    the mask's bits, as views."""

    @staticmethod
    def assert_same(found, expected):
        for a, b in zip(found, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        period=st.floats(min_value=0.5, max_value=40.0),
        per_period=st.integers(min_value=2, max_value=300),
        periods=st.integers(min_value=1, max_value=40),
        pad=st.sampled_from([1, 2, 8]),
        step_index=st.integers(min_value=0, max_value=5),
        ends=st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)),
        on_point=st.tuples(st.booleans(), st.booleans()),
        data=st.data(),
    )
    def test_cut_is_the_mask_bit_for_bit(
        self, period, per_period, periods, pad, step_index, ends, on_point, data
    ):
        lattice = SamplingLattice(period / per_period, per_period, periods, pad)
        n_fft = lattice.n_fft
        divisors = [s for s in range(1, min(n_fft, 64) + 1) if n_fft % s == 0]
        step = divisors[step_index % len(divisors)]
        _, whole = masked_frequencies(lattice, -math.inf, math.inf, step)
        nyquist = TWO_PI / (2.0 * lattice.dt)  # the lattice spans about +/- this
        low, high = sorted(e * nyquist for e in ends)
        if on_point[0] or on_point[1]:  # a bound exactly on a lattice point
            i, j = sorted(data.draw(st.integers(0, whole.size - 1)) for _ in range(2))
            low = whole[i] if on_point[0] else low
            high = whole[j] if on_point[1] else high
        if not low < high:
            high = math.inf
        k, omega = lattice.frequencies(low, high, step)
        self.assert_same((k, omega), masked_frequencies(lattice, low, high, step))
        assert k.base is not None and omega.base is not None  # views, not copies
        if on_point[0] and low > whole[0]:
            assert omega[0] == low
        if on_point[1] and high < whole[-1]:
            assert omega[-1] == high

    @settings(max_examples=40, deadline=None)
    @given(
        per_period=st.integers(min_value=2, max_value=300),
        periods=st.integers(min_value=1, max_value=40),
        pad=st.sampled_from([1, 8]),
        top=st.floats(min_value=1e-3, max_value=2.0),
    )
    def test_symmetric_cut_is_the_former_cut(self, per_period, periods, pad, top):
        lattice = SamplingLattice(BEAM.optical_period / per_period, per_period, periods, pad)
        max_omega = top * TWO_PI / (2.0 * lattice.dt)
        for step in (1, pad):
            expected = symmetric_frequencies(lattice, max_omega, step)
            self.assert_same(lattice.frequencies(-max_omega, max_omega, step), expected)

    @pytest.mark.parametrize(
        "low, high", [(0.0, 0.0), (1.0, -1.0), (math.nan, 1.0), (-1.0, math.nan)]
    )
    def test_empty_or_nan_range_is_refused(self, low, high):
        with pytest.raises(ValueError, match="low < high"):
            SamplingLattice(0.01, 256, 64, 1).frequencies(low, high)


@settings(max_examples=30, deadline=None)
@given(
    mod=st.floats(min_value=0.0, max_value=6.0),
    arg=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_ladder_invariants(mod, arg):
    beta = mod * complex(math.cos(arg), math.sin(arg))
    state = pinem_ladder(beta, BEAM)
    # Unit norm.
    norm = float(np.vdot(state.coefficients, state.coefficients).real)
    assert norm == pytest.approx(1.0, abs=1e-10)
    # b_0 = 1 exactly (norm), |b_n| <= 1 for all reachable n.
    assert ladder_overlap(state, 0) == pytest.approx(1.0, abs=1e-10)
    for n in (1, 2, 5):
        assert abs(ladder_overlap(state, n)) <= 1.0 + 1e-12
