"""Coupling models: flat band, Gaussian band, tabulated, traveling-wave coupler."""

import math
import tracemalloc

import numpy as np
import pytest

from clcoherence import coupling
from clcoherence import (
    BeamParameters,
    FlatCoupling,
    GaussianBandCoupling,
    TabulatedCoupling,
    WaveguideCoupling,
    coupling_amplitude,
)

BEAM = BeamParameters.from_wavelength(200e3, 800.0)
W0 = BEAM.omega0


def eels_probability(model) -> float:
    """Total electron-energy-loss probability integral |g|^2 d omega."""
    return model.eels_probability()


class TestFlatCoupling:
    def test_amplitude_inside_and_outside(self):
        m = FlatCoupling(0.3 + 0.1j, 1.0, 3.0)
        assert m.amplitude(2.0) == 0.3 + 0.1j
        assert m.amplitude(0.5) == 0.0
        assert m.amplitude(3.5) == 0.0
        arr = m.amplitude(np.array([0.5, 1.0, 3.0, 4.0]))
        np.testing.assert_array_equal(arr, [0.0, 0.3 + 0.1j, 0.3 + 0.1j, 0.0])

    def test_eels_probability_exact(self):
        m = FlatCoupling(0.2, 1.0, 4.0)
        assert eels_probability(m) == pytest.approx(0.04 * 3.0, rel=1e-14)

    def test_zero_coupling(self):
        m = FlatCoupling(0.0, 1.0, 2.0)
        assert eels_probability(m) == 0.0
        assert m.amplitude(1.5) == 0.0

    def test_band_validation(self):
        with pytest.raises(ValueError):
            FlatCoupling(0.1, 3.0, 1.0)
        with pytest.raises(ValueError):
            FlatCoupling(0.1, -1.0, 1.0)

    # each accepted before, and EELS then read nan or inf
    @pytest.mark.parametrize(
        "field, value, match",
        [("g0", complex(math.nan, 0.0), "g0 must be finite"), ("band_max", math.inf, "band_max")],
    )
    def test_non_finite_field_is_refused(self, field, value, match):
        kwargs = {"g0": 0.1, "band_min": 1.0, "band_max": 2.0, field: value}
        with pytest.raises(ValueError, match=match):
            FlatCoupling(**kwargs)


class TestGaussianBandCoupling:
    def test_peak_and_falloff(self):
        m = GaussianBandCoupling(0.5, 2.0, 0.1)
        assert m.amplitude(2.0) == pytest.approx(0.5)
        assert abs(m.amplitude(2.1)) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)

    def test_eels_matches_quadrature(self):
        m = GaussianBandCoupling(0.37, 2.0, 0.15)
        w = np.linspace(0.5, 3.5, 200001)
        numeric = np.trapezoid(np.abs(m.amplitude(w)) ** 2, w)
        assert eels_probability(m) == pytest.approx(numeric, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianBandCoupling(0.1, -1.0, 0.1)
        with pytest.raises(ValueError):
            GaussianBandCoupling(0.1, 1.0, 0.0)

    @pytest.mark.parametrize("field", ["center", "sigma"])
    def test_nan_field_is_refused(self, field):
        kwargs = {"g0": 0.1, "center": 1.0, "sigma": 0.1, field: math.nan}
        with pytest.raises(ValueError, match="must be positive"):
            GaussianBandCoupling(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("g0", math.nan), ("center", math.inf), ("sigma", math.inf)],
    )
    def test_non_finite_field_is_refused(self, field, value):
        kwargs = {"g0": 0.1, "center": 1.0, "sigma": 0.1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            GaussianBandCoupling(**kwargs)


class TestTabulatedCoupling:
    def test_reproduces_smooth_model_between_nodes(self):
        # Tabulate a smooth complex profile densely; the spline must
        # reproduce it to high accuracy at off-node frequencies.
        nodes = np.linspace(1.0, 3.0, 81)
        profile = lambda w: 0.2 * np.exp(-((w - 2.0) ** 2)) * np.exp(0.3j * w)
        m = TabulatedCoupling(nodes, profile(nodes))
        probe = np.linspace(1.05, 2.95, 137)  # between nodes
        np.testing.assert_allclose(m.amplitude(probe), profile(probe), atol=1e-8)

    def test_zero_outside_table(self):
        nodes = np.linspace(1.0, 3.0, 11)
        m = TabulatedCoupling(nodes, np.full(11, 0.1 + 0.0j))
        assert m.amplitude(0.5) == 0.0
        assert m.amplitude(3.5) == 0.0

    def test_eels_close_to_analytic(self):
        nodes = np.linspace(1.0, 3.0, 201)
        m = TabulatedCoupling(nodes, np.full(201, 0.1 + 0.0j))
        assert eels_probability(m) == pytest.approx(0.01 * 2.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedCoupling([1.0, 2.0, 3.0], [0.1, 0.1, 0.1])  # too few points
        with pytest.raises(ValueError):
            TabulatedCoupling([1.0, 2.0, 2.0, 3.0], [0.1] * 4)  # not increasing
        with pytest.raises(ValueError):
            TabulatedCoupling([-1.0, 1.0, 2.0, 3.0], [0.1] * 4)  # non-positive


class TestWaveguideCoupling:
    def _coupler(self, length_nm, gvd=0.0):
        return WaveguideCoupling(
            g0=0.1,
            omega_match=W0,
            v_electron=BEAM.velocity,
            v_group=1.05 * BEAM.velocity,
            gvd=gvd,
            length=length_nm,
        )

    def test_matched_frequency_gives_peak(self):
        m = self._coupler(1e5)
        assert m.amplitude(W0) == pytest.approx(0.1)
        assert m.envelope(W0) == pytest.approx(1.0)

    def test_first_null_at_two_pi_phase(self):
        # dk*L = 2*pi defines the first spectral null for gvd = 0.
        L = 1e5
        m = self._coupler(L)
        a1 = 1.0 / BEAM.velocity - 1.0 / (1.05 * BEAM.velocity)
        delta_null = 2.0 * math.pi / (a1 * L)
        assert abs(m.envelope(W0 + delta_null)) < 1e-12
        # Between consecutive nulls the envelope changes sign.
        assert m.envelope(W0 + 0.5 * delta_null) > 0.0
        assert m.envelope(W0 + 1.5 * delta_null) < 0.0

    def test_null_spacing_halves_when_length_doubles(self):
        a1 = 1.0 / BEAM.velocity - 1.0 / (1.05 * BEAM.velocity)
        for L in (1e5, 2e5):
            m = self._coupler(L)
            delta_null = 2.0 * math.pi / (a1 * L)
            assert abs(m.envelope(W0 + delta_null)) < 1e-12
            assert abs(m.envelope(W0 + 2 * delta_null)) < 1e-12

    def test_harmonic_selectivity(self):
        # With realistic dispersion a 30 um coupler matched at omega0 passes
        # almost nothing at 2*omega0 (mismatch dominated by the gvd term).
        m = self._coupler(3e4, gvd=0.4)
        rejection = abs(m.amplitude(2 * W0)) / 0.1
        assert rejection < 1e-3

    def test_bandwidth_shrinks_with_length(self):
        # FWHM of |g|^2 scales ~ 1/L for the walk-off-dominated coupler.
        a1 = 1.0 / BEAM.velocity - 1.0 / (1.05 * BEAM.velocity)

        def fwhm(m, L):
            span = 8.0 * math.pi / (a1 * L)  # a few sinc lobes
            w = np.linspace(W0 - span, W0 + span, 40001)
            y = np.abs(m.amplitude(w)) ** 2
            above = w[y >= 0.5 * y.max()]
            return above[-1] - above[0]

        widths = [fwhm(self._coupler(L), L) for L in (1e4, 1e5, 1e6)]
        assert widths[0] > widths[1] > widths[2]
        assert widths[0] / widths[1] == pytest.approx(10.0, rel=0.01)
        assert widths[1] / widths[2] == pytest.approx(10.0, rel=0.01)

    def test_gvd_skews_the_envelope(self):
        sym = self._coupler(1e6, gvd=0.0)
        skew = self._coupler(1e6, gvd=0.4)
        d = 0.01
        assert abs(sym.envelope(W0 + d) - sym.envelope(W0 - d)) < 1e-12
        assert abs(skew.envelope(W0 + d) - skew.envelope(W0 - d)) > 1e-3

    def test_eels_probability_positive_and_finite(self):
        p = eels_probability(self._coupler(1e5))
        assert 0.0 < p < abs(0.1) ** 2 * 2 * W0  # bounded by flat-band value

    @pytest.mark.parametrize("length_nm", [1e4, 1e5, 1e6])
    def test_eels_probability_matches_complex_amplitude_integral(self, length_nm):
        # |g|^2 = |g0|^2 sinc^2 needs no complex exponential; the trapezoid of
        # |amplitude|^2 on the same grid is the reference.
        m = WaveguideCoupling(0.3 - 0.4j, W0, BEAM.velocity, 1.05 * BEAM.velocity, 0.4, length_nm)
        lo = 1e-2 * W0
        dense = np.linspace(lo, 2.0 * W0 - lo, 200001)
        ref = np.trapezoid(np.abs(m.amplitude(dense)) ** 2, dense)
        assert eels_probability(m) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._coupler(-1.0)
        with pytest.raises(ValueError):
            WaveguideCoupling(0.1, -W0, BEAM.velocity, BEAM.velocity, 0.0, 1e5)

    @pytest.mark.parametrize("field", ["omega_match", "v_electron", "v_group", "length"])
    def test_nan_field_is_refused(self, field):
        kwargs = {
            "g0": 0.1,
            "omega_match": W0,
            "v_electron": BEAM.velocity,
            "v_group": 1.05 * BEAM.velocity,
            "gvd": 0.4,
            "length": 1e5,
            field: math.nan,
        }
        with pytest.raises(ValueError, match="must be positive"):
            WaveguideCoupling(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("g0", math.nan),
            ("gvd", math.nan),
            ("gvd", -math.inf),
            ("length", math.inf),
            ("omega_match", math.inf),
            ("v_electron", math.inf),
            ("v_group", math.inf),
        ],
    )
    def test_non_finite_field_is_refused(self, field, value):
        kwargs = {
            "g0": 0.1,
            "omega_match": W0,
            "v_electron": BEAM.velocity,
            "v_group": 1.05 * BEAM.velocity,
            "gvd": 0.4,
            "length": 1e5,
            field: value,
        }
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            WaveguideCoupling(**kwargs)

    # the shipped lengths 10, 100, 1000 um; blocks of 4k to 32k points, and one
    # of 199,999 whose second block is the grid's last term alone
    @pytest.mark.parametrize("block", [1 << 12, 1 << 14, 1 << 15, 199_999])
    @pytest.mark.parametrize("gvd", [0.4, 0.0])
    @pytest.mark.parametrize("length_nm", [1e4, 1e5, 1e6])
    def test_blocked_eels_is_the_trapezoid_bit_for_bit(self, monkeypatch, length_nm, gvd, block):
        monkeypatch.setattr(coupling, "_EELS_BLOCK", block)
        m = WaveguideCoupling(0.3 - 0.4j, W0, BEAM.velocity, 1.05 * BEAM.velocity, gvd, length_nm)
        lo = 1e-2 * W0
        dense = np.linspace(lo, 2.0 * W0 - lo, 200001)
        ref = np.trapezoid(abs(complex(m.g0)) ** 2 * m.envelope(dense) ** 2, dense)
        assert m.eels_probability() == float(ref)

    def test_eels_peak_is_below_three_grid_arrays(self):
        m = self._coupler(1e5, gvd=0.4)
        m.eels_probability()  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            m.eels_probability()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 200001 * 8  # the grid, its terms and one block (whole-array: ~6)


class TestDispatch:
    def test_coupling_amplitude_rejects_nonpositive(self):
        m = FlatCoupling(0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            coupling_amplitude(m, 0.0)
        with pytest.raises(ValueError):
            coupling_amplitude(m, np.array([1.0, -0.5]))

    def test_dispatch_covers_all_models(self):
        models = [
            FlatCoupling(0.1, 1.0, 3.0),
            GaussianBandCoupling(0.1, 2.0, 0.2),
            TabulatedCoupling(np.linspace(1, 3, 9), np.full(9, 0.1 + 0j)),
            WaveguideCoupling(0.1, W0, BEAM.velocity, 1.05 * BEAM.velocity, 0.4, 1e5),
        ]
        for m in models:
            val = coupling_amplitude(m, 2.0)
            assert np.isfinite(complex(val).real)
            assert eels_probability(m) >= 0.0
