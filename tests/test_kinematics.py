"""Relativistic kinematics: Lorentz factor, level wavenumbers, Talbot distance.

Frozen reference values were computed independently with mpmath at 50-digit
precision from the defining formulas before the implementation existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcoherence import (
    BeamParameters,
    C_NM_FS,
    ELECTRON_REST_EV,
    HBARC_EV_NM,
    HBAR_EV_FS,
    TWO_PI,
    wavenumber,
)

# Frozen high-precision expectations for T = 200 keV, lambda = 800 nm.
GAMMA_200KEV = 1.3913902367118367
BETA_200KEV = 0.6953144712627447
VELOCITY_200KEV = 208.4500344228286  # nm/fs
PHOTON_EV_800NM = 1.5498024799492427
OMEGA0_800NM = 2.354564458610555  # rad/fs
K0_200KEV_800NM = 2505.32318482494  # rad/nm
ZT_200KEV_800NM = 477698963.1124064  # nm  (~0.4777 m)


class TestLorentzFactor:
    def test_frozen_value(self, beam200):
        assert beam200.gamma == pytest.approx(GAMMA_200KEV, rel=1e-14)
        # gamma = 1 + T/mc^2 by definition of kinetic energy
        assert beam200.gamma == pytest.approx(1.0 + 200e3 / ELECTRON_REST_EV, rel=1e-15)

    def test_beta_and_velocity(self, beam200):
        assert beam200.beta_v == pytest.approx(BETA_200KEV, rel=1e-14)
        assert beam200.velocity == pytest.approx(VELOCITY_200KEV, rel=1e-14)
        assert beam200.velocity == pytest.approx(beam200.beta_v * C_NM_FS, rel=1e-15)

    def test_nonpositive_kinetic_energy_rejected(self):
        with pytest.raises(ValueError):
            BeamParameters(kinetic_energy=0.0, photon_energy=1.5)
        with pytest.raises(ValueError):
            BeamParameters(kinetic_energy=-5.0, photon_energy=1.5)


class TestPhotonEnergy:
    def test_wavelength_conversion(self, beam200):
        # E = 2*pi*hbar*c/lambda
        assert beam200.photon_energy == pytest.approx(PHOTON_EV_800NM, rel=1e-14)
        assert beam200.photon_energy == pytest.approx(
            TWO_PI * HBARC_EV_NM / 800.0, rel=1e-15
        )

    def test_omega0_and_period(self, beam200):
        assert beam200.omega0 == pytest.approx(OMEGA0_800NM, rel=1e-14)
        assert beam200.omega0 == pytest.approx(beam200.photon_energy / HBAR_EV_FS, rel=1e-15)
        assert beam200.optical_period == pytest.approx(TWO_PI / OMEGA0_800NM, rel=1e-14)

    def test_direct_photon_energy_construction(self):
        direct = BeamParameters(kinetic_energy=200e3, photon_energy=PHOTON_EV_800NM)
        via_wavelength = BeamParameters.from_wavelength(200e3, 800.0)
        assert direct.photon_energy == pytest.approx(via_wavelength.photon_energy, rel=1e-15)
        assert direct.talbot_distance == pytest.approx(
            via_wavelength.talbot_distance, rel=1e-14
        )


class TestWavenumber:
    def test_central_level_frozen(self, beam200):
        k0 = wavenumber(beam200, 0)
        assert k0 == pytest.approx(K0_200KEV_800NM, rel=1e-13)
        # direct formula: hbar*c*k = sqrt(E_total^2 - (mc^2)^2)
        total = ELECTRON_REST_EV + 200e3
        expected = math.sqrt(total**2 - ELECTRON_REST_EV**2) / HBARC_EV_NM
        assert k0 == pytest.approx(expected, rel=1e-15)

    def test_monotone_in_level_index(self, beam200):
        levels = np.arange(-30, 31)
        k = wavenumber(beam200, levels)
        assert np.all(np.diff(k) > 0)

    def test_second_difference_negative(self, beam200):
        # Dispersion is concave in level index: k_{j+1} - 2 k_j + k_{j-1} < 0.
        for j in (-10, 0, 10):
            d2 = (
                wavenumber(beam200, j + 1)
                - 2.0 * wavenumber(beam200, j)
                + wavenumber(beam200, j - 1)
            )
            assert d2 < 0.0

    def test_array_input(self, beam200):
        levels = np.array([-2, 0, 3])
        k = wavenumber(beam200, levels)
        assert k.shape == (3,)
        assert k[1] == wavenumber(beam200, 0)

    def test_below_rest_energy_rejected(self, beam200):
        # Total energy must stay above mc^2; j ~ -130000 crosses it.
        bad = -int(math.ceil((200e3 + 1.0) / beam200.photon_energy))
        with pytest.raises(ValueError):
            wavenumber(beam200, bad)


class TestTalbotDistance:
    def test_frozen_value(self, beam200):
        assert beam200.talbot_distance == pytest.approx(ZT_200KEV_800NM, rel=1e-10)

    def test_two_closed_forms_agree(self, beam200):
        # 4*pi*mc^2*beta^3*gamma^3*c/(hbar*omega0^2)  ==  2*v^2*omega0*... form
        g = beam200.gamma
        b = beam200.beta_v
        w0 = beam200.omega0
        form_a = 4.0 * math.pi * ELECTRON_REST_EV * b**3 * g**3 * C_NM_FS / (
            HBAR_EV_FS * w0**2
        )
        assert beam200.talbot_distance == pytest.approx(form_a, rel=1e-13)
        # Definition via the quadratic dispersion coefficient:
        # 2*pi/z_T = -(1/2) d^2k/dj^2 with k(j) = sqrt((E + j*p)^2 - m^2)/(hbar c),
        # whose exact second derivative is -p^2 m^2 / (hbar c * (hbar c * k0)^3).
        photon = beam200.photon_energy
        k0 = wavenumber(beam200, 0)
        d2k_exact = -(photon**2) * ELECTRON_REST_EV**2 / (
            HBARC_EV_NM * (HBARC_EV_NM * k0) ** 3
        )
        assert TWO_PI / beam200.talbot_distance == pytest.approx(
            -0.5 * d2k_exact, rel=1e-12
        )

    def test_finite_difference_consistency_high_precision(self, beam200):
        # The quadratic phase per Talbot distance must match the exact-dispersion
        # second difference to 1e-6 relative.  The difference k(+1)-2k(0)+k(-1)
        # cancels ~11 leading digits, so double precision cannot certify this;
        # redo the subtraction with 50-digit arithmetic.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rest = mp.mpf("510998.95")
        kinetic = mp.mpf(200000)
        hbarc = mp.mpf("197.3269804")
        photon = 2 * mp.pi * hbarc / mp.mpf(800)

        def k(j):
            total = rest + kinetic + j * photon
            return mp.sqrt(total * total - rest * rest) / hbarc

        second_diff = k(1) - 2 * k(0) + k(-1)
        lhs = -second_diff / 2  # phase curvature per unit length
        rhs = 2 * mp.pi / mp.mpf(repr(beam200.talbot_distance))
        rel = abs(lhs - rhs) / rhs
        assert rel < 1e-6

    def test_finite_difference_consistency_double_precision(self, beam200):
        # Same check in plain float64: cancellation noise limits it to ~1e-4.
        second_diff = (
            wavenumber(beam200, 1) - 2.0 * wavenumber(beam200, 0) + wavenumber(beam200, -1)
        )
        assert -0.5 * second_diff == pytest.approx(
            TWO_PI / beam200.talbot_distance, rel=1e-4
        )


class TestRecoilGuards:
    def test_moderate_recoil_warns(self):
        # photon/kinetic ratio between 1e-3 and 1e-2 warns but constructs.
        with pytest.warns(UserWarning):
            beam = BeamParameters(kinetic_energy=1000.0, photon_energy=5.0)
        assert beam.gamma > 1.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BeamParameters(kinetic_energy=1000.0, photon_energy=5.0),
            lambda: BeamParameters.from_wavelength(1000.0, 200.0),
        ],
        ids=["constructor", "from_wavelength"],
    )
    def test_moderate_recoil_warning_names_the_callers_line(self, build):
        # neither the dataclass-generated __init__ nor from_wavelength
        with pytest.warns(UserWarning, match="non-recoil") as record:
            build()
        assert [w.filename for w in record] == [__file__]
        assert [w.lineno for w in record] == [build.__code__.co_firstlineno]

    def test_large_recoil_rejected(self):
        with pytest.raises(ValueError):
            BeamParameters(kinetic_energy=100.0, photon_energy=5.0)


@settings(max_examples=50, deadline=None)
@given(
    kinetic=st.floats(min_value=1e4, max_value=3e6),
    wavelength=st.floats(min_value=400.0, max_value=2000.0),
)
def test_kinematic_invariants(kinetic, wavelength):
    beam = BeamParameters.from_wavelength(kinetic, wavelength)
    assert beam.gamma > 1.0
    assert 0.0 < beam.beta_v < 1.0
    assert 0.0 < beam.velocity < C_NM_FS
    assert beam.talbot_distance > 0.0
