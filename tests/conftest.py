"""Shared fixtures for the clcoherence test suite."""

import numpy as np
import pytest
from scipy.special import jv

from clcoherence import BeamParameters, auto_cutoff

# One-line verdicts appended by tests/test_acceptance.py; echoed after the
# run so they stay visible even under output capture.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def beam200():
    """200 keV electron modulated by an 800 nm laser — the workhorse configuration."""
    return BeamParameters.from_wavelength(200e3, 800.0)


def circular_align(a, b):
    """Best circular shift of ``b`` onto ``a`` (max |diff| after alignment).

    Periodic densities synthesized with different window origins agree only up
    to a cyclic shift by an integer number of samples; this finds the shift
    with maximal cross-correlation and returns the max absolute mismatch.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("arrays must have identical shapes")
    corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b)))
    shift = int(np.argmax(corr.real))
    return float(np.max(np.abs(a - np.roll(b, shift))))


def analytic_pinem_overlap(
    beta: complex, harmonic: int, d_over_zt: float, cutoff: int | None = None
) -> complex:
    """Closed Bessel-sum form of F(n omega0) after quadratic propagation.

    b_n = e^{i n arg(-beta)} e^{-2 pi i n^2 x} sum_l J_l(2|b|) J_{l+n}(2|b|)
    e^{-4 pi i l n x} with x = d/z_T.  Independent of the ladder/FFT pipelines;
    used to cross-validate them.
    """
    beta = complex(beta)
    absb = abs(beta)
    n = int(harmonic)
    if absb == 0.0:
        return 1.0 + 0.0j if n == 0 else 0.0 + 0.0j
    if cutoff is None:
        cutoff = auto_cutoff(absb)
    ell = np.arange(-cutoff - abs(n), cutoff + abs(n) + 1)
    x = float(d_over_zt)
    series = np.sum(
        jv(ell, 2.0 * absb) * jv(ell + n, 2.0 * absb) * np.exp(-4j * np.pi * ell * n * x)
    )
    phase = np.exp(1j * n * np.angle(-beta)) * np.exp(-2j * np.pi * n * n * x)
    return complex(phase * series)
