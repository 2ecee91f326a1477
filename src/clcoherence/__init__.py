"""Quantum-optical coherence of cathodoluminescence from modulated electrons.

Pipeline: `kinematics` (beam dispersion) -> `estate` (ladder states, density)
-> `spectra` (coherence spectra, CL field statistics) -> `coupling` (photonic
coupling amplitudes) -> `detection` (balanced heterodyne, shot Monte Carlo),
validated end-to-end by `oracle` (truncated-Hilbert-space evolution that uses
none of the analytic formulas).  `cli`/`scenarios` expose reproducible runs.

The package root is lazy (PEP 562): `import clcoherence` loads no numpy, and
each public name below imports its module the first time it is looked up.  So
the CLI can choose numpy's BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.3.0"

# each public name, by the module that defines it
_EXPORTS = {
    "constants": ("C_NM_FS", "ELECTRON_REST_EV", "HBARC_EV_NM", "HBAR_EV_FS", "TWO_PI"),
    "errors": (
        "ClcoherenceError",
        "ConfigError",
        "GridCoverageError",
        "OracleMismatchError",
        "PhysicsGuardError",
        "TruncationError",
    ),
    "kinematics": ("BeamParameters", "wavenumber"),
    "estate": (
        "EnvelopeSpec",
        "LadderState",
        "WavepacketDensity",
        "auto_cutoff",
        "pinem_ladder",
        "propagate",
        "sampling_lattice",
        "synthesize_density",
    ),
    "spectra": (
        "BunchingOptimum",
        "CoherentField",
        "DensitySpectrum",
        "PairCorrelation",
        "TimeDomainField",
        "band_spectrum",
        "central_moment",
        "density_spectrum",
        "doc",
        "doc_map",
        "ladder_overlap",
        "ladder_spectrum",
        "mean_field",
        "mean_photon_number",
        "optimal_bunching_distance",
        "pair_correlation",
        "spectral_width",
        "time_domain_field",
    ),
    "coupling": (
        "FlatCoupling",
        "GaussianBandCoupling",
        "TabulatedCoupling",
        "WaveguideCoupling",
        "coupling_amplitude",
    ),
    "detection": (
        "BeamSplitter",
        "NoiseFloorReport",
        "ReferencePulse",
        "ShotEnsemble",
        "SnrReport",
        "detector_means",
        "noise_floor_terms",
        "sample_shots",
        "snr_estimate",
    ),
    "oracle": (
        "OracleCheckRow",
        "OracleMode",
        "TruncatedSpace",
        "evolve",
        "observables",
        "run_test_matrix",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
