"""Quantum-optical coherence of cathodoluminescence from modulated electrons.

Pipeline: `kinematics` (beam dispersion) -> `estate` (ladder states, density)
-> `spectra` (coherence spectra, CL field statistics) -> `coupling` (photonic
coupling amplitudes) -> `detection` (balanced heterodyne, shot Monte Carlo),
validated end-to-end by `oracle` (truncated-Hilbert-space evolution that uses
none of the analytic formulas).  `cli`/`scenarios` expose reproducible runs.
"""

__version__ = "0.3.0"

from .constants import C_NM_FS, ELECTRON_REST_EV, HBARC_EV_NM, HBAR_EV_FS, TWO_PI
from .errors import (
    ClcoherenceError,
    ConfigError,
    GridCoverageError,
    OracleMismatchError,
    PhysicsGuardError,
    TruncationError,
)
from .kinematics import BeamParameters, wavenumber
from .estate import (
    EnvelopeSpec,
    LadderState,
    WavepacketDensity,
    auto_cutoff,
    pinem_ladder,
    propagate,
    sampling_lattice,
    synthesize_density,
)
from .spectra import (
    BunchingOptimum,
    CoherentField,
    DensitySpectrum,
    PairCorrelation,
    TimeDomainField,
    band_spectrum,
    central_moment,
    density_spectrum,
    doc,
    doc_map,
    ladder_overlap,
    ladder_spectrum,
    mean_field,
    mean_photon_number,
    optimal_bunching_distance,
    pair_correlation,
    spectral_width,
    time_domain_field,
)
from .coupling import (
    FlatCoupling,
    GaussianBandCoupling,
    TabulatedCoupling,
    WaveguideCoupling,
    coupling_amplitude,
)
from .detection import (
    BeamSplitter,
    NoiseFloorReport,
    ReferencePulse,
    ShotEnsemble,
    SnrReport,
    detector_means,
    noise_floor_terms,
    sample_shots,
    snr_estimate,
)
from .oracle import (
    OracleCheckRow,
    OracleMode,
    TruncatedSpace,
    build_generator,
    evolve,
    observables,
    run_test_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
