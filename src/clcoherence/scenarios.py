"""Scenario runners behind the CLI: compute, write CSV/JSON artifacts, manifest.

A runner reads the typed fields of a resolved `ScenarioConfig` only: its
defaults and conversions, and any CLI flag, were all settled at load.  It
hands each CSV to `write(name, columns)`, or `write(name, columns, rows)` with
the row text of a structured file, and returns its summary and the body of its
gnuplot script.  `run_scenario` owns every artifact: the CSVs (written
as they are handed over, so a later guard leaves them on disk),
`plot_<scenario>.gp` when output.gnuplot is set, `summary.json`, and a
`manifest.json` that embeds the resolved config (`to_mapping()`), its sha256,
the seed (detection.seed, or null), derived beam constants, the list of
outputs, and the library versions with numpy's SIMD dispatch targets.  Feeding
a manifest back through --config reproduces the run byte-for-byte on a host
with the same SIMD dispatch.
"""
from __future__ import annotations

import json
import logging
import platform
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import DOC_SLICE_HARMONICS, FlatBand, GaussianBand, ScenarioConfig, Tabulated
from .constants import TWO_PI
from .coupling import (
    FlatCoupling,
    GaussianBandCoupling,
    TabulatedCoupling,
    WaveguideCoupling,
)
from .detection import (
    ReferencePulse,
    detector_means,
    noise_floor_terms,
    sample_shots,
    snr_estimate,
)
from .errors import ConfigError, PhysicsGuardError
from .estate import LadderState, pinem_ladder, propagate, synthesize_density
from .kinematics import BeamParameters
from .oracle import require_all_passed, run_test_matrix
from .spectra import (
    _fwhm,
    band_spectrum,
    density_spectrum,
    doc_map,
    ladder_spectrum,
    mean_field,
    optimal_bunching_distance,
    spectral_width,
    time_domain_field,
)

log = logging.getLogger("clcoherence")

NM_PER_MM = 1.0e6
NM_PER_UM = 1.0e3
# CSV rows formatted per `%` call: bounds the cells held as Python objects
# (~100 B a row) without giving up the one C-level call per block.
_CSV_BLOCK = 1 << 12
# doc-slice's spectrum.csv holds at most this many lattice points
_SPECTRUM_ROWS = 50000


@dataclass(frozen=True)
class RunResult:
    out_dir: Path
    outputs: tuple[str, ...]


def _text(values: np.ndarray) -> list[str]:
    """Each float's repr, for a cell whose text is written more than once."""
    return list(map(repr, values.tolist()))


def _negated(text: list[str]) -> list[str]:
    """repr(-x) of each repr(x): the sign flipped in the text, zeros included."""
    return [s[1:] if s[0] == "-" else "-" + s for s in text]


def _rows(cells: list[list]) -> str:
    """CSV rows of equal-length lists of cells, formatted by one `%` call: "%s"
    writes an int as itself, a float as its repr and a cell's text unchanged."""
    row_fmt = ",".join(["%s"] * len(cells)) + "\r\n"
    return row_fmt * len(cells[0]) % tuple(chain.from_iterable(zip(*cells)))


def _table_rows(path: Path, cols: dict):
    """Row i of a plain table holds element i of each equal-length 1-D column
    (a bool as 1/0), `_CSV_BLOCK` rows a block."""
    if any(c.ndim != 1 for c in cols.values()) or len({c.size for c in cols.values()}) > 1:
        raise ValueError(f"{path.name}: columns must be 1-D arrays of equal length")
    data = [c.astype(int) if c.dtype == bool else c for c in cols.values()]
    stop = data[0].size if data else 0
    return (
        _rows([c[start : start + _CSV_BLOCK].tolist() for c in data])
        for start in range(0, stop, _CSV_BLOCK)
    )


def _hermitian_rows(omega, f_real, f_imag, doc):
    """Rows of a spectrum of a real density on the lattice k = -K..K, in ascending
    omega.  Only the omega >= 0 cells are formatted: the row at -omega is the text
    mirror of the row at omega, with omega and f_imag negated and f_real and doc
    copied, F(-omega) = conj F(omega).  The omega > 0 blocks are walked from the
    top down, each mirror written at once and its own text held until the
    omega < 0 half is out (~80 B a row)."""
    zero = omega.size // 2
    if not np.array_equal(omega[:zero], -omega[: zero : -1]):
        raise ValueError("the spectrum's lattice is not symmetric about omega = 0")
    # A row's six cell texts take ~4x the bytes of a plain row's floats: a quarter
    # block holds no more small objects than a plain block, so it grows no
    # interpreter arenas that outlive the file.
    block = _CSV_BLOCK // 4
    held = []
    for stop in range(omega.size, zero + 1, -block):
        start = max(stop - block, zero + 1)
        w, re, im, d = (_text(c[start:stop]) for c in (omega, f_real, f_imag, doc))
        held.append(_rows([w, re, im, d]))
        yield _rows([_negated(w[::-1]), re[::-1], _negated(im[::-1]), d[::-1]])
    yield _rows([[c[zero].item()] for c in (omega, f_real, f_imag, doc)])
    yield from reversed(held)


def _doc_map_rows(d_mm, doc):
    """doc-map's rows (n, d, DOC(n omega0; d)), n-major, from each distance's
    text formatted once."""
    d_text = _text(d_mm)
    for n, row in enumerate(doc):
        for start in range(0, d_mm.size, _CSV_BLOCK):
            d = d_text[start : start + _CSV_BLOCK]
            yield _rows([[n] * len(d), d, row[start : start + _CSV_BLOCK].tolist()])


def _write_csv(path: Path, columns: dict, rows=None) -> None:
    """One CSV file whose header is the keys of `columns`.  Floats are written as
    their repr, bools as 1/0; nothing is quoted, since no column holds a
    separator.  A non-finite float in any column raises PhysicsGuardError before
    the file is opened.  `rows` is the row text, in blocks, of a structured file
    over these columns; without it row i holds element i of each equal-length
    1-D column, `_CSV_BLOCK` rows per `%` call."""
    cols = {name: np.asarray(col) for name, col in columns.items()}
    if rows is None:
        rows = _table_rows(path, cols)
    bad = [name for name, c in cols.items() if c.dtype.kind == "f" and not np.isfinite(c).all()]
    if bad:
        raise PhysicsGuardError(f"{path.name} would hold non-finite numbers in: {' '.join(bad)}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\r\n")
        fh.writelines(rows)


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # name the offending keys, read off a lenient dump
        lines = json.dumps(payload, indent=2, sort_keys=True).splitlines()
        bad = " ".join(s.strip() for s in lines if s.rstrip(",").endswith(("NaN", "Infinity")))
        raise PhysicsGuardError(f"{path.name} would hold non-finite numbers: {bad}") from None
    path.write_text(text + "\n")


def _derived_constants(beam: BeamParameters) -> dict:
    return {
        "gamma": beam.gamma,
        "beta_v": beam.beta_v,
        "velocity_nm_fs": beam.velocity,
        "photon_energy_ev": beam.photon_energy,
        "omega0_rad_fs": beam.omega0,
        "talbot_distance_nm": beam.talbot_distance,
    }


# ----------------------------------------------------------------- builders


def build_state(cfg: ScenarioConfig) -> LadderState:
    """The modulated ladder, propagated over the configured distance."""
    mod, prop = cfg.modulation, cfg.propagation
    state = pinem_ladder(mod.beta, cfg.beam)
    if prop.distance_mm:
        state = propagate(state, prop.distance_mm * NM_PER_MM, prop.mode)
    return state


def _band_spectrum(cfg: ScenarioConfig, what: str):
    """F on the part of a run's sampled lattice it reads, cfg.lattice_range; the band
    lo <= omega <= hi that the run reads (cfg.band) must hold 2 or more lattice points."""
    lo, hi = cfg.band
    spectrum = band_spectrum(build_state(cfg), cfg.envelope, *cfg.lattice_range)
    w = spectrum.omega_grid
    if np.count_nonzero((w > 0.0) & (w >= lo) & (w <= hi)) < 2:
        raise ConfigError(
            f"{what}: the band [{lo:g}, {hi:g}] rad/fs holds fewer than 2 points of the "
            f"spectral lattice, whose step {spectrum.domega:g} rad/fs the envelope window sets"
        )
    return spectrum


def _band_field(model, spectrum, lo: float, hi: float):
    """<a> on the band.  Where |<a>|^2 is identically zero, as it is when a subnormal
    <a> underflows, the field has no shape or width."""
    field = mean_field(model, spectrum, band=(lo, hi))
    if not np.any(np.abs(field.a_mean) ** 2):
        raise PhysicsGuardError(
            f"<a> is identically zero in the band [{lo:g}, {hi:g}] rad/fs, "
            "or so small that |<a>|^2 underflows"
        )
    return field


def _require_half_widths(tfield, envelope, what: str, gaussian_fix: str) -> None:
    """The field is finite once its CSV is written, so a NaN width is a field that
    never falls to half its peak inside its time grid."""
    if np.isnan([tfield.fwhm_envelope, tfield.fwhm_intensity]).any():
        infinite = "envelope.kind 'infinite' gives a field without end; use a gaussian envelope"
        raise PhysicsGuardError(
            f"{what} does not fall to half its peak inside the +/-{tfield.t[-1]:g} fs time "
            f"grid; {infinite if envelope.kind == 'infinite' else gaussian_fix}"
        )


def build_coupling(cfg: ScenarioConfig, length_um: float | None = None):
    c, w0 = cfg.coupling, cfg.beam.omega0
    if isinstance(c, FlatBand):
        lo, hi = c.band_over_omega0
        return FlatCoupling(g0=c.g0, band_min=lo * w0, band_max=hi * w0)
    if isinstance(c, GaussianBand):
        return GaussianBandCoupling(
            g0=c.g0, center=c.center_over_omega0 * w0, sigma=c.sigma_over_omega0 * w0
        )
    if isinstance(c, Tabulated):
        try:
            rows = np.loadtxt(c.table_path, delimiter=",", skiprows=1, ndmin=2)
        except OSError:
            raise ConfigError(f"coupling.table_path: cannot read {c.table_path}") from None
        if rows.shape[1] != 3:
            raise ConfigError(
                "coupling table must have columns omega_rad_per_fs,g_real,g_imag"
            )
        return TabulatedCoupling(rows[:, 0], rows[:, 1] + 1j * rows[:, 2])
    v_e = cfg.beam.velocity
    return WaveguideCoupling(
        g0=c.g0,
        omega_match=c.omega_match_over_omega0 * w0,
        v_electron=v_e,
        v_group=c.v_group_ratio * v_e,
        gvd=c.gvd_fs2_nm,
        length=(c.length_um if length_um is None else length_um) * NM_PER_UM,
    )


# ----------------------------------------------------------------- scenarios


def _run_doc_map(cfg: ScenarioConfig, write):
    scan, mode = cfg.scan, cfg.propagation.mode
    state = pinem_ladder(cfg.modulation.beta, cfg.beam)  # at the modulation plane
    optimum = optimal_bunching_distance(
        state,
        d_min=scan.d_min_mm * NM_PER_MM,
        d_max=scan.d_max_mm * NM_PER_MM,
        coarse_step=scan.coarse_step_mm * NM_PER_MM,
        refine_tol=scan.refine_tol_mm * NM_PER_MM,
        threshold=scan.threshold,
        n_scan=scan.n_harmonics,
        mode=mode,
    )
    matrix = optimum.coarse_doc
    d_mm = optimum.coarse_distances / NM_PER_MM
    columns = {"omega_over_omega0": np.arange(matrix.shape[0]), "d_mm": d_mm, "doc": matrix}
    write("doc_map.csv", columns, _doc_map_rows(d_mm, matrix))
    write("width.csv", {"d_mm": d_mm, "width": optimum.coarse_widths})
    at_optimum = doc_map(state, np.array([optimum.distance]), n_max=8, mode=mode)[:, 0]
    summary = {
        "optimal_distance_mm": optimum.distance / NM_PER_MM,
        "optimal_distance_nm": optimum.distance,
        "width_max": optimum.width,
        "tiebreak_sum_sqrt_doc": optimum.tiebreak_value,
        "threshold": scan.threshold,
        "propagation_mode": mode,
        "sqrt_doc_at_optimum": {str(n): float(np.sqrt(at_optimum[n])) for n in range(1, 7)},
    }
    log.info(
        "doc-map: d_opt = %.4f mm, width = %d", summary["optimal_distance_mm"], optimum.width
    )
    return summary, (
        "set xlabel 'd (mm)'\nset ylabel 'harmonic n'\nset cblabel 'DOC'\n"
        "plot 'doc_map.csv' using 2:1:3 every ::1 with points palette pt 5 notitle\n"
    )


def _spectrum_step(n_fft: int, span: int) -> int:
    """Smallest divisor s of the padded length n_fft that keeps at most
    _SPECTRUM_ROWS of the lattice points k = -span..span on k = 0 (mod s)."""
    return next(
        s for s in range(1, n_fft + 1) if n_fft % s == 0 and 2 * (span // s) < _SPECTRUM_ROWS
    )


def _run_doc_slice(cfg: ScenarioConfig, write):
    """The independent route: the FFT of the sampled density, checked against the
    ladder sums at the harmonics.  spectrum.csv holds the FFT on every s-th point
    of its lattice; its omega < 0 rows are written as the Hermitian mirror of the
    omega > 0 rows, once the FFT's own omega < 0 half has passed DensitySpectrum's
    guard.  The density's one reference is popped into spectrum.csv's transform,
    which frees the samples once it has folded them, before its rfft (CPython
    3.11 and later move a call's arguments into the callee's frame)."""
    state = build_state(cfg)
    held = [synthesize_density(state, cfg.envelope)]
    w0 = cfg.beam.omega0
    n_keep = DOC_SLICE_HARMONICS  # below 2J: auto_cutoff is at least 20
    top = n_keep * w0 * (1.0 + 1.0e-12)
    # harmonics sit on k = 0 (mod periods x pad): one period of the density, summed over periods
    lattice = held[0].lattice
    per_harmonic = lattice.periods * lattice.pad
    harmonics = density_spectrum(held[0], top, step=per_harmonic)

    n = np.arange(-n_keep, n_keep + 1)
    f_fft = harmonics.value_at(n * w0)
    f_all = ladder_spectrum(state).values  # harmonics -2J..2J
    f_lad = f_all[n + 2 * state.cutoff]
    write(
        "harmonics.csv",
        {
            "omega_over_omega0": n,
            "f_fft_real": f_fft.real,
            "f_fft_imag": f_fft.imag,
            "f_ladder_real": f_lad.real,
            "f_ladder_imag": f_lad.imag,
            "doc": np.abs(f_fft) ** 2,
            "sqrt_doc": np.abs(f_fft),
        },
    )

    doc_by_n = np.abs(f_all[2 * state.cutoff :]) ** 2
    summary = {
        "distance_mm": cfg.propagation.distance_mm,
        "envelope": {"kind": cfg.envelope.kind, "fwhm_fs": cfg.envelope.fwhm_fs},
        "samples": int(held[0].samples.size),
        "dt_fs": held[0].dt,
        "periods_in_window": lattice.periods,
        "width_at_1pct": int(spectral_width(doc_by_n, 0.01)),
        "max_fft_ladder_mismatch": float(np.max(np.abs(f_fft - f_lad))),
    }
    step = _spectrum_step(lattice.n_fft, n_keep * per_harmonic)
    spectrum = density_spectrum(held.pop(), top, step=step)
    f = spectrum.values
    columns = {
        "omega_over_omega0": spectrum.omega_grid / w0,
        "f_real": f.real,
        "f_imag": f.imag,
        "doc": np.abs(f) ** 2,
    }
    write("spectrum.csv", columns, _hermitian_rows(*columns.values()))
    log.info(
        "doc-slice: width(1%%) = %d, FFT/ladder mismatch = %.3e",
        summary["width_at_1pct"],
        summary["max_fft_ladder_mismatch"],
    )
    return summary, (
        "set xlabel 'omega/omega0'\nset ylabel 'DOC'\nset logscale y\n"
        "plot 'spectrum.csv' using 1:4 every ::1 with lines notitle\n"
    )


def _run_waveguide(cfg: ScenarioConfig, write):
    lo, hi = cfg.band
    spectrum = _band_spectrum(cfg, "envelope")

    lengths_um = cfg.coupling.lengths_um or (cfg.coupling.length_um,)
    t_grid = np.linspace(-2560.0, 2560.0, 8193)

    per_length = []
    for length_um in lengths_um:
        model = build_coupling(cfg, length_um=length_um)
        field = _band_field(model, spectrum, lo, hi)
        wsel = field.omega_grid
        intensity = np.abs(field.a_mean) ** 2
        envelope_vals = model.envelope(wsel)

        # spectral width of |<a>|^2 and sign changes inside the DOC line peak
        spec_fwhm = _fwhm(wsel, intensity)
        line = np.abs(spectrum.value_at(wsel)) ** 2
        peak_region = line >= 0.01 * np.max(line)
        env_in_peak = envelope_vals[peak_region]
        sign_changes = int(np.sum(env_in_peak[:-1] * env_in_peak[1:] < 0.0))

        tfield = time_domain_field(field, t=t_grid)

        tag = f"{length_um:g}um"
        sel = slice(None, None, max(1, wsel.size // 4000))
        g = model.amplitude(wsel[sel])
        write(
            f"spectrum_{tag}.csv",
            {
                "omega_rad_per_fs": wsel[sel],
                "g_real": g.real,
                "g_imag": g.imag,
                "sinc_envelope": envelope_vals[sel],
                "a_abs2": intensity[sel],
            },
        )
        e = tfield.values[::2]
        write(
            f"field_{tag}.csv",
            {"t_fs": t_grid[::2], "e_real": e.real, "e_imag": e.imag, "intensity": np.abs(e) ** 2},
        )
        what = f"the field at length {length_um:g} um"
        _require_half_widths(tfield, cfg.envelope, what, "shorten envelope.fwhm_fs")
        per_length.append(
            {
                "length_um": float(length_um),
                "spectral_fwhm_rad_per_fs": spec_fwhm,
                "sign_changes_in_line_peak": sign_changes,
                "time_intensity_fwhm_fs": tfield.fwhm_intensity,
                "time_envelope_fwhm_fs": tfield.fwhm_envelope,
                "eels_probability": model.eels_probability(),
            }
        )

    fwhms = [p["spectral_fwhm_rad_per_fs"] for p in per_length]
    tims = [p["time_intensity_fwhm_fs"] for p in per_length]
    summary = {
        "lengths_um": [float(x) for x in lengths_um],
        "per_length": per_length,
        "spectral_fwhm_monotone_decreasing": bool(
            all(a > b for a, b in zip(fwhms, fwhms[1:]))
        ),
        "time_fwhm_monotone_increasing": bool(all(a < b for a, b in zip(tims, tims[1:]))),
        "defaults": {
            "v_group_ratio": cfg.coupling.v_group_ratio,
            "gvd_fs2_nm": cfg.coupling.gvd_fs2_nm,
        },
    }
    log.info(
        "waveguide: spectral FWHM %s rad/fs over lengths %s um",
        [f"{x:.4g}" for x in fwhms],
        lengths_um,
    )
    return summary, (
        "set xlabel 't (fs)'\nset ylabel 'intensity'\n"
        "plot "
        + ", ".join(
            f"'field_{length_um:g}um.csv' using 1:4 every ::1 with lines title '{length_um:g} um'"
            for length_um in lengths_um
        )
        + "\n"
    )


def _run_pulse_shape(cfg: ScenarioConfig, write):
    model = build_coupling(cfg)
    spectrum = _band_spectrum(cfg, "envelope")
    field = _band_field(model, spectrum, *cfg.band)
    fwhm = cfg.envelope.fwhm_fs or 8.0 * cfg.beam.optical_period
    t_grid = np.linspace(-8.0 * fwhm, 8.0 * fwhm, 4097)
    tfield = time_domain_field(field, t=t_grid)

    e = tfield.values
    write(
        "field_time.csv",
        {
            "t_fs": t_grid,
            "e_real": e.real,
            "e_imag": e.imag,
            "envelope": np.abs(e),
            "intensity": np.abs(e) ** 2,
        },
    )
    fix = "lengthen envelope.fwhm_fs, which sets the grid to +/-8 fwhm"
    _require_half_widths(tfield, cfg.envelope, "the field", fix)
    ratio = tfield.fwhm_envelope / tfield.fwhm_intensity
    summary = {
        "envelope_fwhm_fs": cfg.envelope.fwhm_fs,
        "field_envelope_fwhm_fs": tfield.fwhm_envelope,
        "field_intensity_fwhm_fs": tfield.fwhm_intensity,
        "envelope_to_intensity_ratio": ratio,
    }
    log.info(
        "pulse-shape: |E| FWHM %.2f fs, |E|^2 FWHM %.2f fs",
        tfield.fwhm_envelope,
        tfield.fwhm_intensity,
    )
    return summary, (
        "set xlabel 't (fs)'\nset ylabel '|E|^2'\n"
        "plot 'field_time.csv' using 1:5 every ::1 with lines notitle\n"
    )


def _run_detect(cfg: ScenarioConfig, write):
    model = build_coupling(cfg)
    det = cfg.detection
    w0 = cfg.beam.omega0

    spectrum = _band_spectrum(cfg, "detection.reference")
    field = mean_field(model, spectrum, band=cfg.band)
    reference = ReferencePulse.gaussian(
        field.omega_grid,
        center=det.reference.center_over_omega0 * w0,
        sigma=det.reference.sigma_over_omega0 * w0,
        total_counts=det.reference.total_counts,
        phase=det.reference.phase_rad,
    )
    splitter = det.splitter

    mu1, mu2 = detector_means(splitter, reference, field, *det.qe)
    ensemble = sample_shots(mu1, mu2, n_shots=det.shots, seed=det.seed)
    report = snr_estimate(ensemble)
    noise = noise_floor_terms(splitter, reference, model, spectrum)

    write(
        "shots.csv",
        {
            "shot_index": np.arange(ensemble.n_shots),
            "i1": ensemble.counts1,
            "i2": ensemble.counts2,
        },
    )

    if det.phase_sweep_points:
        phases = np.linspace(0.0, TWO_PI, det.phase_sweep_points, endpoint=False)
        means = (detector_means(splitter, reference.with_phase(p), field, *det.qe) for p in phases)
        write("phase_sweep.csv", {"phase_rad": phases, "signal": [m1 - m2 for m1, m2 in means]})

    summary = {
        "mu1": mu1,
        "mu2": mu2,
        "signal": mu1 - mu2,
        "empirical_mean_difference": report.signal,
        "empirical_noise_per_shot": report.noise_per_shot,
        "empirical_stderr": report.stderr,
        "snr": report.snr,
        "snr_per_shot": report.snr_per_shot,
        "n_shots": ensemble.n_shots,
        "seed": det.seed,
        "config_sha256": cfg.sha256(),
        "noise_floor": asdict(noise),
        "splitter_imbalance": splitter.imbalance,
        "reference_counts": reference.total_counts,
        "eels_probability": model.eels_probability(),
    }
    log.info(
        "detect: mu1 = %.4f, mu2 = %.4f, snr/shot = %.4f over %d shots",
        mu1,
        mu2,
        report.snr_per_shot,
        ensemble.n_shots,
    )
    return summary, (
        "set xlabel 'shot'\nset ylabel 'I1 - I2'\n"
        "plot 'shots.csv' using 1:($2-$3) every ::1 with points pt 7 ps 0.3 notitle\n"
    )


def _run_oracle_check(cfg: ScenarioConfig, write):
    rows = run_test_matrix(cfg.beam)
    write(
        "oracle_check.csv",
        {
            "beta_abs": [r.beta_abs for r in rows],
            "d_over_zt": [r.d_over_zt for r in rows],
            "g": [r.g for r in rows],
            "harmonics": ["+".join(map(str, r.harmonics)) for r in rows],
            "dimension": [r.dimension for r in rows],
            "doc_fundamental": [r.doc_fundamental for r in rows],
            "max_abs_error": [r.max_error for r in rows],
            "passed": [r.passed for r in rows],
        },
    )
    docs = [r.doc_fundamental for r in rows]
    guards = [c for r in rows for c in r.checks if c.name in ("norm", "truncation_leakage")]
    guards.sort(key=lambda c: c.error)  # the largest error of each name is written last
    summary = {
        "rows": len(rows),
        "passed": sum(1 for r in rows if r.passed),
        "max_abs_error": max(r.max_error for r in rows),
        "doc_fundamental_range": max(docs) - min(docs),
        "guards": {c.name: {"error": c.error, "tolerance": c.tolerance} for c in guards},
    }
    for r in rows:
        log.info(
            "oracle: beta=%.1f d/zT=%.2f g=%.2f modes=%s dim=%d max_err=%.2e %s",
            r.beta_abs,
            r.d_over_zt,
            r.g,
            r.harmonics,
            r.dimension,
            r.max_error,
            "ok" if r.passed else "FAIL",
        )
    require_all_passed(rows)
    return summary, None


def _run_sweep(cfg: ScenarioConfig, write):
    sweep = cfg.sweep
    param = sweep.parameter
    docs = []
    records = []
    for value in sweep.values:
        if param == "beta_abs":
            point = replace(cfg, modulation=replace(cfg.modulation, beta_abs=value))
        else:
            point = replace(cfg, propagation=replace(cfg.propagation, distance_mm=value))
        state = build_state(point)
        n_top = min(sweep.n_harmonics, 2 * state.cutoff)  # >= 1: both bounds are >= 1
        doc_by_n = np.abs(ladder_spectrum(state, n_top).values[n_top:]) ** 2
        docs.append(doc_by_n)
        records.append(
            {
                "value": float(value),
                "width_at_1pct": int(spectral_width(doc_by_n, 0.01)),
                "doc_fundamental": float(doc_by_n[1]),
            }
        )
    lengths = [d.size for d in docs]
    write(
        "sweep.csv",
        {
            "parameter": [param] * sum(lengths),
            "value": np.repeat(sweep.values, lengths),
            "omega_over_omega0": np.concatenate([np.arange(k) for k in lengths]),
            "doc": np.concatenate(docs),
        },
    )
    summary = {"parameter": param, "records": records}
    log.info("sweep over %s: %d values", param, len(sweep.values))
    return summary, (
        "set xlabel 'harmonic'\nset ylabel 'DOC'\n"
        "plot 'sweep.csv' using 3:4 every ::1 with points notitle\n"
    )


_RUNNERS = {
    "doc-map": _run_doc_map,
    "doc-slice": _run_doc_slice,
    "waveguide": _run_waveguide,
    "pulse-shape": _run_pulse_shape,
    "detect": _run_detect,
    "oracle-check": _run_oracle_check,
    "sweep": _run_sweep,
}


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> RunResult:
    """Execute a scenario and write its artifacts plus summary and manifest."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or on its way
        raise ConfigError(f"output directory {str(out_dir)!r}: {exc.strerror}") from exc
    outputs = ["summary.json"]

    def write(name: str, columns: dict, rows=None) -> None:
        _write_csv(out_dir / name, columns, rows)
        outputs.append(name)

    # A field beyond float range turns inf or nan without a numpy warning; the
    # CSV and summary guards name every non-finite value (exit 3).
    with np.errstate(over="ignore", invalid="ignore"):
        summary, plot = _RUNNERS[cfg.scenario](cfg, write)
    if cfg.output.gnuplot and plot is not None:
        name = f"plot_{cfg.scenario.replace('-', '_')}.gp"
        (out_dir / name).write_text("set datafile separator ','\n" + plot)
        outputs.append(name)
    _write_json(out_dir / "summary.json", summary)

    seed = cfg.detection.seed if cfg.detection is not None else None
    manifest = {
        "tool": "clcoherence",
        "version": __version__,
        "scenario": cfg.scenario,
        "config": cfg.to_mapping(),
        "config_sha256": cfg.sha256(),
        "seed": seed,
        "derived_constants": _derived_constants(cfg.beam),
        "outputs": sorted(outputs),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            # the dispatch targets that set the last bits of float reductions
            "simd": np.show_config(mode="dicts")["SIMD Extensions"],
        },
    }
    _write_json(out_dir / "manifest.json", manifest)
    return RunResult(out_dir=out_dir, outputs=tuple(sorted(outputs)))
