"""Scenario runners behind the CLI: compute, write CSV/JSON artifacts, manifest.

A runner reads the typed fields of a resolved `ScenarioConfig` only: its
defaults and conversions, and any CLI flag, were all settled at load.  It
hands each CSV to `write(name, columns)` and returns its summary and the body
of its gnuplot script.  `run_scenario` owns every artifact: the CSVs (written
as they are handed over, so a later guard leaves them on disk),
`plot_<scenario>.gp` when output.gnuplot is set, `summary.json`, and a
`manifest.json` that embeds the resolved config (`to_mapping()`), its sha256,
the seed (detection.seed, or null), derived beam constants, and the list of
outputs.  Feeding a manifest back through --config reproduces the run
byte-for-byte.
"""
from __future__ import annotations

import json
import logging
import platform
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import FlatBand, GaussianBand, ScenarioConfig, Tabulated
from .constants import TWO_PI
from .coupling import (
    FlatCoupling,
    GaussianBandCoupling,
    TabulatedCoupling,
    WaveguideCoupling,
)
from .detection import (
    ReferencePulse,
    balanced_signal,
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


@dataclass(frozen=True)
class RunResult:
    out_dir: Path
    outputs: tuple[str, ...]
    summary: dict


def _write_csv(path: Path, columns: dict) -> None:
    """One CSV file: the header is the keys of `columns`, row i holds element i
    of each equal-length 1-D column.  Floats are written as their repr, bools
    as 1/0; nothing is quoted, since no column holds a separator.  A non-finite
    float raises PhysicsGuardError before the file is opened."""
    cols = {name: np.asarray(col) for name, col in columns.items()}
    bad = [name for name, c in cols.items() if c.dtype.kind == "f" and not np.isfinite(c).all()]
    if bad:
        raise PhysicsGuardError(f"{path.name} would hold non-finite numbers in: {' '.join(bad)}")
    cells = [map(str, (c.astype(int) if c.dtype == bool else c).tolist()) for c in cols.values()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells, strict=True))


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
    state = pinem_ladder(mod.beta, cfg.beam, cutoff=mod.cutoff)
    if prop.distance_mm:
        state = propagate(state, prop.distance_mm * NM_PER_MM, prop.mode)
    return state


def _band_spectrum(cfg: ScenarioConfig, lo: float, hi: float, max_omega: float, what: str):
    """F on the sampled lattice of a run up to |omega| = max_omega; the band
    lo <= omega <= hi that the run reads must hold 2 or more lattice points."""
    env = cfg.envelope
    spectrum = band_spectrum(build_state(cfg), env.spec, max_omega, env.dt_fs, env.window_fs)
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
    optimum = optimal_bunching_distance(
        cfg.modulation.beta,
        cfg.beam,
        scan.d_min_mm * NM_PER_MM,
        scan.d_max_mm * NM_PER_MM,
        coarse_step=scan.coarse_step_mm * NM_PER_MM,
        refine_tol=scan.refine_tol_mm * NM_PER_MM,
        threshold=scan.threshold,
        n_scan=scan.n_harmonics,
        mode=mode,
    )
    # the ladder at the modulation plane; doc_map propagates it to each distance
    state = pinem_ladder(cfg.modulation.beta, cfg.beam)
    distances = optimum.coarse_distances
    matrix = doc_map(state, distances, n_max=min(scan.n_harmonics, 2 * state.cutoff), mode=mode)

    d_mm = distances / NM_PER_MM
    write(
        "doc_map.csv",
        {
            "omega_over_omega0": np.repeat(np.arange(matrix.shape[0]), distances.size),
            "d_mm": np.tile(d_mm, matrix.shape[0]),
            "doc": matrix.ravel(),
        },
    )
    write("width.csv", {"d_mm": d_mm, "width": optimum.coarse_widths})
    summary = {
        "optimal_distance_mm": optimum.distance / NM_PER_MM,
        "optimal_distance_nm": optimum.distance,
        "width_max": optimum.width,
        "tiebreak_sum_sqrt_doc": optimum.tiebreak_value,
        "threshold": scan.threshold,
        "propagation_mode": mode,
        "sqrt_doc_at_optimum": {
            str(n): float(
                np.sqrt(
                    doc_map(state, np.array([optimum.distance]), n_max=8, mode=mode)[n, 0]
                )
            )
            for n in range(1, 7)
        },
    }
    log.info(
        "doc-map: d_opt = %.4f mm, width = %d", summary["optimal_distance_mm"], optimum.width
    )
    return summary, (
        "set xlabel 'd (mm)'\nset ylabel 'harmonic n'\nset cblabel 'DOC'\n"
        "plot 'doc_map.csv' using 2:1:3 every ::1 with points palette pt 5 notitle\n"
    )


def _run_doc_slice(cfg: ScenarioConfig, write):
    # the independent route: FFT of the sampled density, checked against the ladder
    state = build_state(cfg)
    env = cfg.envelope
    density = synthesize_density(state, env.spec, dt=env.dt_fs, window=env.window_fs)
    spectrum = density_spectrum(density)
    w0 = cfg.beam.omega0

    n_keep = min(2 * state.cutoff, 24)
    n = np.arange(-n_keep, n_keep + 1)
    f_fft = spectrum.value_at(n * w0)
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

    grid = spectrum.omega_grid
    idx = np.nonzero(np.abs(grid) <= n_keep * w0 * (1.0 + 1.0e-12))[0]
    idx = idx[:: max(1, int(np.ceil(idx.size / 50000)))]
    f = spectrum.values[idx]
    write(
        "spectrum.csv",
        {
            "omega_over_omega0": grid[idx] / w0,
            "f_real": f.real,
            "f_imag": f.imag,
            "doc": np.abs(f) ** 2,
        },
    )

    doc_by_n = np.abs(f_all[2 * state.cutoff :]) ** 2
    summary = {
        "distance_mm": cfg.propagation.distance_mm,
        "envelope": {"kind": cfg.envelope.kind, "fwhm_fs": cfg.envelope.fwhm_fs},
        "samples": int(density.samples.size),
        "dt_fs": density.dt,
        "periods_in_window": density.periods_in_window,
        "width_at_1pct": int(spectral_width(doc_by_n, 0.01)),
        "max_fft_ladder_mismatch": float(np.max(np.abs(f_fft - f_lad))),
    }
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
    w0 = cfg.beam.omega0
    lo, hi = w0 - 0.06, w0 + 0.06  # rad/fs band around the fundamental; resolves all lines
    spectrum = _band_spectrum(cfg, lo, hi, hi, "envelope")

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
    w0 = cfg.beam.omega0
    spectrum = _band_spectrum(cfg, 0.5 * w0, 1.5 * w0, 1.5 * w0, "envelope")
    field = _band_field(model, spectrum, 0.5 * w0, 1.5 * w0)
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
    ratio = tfield.fwhm_envelope / tfield.fwhm_intensity  # NaN when a width is NaN
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

    center = det.reference.center_over_omega0 * w0
    sigma = det.reference.sigma_over_omega0 * w0
    lo, hi = center - 6.0 * sigma, center + 6.0 * sigma
    # the noise floor reads F at every sum frequency of the band, up to 2 hi
    spectrum = _band_spectrum(cfg, lo, hi, 2.0 * hi, "detection.reference")
    field = mean_field(model, spectrum, band=(lo, hi))
    reference = ReferencePulse.gaussian(
        field.omega_grid,
        center=center,
        sigma=sigma,
        total_counts=det.reference.total_counts,
        phase=det.reference.phase_rad,
    )
    splitter = det.splitter
    qe1, qe2 = det.qe

    mu1, mu2 = detector_means(splitter, reference, field, qe1, qe2)
    ensemble = sample_shots(
        splitter,
        reference,
        field,
        n_shots=det.shots,
        seed=det.seed,
        qe1=qe1,
        qe2=qe2,
    )
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
        signal = [balanced_signal(splitter, reference.with_phase(p), field) for p in phases]
        write("phase_sweep.csv", {"phase_rad": phases, "signal": signal})

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
        "noise_floor": {
            "variance_total": noise.variance_total,
            "reference_shot": noise.reference_shot,
            "cl_shot": noise.cl_shot,
            "field_cross": noise.field_cross,
            "alpha4_coefficient": noise.alpha4_coefficient,
            "alpha3_coefficient": noise.alpha3_coefficient,
            "is_balanced": noise.is_balanced,
        },
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
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = ["summary.json"]

    def write(name: str, columns: dict) -> None:
        _write_csv(out_dir / name, columns)
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
        },
    }
    _write_json(out_dir / "manifest.json", manifest)
    return RunResult(out_dir=out_dir, outputs=tuple(sorted(outputs)), summary=summary)
