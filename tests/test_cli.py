"""Command-line interface: scenarios, exit codes, manifests, reproducibility."""

import ast
import dataclasses
import functools
import importlib
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import clcoherence
from clcoherence import BeamParameters, LadderState, pinem_ladder
from clcoherence.cli import BLAS_THREAD_VARS, main
from clcoherence.config import DOC_SLICE_HARMONICS, LIMITS, ScenarioConfig
from clcoherence.oracle import _run_single
from clcoherence.errors import ClcoherenceError, PhysicsGuardError
from clcoherence.scenarios import _CSV_BLOCK, _write_csv, _write_json
from clcoherence.spectra import density_spectrum, optimal_bunching_distance

import shipped_digests

BEAM_SECTION = {"kinetic_energy_ev": 200000.0, "wavelength_nm": 800.0}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = shipped_digests.SHIPPED


def strict_json(text):
    """json.loads that rejects NaN and +/-Infinity."""

    def reject(name):
        raise ValueError(f"non-finite number {name}")

    return json.loads(text, parse_constant=reject)


# the only string columns: sweep's swept parameter and oracle-check's mode set
STRING_CELL = {
    "parameter": re.compile(r"beta_abs|distance_mm"),
    "harmonics": re.compile(r"\d+(\+\d+)*"),
}


def assert_csv_format(path):
    """Rows end in CRLF and match the header's width; every cell is an int
    literal, a finite float written as its repr, or a known string column."""
    data = path.read_bytes()
    assert data.endswith(b"\r\n"), path.name
    lines = data.decode("ascii").split("\r\n")[:-1]
    assert not any("\r" in line or "\n" in line for line in lines), path.name
    header = lines[0].split(",")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header), (path.name, line)
        for column, cell in zip(header, cells):
            if column in STRING_CELL:
                assert STRING_CELL[column].fullmatch(cell), (path.name, column, cell)
            elif column == "passed":
                assert cell in ("0", "1"), (path.name, cell)
            elif not re.fullmatch(r"-?\d+", cell):
                value = float(cell)
                assert math.isfinite(value) and repr(value) == cell, (path.name, column, cell)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def doc_slice_config(tmp_path, **overrides):
    payload = {
        "beam": dict(BEAM_SECTION),
        "modulation": {"beta_abs": 4.0},
        "propagation": {"distance_mm": 6.43, "mode": "exact"},
        "envelope": {"kind": "infinite"},
    }
    payload.update(overrides)
    return write_config(tmp_path, "doc_slice.json", payload)


def detect_config(tmp_path, shots=300, seed=7, **detection_overrides):
    detection = {
        "splitter": {"type": "heterodyne"},
        "reference": {
            "center_over_omega0": 1.0,
            "sigma_over_omega0": 0.02,
            "total_counts": 10000.0,
            "phase_rad": 1.5707963267948966,
        },
        "qe": [1.0, 1.0],
        "shots": shots,
        "seed": seed,
    }
    detection.update(detection_overrides)
    payload = {
        "beam": dict(BEAM_SECTION),
        "modulation": {"beta_abs": 4.0},
        "propagation": {"distance_mm": 6.497, "mode": "exact"},
        "envelope": {"kind": "gaussian", "fwhm_fs": 200.0},
        "coupling": {"variant": "flat", "g0": 0.05, "band_over_omega0": [0.5, 1.5]},
        "detection": detection,
    }
    return write_config(tmp_path, "detect.json", payload)


class TestSuccessPaths:
    def test_doc_slice_writes_expected_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["doc-slice", "--config", doc_slice_config(tmp_path), "--out", str(out), "--quiet"]
        )
        assert code == 0
        for name in ("harmonics.csv", "spectrum.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_fft_ladder_mismatch"] < 1e-8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "clcoherence"
        assert manifest["scenario"] == "doc-slice"
        # Every listed output actually exists.
        for name in manifest["outputs"]:
            assert (out / name).exists()
        # Derived constants recorded for traceability.
        assert manifest["derived_constants"]["gamma"] == pytest.approx(1.3913902367118367)

    def test_detect_runs_and_reports_snr(self, tmp_path):
        out = tmp_path / "runD"
        code = main(
            ["detect", "--config", detect_config(tmp_path), "--out", str(out), "--quiet"]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_shots"] == 300
        assert summary["seed"] == 7
        assert summary["noise_floor"]["alpha4_coefficient"] == 0.0
        lines = (out / "shots.csv").read_text().strip().splitlines()
        assert lines[0] == "shot_index,i1,i2"
        assert len(lines) == 301

    def test_phase_sweep_applies_the_quantum_efficiencies(self, tmp_path):
        # the sweep's phase 0 is the reference phase itself: its row is the summary's signal
        cfg = detect_config(tmp_path, qe=[0.5, 0.9], phase_sweep_points=24)
        out = tmp_path / "runQ"
        assert main(["detect", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        summary = strict_json((out / "summary.json").read_text())
        header, first, *rest = (out / "phase_sweep.csv").read_text().splitlines()
        assert (header, len(rest)) == ("phase_rad,signal", 23)
        phase, signal = map(float, first.split(","))
        assert (phase, signal) == (0.0, summary["signal"])

    def test_sweep_scenario(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {
                "beam": dict(BEAM_SECTION),
                "modulation": {"beta_abs": 4.0},
                "propagation": {"distance_mm": 6.43, "mode": "exact"},
                "sweep": {"parameter": "beta_abs", "values": [0.5, 1.0, 2.0]},
            },
        )
        out = tmp_path / "runS"
        code = main(["sweep", "--config", cfg, "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "sweep.csv").exists()

    def test_gnuplot_stub_flag(self, tmp_path):
        out = tmp_path / "runG"
        code = main(
            [
                "doc-slice",
                "--config",
                doc_slice_config(tmp_path),
                "--out",
                str(out),
                "--gnuplot-stub",
                "--quiet",
            ]
        )
        assert code == 0
        assert (out / "plot_doc_slice.gp").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "plot_doc_slice.gp" in manifest["outputs"]

    @pytest.mark.parametrize("scenario,config", SHIPPED)
    def test_gnuplot_stub_is_listed_with_every_csv_it_plots(self, scenario, config, tmp_path):
        out = tmp_path / "o"
        args = ["--config", str(CONFIGS.parent / config), "--out", str(out), "--gnuplot-stub"]
        assert main([scenario, *args, "--quiet"]) == 0
        outputs = strict_json((out / "manifest.json").read_text())["outputs"]
        stubs = [name for name in outputs if name.endswith(".gp")]
        # oracle-check has nothing to plot
        expected = [] if scenario == "oracle-check" else [f"plot_{scenario.replace('-', '_')}.gp"]
        assert stubs == expected
        for stub in stubs:
            text = (out / stub).read_text()
            assert text.startswith("set datafile separator ','\n")
            plotted = re.findall(r"'([^']+\.csv)'", text)
            assert plotted and set(plotted) <= set(outputs), (plotted, outputs)


class TestExitCodes:
    def test_unparseable_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["doc-slice", "--config", str(bad), "--quiet"]) == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = doc_slice_config(tmp_path, typo_section={"x": 1})
        assert main(["doc-slice", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

    def test_missing_section_is_config_error(self, tmp_path):
        payload = {"beam": dict(BEAM_SECTION)}  # no modulation/propagation
        cfg = write_config(tmp_path, "incomplete.json", payload)
        assert main(["doc-slice", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

    def test_physics_guard_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        # A ladder cut to |j| <= 5 at |beta| = 4 trips LadderState's truncation guard.
        import clcoherence.scenarios as scen

        def truncated_ladder(beta, beam):
            c = pinem_ladder(beta, beam).coefficients[23:34]  # J = 28
            return LadderState(c / np.linalg.norm(c), beam)

        monkeypatch.setattr(scen, "pinem_ladder", truncated_ladder)
        cfg = doc_slice_config(tmp_path, modulation={"beta_abs": 4.0})
        assert main(["doc-slice", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
        assert "boundary sideband occupation" in capsys.readouterr().err

    def test_oracle_mismatch_maps_to_exit_4(self, tmp_path, monkeypatch):
        import clcoherence.scenarios as scen

        beam = BeamParameters.from_wavelength(200e3, 800.0)
        row = _run_single(0.0, 0.0, 0.05, (1,), beam, {})
        bad_check = dataclasses.replace(row.checks[0], error=1.0, passed=False)
        bad_row = dataclasses.replace(row, checks=(bad_check, *row.checks[1:]))
        monkeypatch.setattr(scen, "run_test_matrix", lambda beam: [bad_row])
        cfg = write_config(tmp_path, "oracle.json", {"beam": dict(BEAM_SECTION)})
        assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 4
        # The per-row CSV is still written before the failure is raised.
        assert (tmp_path / "o" / "oracle_check.csv").exists()

    def test_unknown_scenario_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--config", "x.json"])
        assert excinfo.value.code == 2

    def test_threads_config_key_is_config_error(self, tmp_path):
        # The oracle matrix runs serially; a leftover `threads` key is unknown.
        cfg = write_config(tmp_path, "oracle.json", {"beam": dict(BEAM_SECTION), "threads": 2})
        assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

    def test_nan_beta_abs_is_config_error(self, tmp_path):
        # json.dumps writes NaN, and json.loads reads it back as a float
        cfg = doc_slice_config(tmp_path, modulation={"beta_abs": float("nan")})
        assert main(["doc-slice", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

    def test_infinite_sweep_distance_is_config_error(self, tmp_path):
        payload = {
            "beam": dict(BEAM_SECTION),
            "modulation": {"beta_abs": 4.0},
            "sweep": {"parameter": "distance_mm", "values": [1.0, float("inf")]},
        }
        cfg = write_config(tmp_path, "sweep.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert not (tmp_path / "o" / "summary.json").exists()

    def test_kinetic_energy_below_recoil_limit_is_config_error(self, tmp_path):
        # 10 eV electrons and 1.55 eV photons: BeamParameters rejects the recoil
        cfg = write_config(
            tmp_path, "oracle.json", {"beam": {"kinetic_energy_ev": 10, "wavelength_nm": 800.0}}
        )
        assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

    @pytest.mark.parametrize(
        "scenario, name, section, key, value",
        [
            ("doc-slice", "doc_slice", "modulation", "cutoff", 40),
            ("doc-map", "doc_map", "modulation", "cutoff", 40),
            ("sweep", "sweep", "modulation", "cutoff", 1),
            ("doc-slice", "doc_slice", "envelope", "dt_fs", 0.01),
            ("waveguide", "waveguide", "envelope", "dt_fs", 1.0),
        ],
    )
    def test_ladder_width_and_time_step_are_unknown_keys(
        self, scenario, name, section, key, value, tmp_path, capsys
    ):
        # both follow from |beta|: J = auto_cutoff(|beta|), T0 / dt the power of two above 2J
        payload = json.loads((CONFIGS / f"{name}.json").read_text())
        payload[section][key] = value
        cfg = write_config(tmp_path, f"{name}.json", payload)
        out = tmp_path / "o"
        assert main([scenario, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"{section}: unknown key(s) ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, name", [("doc-slice", "doc_slice"), ("detect", "detect")])
    def test_large_beta_runs(self, scenario, name, tmp_path):
        # |beta| = 60: J = 164, so harmonic 2J = 328 takes 512 samples a period, not 256
        payload = json.loads((CONFIGS / f"{name}.json").read_text())
        payload["modulation"]["beta_abs"] = 60.0
        cfg = write_config(tmp_path, f"{name}.json", payload)
        out = tmp_path / "o"
        assert main([scenario, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        if scenario == "doc-slice":
            summary = strict_json((out / "summary.json").read_text())
            assert summary["max_fft_ladder_mismatch"] <= 1e-8
            period = BeamParameters.from_wavelength(200e3, 800.0).optical_period
            assert round(period / summary["dt_fs"]) == 512

    @pytest.mark.parametrize(
        "scenario, name, key",
        [
            ("doc-map", "doc_map", "modulation.beta_abs"),
            ("doc-slice", "doc_slice", "modulation.beta_abs"),
            ("sweep", "sweep", "sweep.values"),
        ],
    )
    def test_beta_whose_double_overflows_is_config_error(
        self, scenario, name, key, tmp_path, capsys
    ):
        # 2|beta| = inf: the ladder's level count cannot be computed to check it
        payload = json.loads((CONFIGS / f"{name}.json").read_text())
        if scenario == "sweep":
            payload["sweep"]["values"] = [1.0, 1e308]
        else:
            payload["modulation"]["beta_abs"] = 1e308
        cfg = write_config(tmp_path, f"{name}.json", payload)
        out = tmp_path / "o"
        assert main([scenario, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"{key}: 1e+308 is too large" in capsys.readouterr().err
        assert not out.exists()

    def test_doc_map_scan_of_fewer_than_three_distances_is_config_error(self, tmp_path, capsys):
        payload = {
            "beam": dict(BEAM_SECTION),
            "modulation": {"beta_abs": 4.0},
            "scan": {"d_max_mm": 0.01, "coarse_step_mm": 0.01},
        }
        cfg = write_config(tmp_path, "doc_map.json", payload)
        assert main(["doc-map", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "coarse_step_mm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, name, edit, steps",
        [
            ("waveguide", "waveguide.json", {"envelope": {"fwhm_fs": 121755.0}}, "5989022"),
            ("pulse-shape", "pulse_shape.json", {"beam": {"wavelength_nm": 1.2}}, "9593364"),
            (
                "pulse-shape",
                "pulse_shape.json",
                {"beam": {"wavelength_nm": 1.2}, "coupling": {"band_over_omega0": [0.5, 24.5]}},
                "9593364",
            ),
        ],
        ids=["long-pulse-waveguide", "x-ray-pulse-shape", "x-ray-pulse-shape-wide-band"],
    )
    def test_lattice_too_long_to_stay_uniform_is_config_error(
        self, scenario, name, edit, steps, tmp_path, capsys
    ):
        # 6.0e6 and 9.6e6 steps up to the top of the lattice: the rounding of
        # omega_k would spread them beyond the spectra module's 1e-9 uniformity check
        payload = json.loads((CONFIGS / name).read_text())
        for section, values in edit.items():
            payload[section].update(values)
        cfg = write_config(tmp_path, name, payload)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the X-ray beam's recoil note
            assert main([scenario, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert (
            "envelope.fwhm_fs, envelope.window_fs, beam.wavelength_nm: "
            f"{steps} lattice steps up to the top |omega| exceed the limit 1000000"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_density_of_too_many_samples_is_config_error(self, tmp_path, capsys):
        # |beta| = 451: 2,048 samples a period x 1,025 periods x 8
        payload = json.loads((CONFIGS / "doc_slice.json").read_text())
        payload["modulation"]["beta_abs"] = 451.0
        period = BeamParameters.from_wavelength(200e3, 800.0).optical_period
        payload["envelope"]["window_fs"] = 1025 * period
        cfg = write_config(tmp_path, "doc_slice.json", payload)
        out = tmp_path / "o"
        assert main(["doc-slice", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert (
            "envelope.fwhm_fs, envelope.window_fs, modulation.beta_abs: "
            "16793600 samples exceed the limit 16777216"
        ) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, name",
        [
            ("doc-slice", "doc_slice"),
            ("waveguide", "waveguide"),
            ("pulse-shape", "pulse_shape"),
            ("detect", "detect"),
        ],
    )
    def test_ladder_of_too_many_levels_is_config_error(self, scenario, name, tmp_path, capsys):
        # |beta| = 451.5: J = 1024, one level a side above the limit
        payload = json.loads((CONFIGS / f"{name}.json").read_text())
        payload["modulation"]["beta_abs"] = 451.5
        cfg = write_config(tmp_path, f"{name}.json", payload)
        out = tmp_path / "o"
        assert main([scenario, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert (
            "modulation.beta_abs: 2049 ladder levels exceed the limit 2047"
        ) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, name, edit, key, cutoff",
        [
            (
                "doc-slice",
                "doc_slice_infinite",
                {"beam": {"kinetic_energy_ev": 1e5, "photon_energy_ev": 1000.0}},
                "modulation.beta_abs",
                914,
            ),
            (
                "sweep",
                "sweep",
                {"sweep": {"parameter": "beta_abs", "values": [1.0, 1e5]}},
                "sweep.values",
                201789,
            ),
        ],
    )
    def test_ladder_reaching_zero_kinetic_energy_is_config_error(
        self, scenario, name, edit, key, cutoff, tmp_path, capsys
    ):
        # level -J would have no wavenumber, and `wavenumber` would raise mid-run
        payload = json.loads((CONFIGS / f"{name}.json").read_text())
        payload["modulation"]["beta_abs"] = 400.0
        payload.update(edit)
        cfg = write_config(tmp_path, f"{name}.json", payload)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the 1 keV photons' recoil note
            assert main([scenario, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert (
            f"{key}: the ladder's lowest level, {cutoff} photons below the beam, "
            "has no kinetic energy left"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_of_too_many_ladder_levels_is_config_error(self, tmp_path, capsys):
        # one |beta| of 1,000,001 levels: the ladder alone would take ~300 MB to build
        payload = json.loads((CONFIGS / "sweep.json").read_text())
        payload["sweep"]["values"] = [248589.5]
        cfg = write_config(tmp_path, "sweep.json", payload)
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert (
            "sweep.values, modulation.beta_abs: "
            "1000001 ladder levels over the values exceed the limit 1000000"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_detect_band_reaching_zero_frequency_is_config_error(self, tmp_path, capsys):
        # center - 6 sigma = 1 - 87.6 < 0: the band would start below omega = 0
        payload = json.loads((CONFIGS / "detect.json").read_text())
        payload["detection"]["reference"]["sigma_over_omega0"] = 14.6
        cfg = write_config(tmp_path, "detect.json", payload)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "detection.reference: sigma_over_omega0 must be below" in capsys.readouterr().err

    def test_waveguide_band_reaching_zero_frequency_is_config_error(self, tmp_path, capsys):
        # omega0 = 0.003 rad/fs: the band omega0 +/- 0.06 rad/fs would start below 0
        payload = json.loads((CONFIGS / "waveguide.json").read_text())
        payload["beam"]["wavelength_nm"] = 620092.6787790952
        cfg = write_config(tmp_path, "waveguide.json", payload)
        assert main(["waveguide", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "beam: the waveguide band omega0 +/- 0.06" in capsys.readouterr().err

    @pytest.mark.parametrize("center", [1.0, 1.00001])
    def test_detect_band_of_fewer_than_two_lattice_points_is_config_error(
        self, center, tmp_path, capsys
    ):
        # +-6 sigma = 2.8e-8 rad/fs holds one lattice point at the harmonic, none beside it
        payload = json.loads((CONFIGS / "detect.json").read_text())
        payload["detection"]["reference"].update(sigma_over_omega0=1e-9, center_over_omega0=center)
        cfg = write_config(tmp_path, "detect.json", payload)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "detection.reference: the band" in capsys.readouterr().err

    def test_non_finite_summary_value_is_physics_guard(self, tmp_path):
        # the last guard before summary.json names every non-finite value
        payload = {"widths": {"field_envelope_fwhm_fs": math.nan}, "ratio": math.inf, "n": 1.0}
        with pytest.raises(PhysicsGuardError) as info:
            _write_json(tmp_path / "summary.json", payload)
        message = str(info.value)
        assert '"field_envelope_fwhm_fs": NaN' in message and '"ratio": Infinity' in message
        assert not (tmp_path / "summary.json").exists()

    def test_pulse_shape_field_longer_than_the_time_grid_names_the_fwhm(self, tmp_path, capsys):
        # a 2e-4 omega0 coupling band: the time field has no half-maximum widths
        payload = json.loads((CONFIGS / "pulse_shape.json").read_text())
        payload["coupling"]["band_over_omega0"] = [0.9999, 1.0001]
        cfg = write_config(tmp_path, "pulse_shape.json", payload)
        out = tmp_path / "o"
        assert main(["pulse-shape", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert (
            "the field does not fall to half its peak inside the +/-1600 fs time grid; "
            "lengthen envelope.fwhm_fs"
        ) in err
        assert "NaN" not in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "scenario, name, field",
        [("pulse-shape", "pulse_shape.json", "the field"),
         ("waveguide", "waveguide.json", "the field at length 10 um")],
    )
    def test_infinite_envelope_field_names_the_envelope_kind(
        self, scenario, name, field, tmp_path, capsys
    ):
        payload = json.loads((CONFIGS / name).read_text())
        payload["envelope"] = {"kind": "infinite"}
        cfg = write_config(tmp_path, name, payload)
        out = tmp_path / "o"
        assert main([scenario, "--config", cfg, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert f"{field} does not fall to half its peak" in err
        assert "envelope.kind 'infinite' gives a field without end" in err
        assert "fwhm_fs" not in err and "NaN" not in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "scenario, name, spoil, csv, column",
        [
            ("pulse-shape", "pulse_shape.json", "overflowing_coupling", "field_time.csv",
             "intensity"),
            ("doc-slice", "doc_slice_infinite.json", "nan_below_zero_frequency", "spectrum.csv",
             "f_imag"),
            ("doc-map", "doc_map.json", "nan_doc_cell", "doc_map.csv", "doc"),
        ],
    )
    def test_non_finite_csv_column_is_physics_guard(
        self, scenario, name, spoil, csv, column, tmp_path, monkeypatch, capsys
    ):
        payload = json.loads((CONFIGS / name).read_text())
        getattr(self, spoil)(payload, monkeypatch)
        cfg = write_config(tmp_path, name, payload)
        out = tmp_path / "o"
        assert main([scenario, "--config", cfg, "--out", str(out), "--quiet"]) == 3
        assert f"{csv} would hold non-finite numbers in: {column}" in capsys.readouterr().err
        assert not (out / csv).exists()

    @staticmethod
    def overflowing_coupling(payload, monkeypatch):
        payload["coupling"]["g0"] = 1e160  # |E|^2 of the field overflows to inf

    @staticmethod
    def nan_below_zero_frequency(payload, monkeypatch):
        # a NaN f_imag at the lowest omega, a cell that spectrum.csv writes as the
        # mirror of omega > 0 and so never formats
        import clcoherence.scenarios as scen

        def spectrum(*args, **kwargs):
            found = density_spectrum(*args, **kwargs)
            if found.values.size <= 2 * DOC_SLICE_HARMONICS + 1:  # the harmonics
                return found
            values = found.values.copy()
            values[0] = complex(values[0].real, math.nan)
            return SimpleNamespace(omega_grid=found.omega_grid, values=values)

        monkeypatch.setattr(scen, "density_spectrum", spectrum)

    @staticmethod
    def nan_doc_cell(payload, monkeypatch):
        # one DOC of the scan matrix, which doc_map.csv writes one harmonic at a time
        import clcoherence.scenarios as scen

        def optimum(*args, **kwargs):
            found = optimal_bunching_distance(*args, **kwargs)
            doc = found.coarse_doc.copy()
            doc[3, 5] = math.nan
            return dataclasses.replace(found, coarse_doc=doc)

        monkeypatch.setattr(scen, "optimal_bunching_distance", optimum)

    def test_overflowing_field_warns_nothing_before_exit_3(self, tmp_path, capsys):
        # the overflow of |E|^2 is reported by the exit-3 message alone
        payload = json.loads((CONFIGS / "pulse_shape.json").read_text())
        payload["coupling"]["g0"] = 1e160
        cfg = write_config(tmp_path, "pulse_shape.json", payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pulse-shape", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        assert "intensity" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    def test_field_beyond_float_range_warns_nothing_before_exit_3(self, tmp_path, capsys):
        # at g0 = 1e308 the chirp-z convolution itself overflows to inf and nan
        payload = json.loads((CONFIGS / "pulse_shape.json").read_text())
        payload["coupling"]["g0"] = 1e308
        cfg = write_config(tmp_path, "pulse_shape.json", payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pulse-shape", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        assert "e_real e_imag envelope intensity" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "scenario, name, g0, named",
        [
            ("waveguide", "waveguide.json", 1e160, "a_abs2"),
            ("waveguide", "waveguide.json", 1e308, "a_abs2"),
            ("detect", "detect.json", 1e308, "detector mean inf"),
        ],
    )
    def test_overflowing_coupling_warns_nothing_before_exit_3(
        self, scenario, name, g0, named, tmp_path, capsys
    ):
        payload = json.loads((CONFIGS / name).read_text())
        payload["coupling"]["g0"] = g0
        cfg = write_config(tmp_path, name, payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([scenario, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        assert named in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    def test_subnormal_coupling_names_the_underflow(self, tmp_path, capsys):
        # <a> ~ 1e-320 is not zero, but |<a>|^2 underflows to 0: no width exists
        payload = json.loads((CONFIGS / "pulse_shape.json").read_text())
        payload["coupling"]["g0"] = 1e-320
        cfg = write_config(tmp_path, "pulse_shape.json", payload)
        assert main(["pulse-shape", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "<a> is identically zero in the band [1.17728, 3.53185] rad/fs" in err
        assert "|<a>|^2 underflows" in err and "NaN" not in err

    @pytest.mark.parametrize(
        "scenario, name, band",
        [
            ("pulse-shape", "pulse_shape.json", "[1.17728, 3.53185]"),
            ("waveguide", "waveguide.json", "[2.29456, 2.41456]"),
        ],
    )
    def test_zero_coupling_names_the_empty_band(self, scenario, name, band, tmp_path, capsys):
        payload = json.loads((CONFIGS / name).read_text())
        payload["coupling"]["g0"] = 0.0
        cfg = write_config(tmp_path, name, payload)
        out = tmp_path / "o"
        assert main([scenario, "--config", cfg, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert f"<a> is identically zero in the band {band} rad/fs" in err
        assert "NaN" not in err
        assert not (out / "summary.json").exists()

    def test_waveguide_pulse_longer_than_the_time_grid_names_the_length(self, tmp_path, capsys):
        payload = json.loads((CONFIGS / "waveguide.json").read_text())
        payload["envelope"]["fwhm_fs"] = 6000.0
        cfg = write_config(tmp_path, "waveguide.json", payload)
        out = tmp_path / "o"
        assert main(["waveguide", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert (
            "the field at length 10 um does not fall to half its peak inside the "
            "+/-2560 fs time grid; shorten envelope.fwhm_fs"
        ) in err
        assert "NaN" not in err
        assert not (out / "summary.json").exists()

    def test_single_shot_is_config_error(self, tmp_path, capsys):
        cfg = detect_config(tmp_path, shots=1)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "detection.shots" in capsys.readouterr().err

    def test_shots_above_the_limit_is_config_error(self, tmp_path, capsys):
        cfg = detect_config(tmp_path, shots=10**6 + 1)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "detection.shots: 1000001 shots exceed the limit 1000000" in err
        assert not (tmp_path / "o").exists()

    def test_phase_sweep_points_above_the_limit_is_config_error(self, tmp_path, capsys):
        # 10^6 points: a Python loop over balanced_signal, still running at 60 s at the parent
        cfg = detect_config(tmp_path, phase_sweep_points=10**6)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert (
            "detection.phase_sweep_points: 1000000 phase-sweep points exceed the limit 100000"
        ) in err
        assert not (tmp_path / "o").exists()

    def test_lengths_above_the_limit_is_config_error(self, tmp_path, capsys):
        # 5,000 lengths: two CSVs each, still running at 60 s at the parent
        payload = json.loads((CONFIGS / "waveguide.json").read_text())
        payload["coupling"]["lengths_um"] = [10.0 + 0.1 * i for i in range(5000)]
        cfg = write_config(tmp_path, "waveguide.json", payload)
        assert main(["waveguide", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "coupling.lengths_um: 5000 lengths exceed the limit 256" in err
        assert not (tmp_path / "o").exists()

    def test_lengths_that_share_a_file_name_are_config_error(self, tmp_path, capsys):
        # both are 100um to f"{L:g}": each CSV would be written once and listed twice
        payload = json.loads((CONFIGS / "waveguide.json").read_text())
        payload["coupling"]["lengths_um"] = [100.0, 100.00001]
        cfg = write_config(tmp_path, "waveguide.json", payload)
        assert main(["waveguide", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "coupling.lengths_um: two lengths would write field_100um.csv" in err
        assert not (tmp_path / "o").exists()

    def test_sweep_values_above_the_limit_is_config_error(self, tmp_path, capsys):
        # 200,000 values of 43 to 49 levels each, 9.6M levels in all
        payload = json.loads((CONFIGS / "sweep.json").read_text())
        payload["sweep"]["values"] = [0.5 + 1e-5 * i for i in range(200_000)]
        cfg = write_config(tmp_path, "sweep.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert (
            "sweep.values, modulation.beta_abs: "
            "9599992 ladder levels over the values exceed the limit 1000000"
        ) in err
        assert not (tmp_path / "o").exists()

    def test_doc_map_scan_above_the_limit_is_config_error(self, tmp_path, capsys):
        # 1,538,463 distances x 57 levels: a 1.31 GiB complex array at the parent
        payload = json.loads((CONFIGS / "doc_map.json").read_text())
        payload["scan"]["coarse_step_mm"] = 1.3e-5
        cfg = write_config(tmp_path, "doc_map.json", payload)
        assert main(["doc-map", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert (
            "scan.coarse_step_mm, scan.d_min_mm, scan.d_max_mm, modulation.beta_abs: "
            f"{1538463 * 57} distances x ladder levels exceed the limit 10000000"
        ) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, seed, bound",
        [("--seed=-5", 7, ">= 0"), (f"--seed={2**128}", 7, "<= "), (None, 2**130, "<= ")],
        ids=["flag-negative", "flag-2**128", "config-2**130"],
    )
    def test_seed_outside_the_philox_key_range_is_config_error(
        self, flag, seed, bound, tmp_path, capsys
    ):
        args = ["--config", detect_config(tmp_path, seed=seed), "--out", str(tmp_path / "o")]
        assert main(["detect", *args, *([flag] if flag else []), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"detection.seed: must be {bound}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dead", ["no_light", "no_quantum_efficiency"])
    def test_zero_variance_ensemble_is_physics_guard(self, dead, tmp_path, capsys):
        payload = json.loads(Path(detect_config(tmp_path)).read_text())
        if dead == "no_light":
            payload["coupling"]["g0"] = 0.0
            payload["detection"]["reference"]["total_counts"] = 0.0
        else:
            payload["detection"]["qe"] = [0.0, 0.0]
        cfg = write_config(tmp_path, "detect.json", payload)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
        assert "zero variance" in capsys.readouterr().err

    def test_threads_flag_rejected_by_parser(self, tmp_path):
        cfg = doc_slice_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["doc-slice", "--config", cfg, "--threads", "2", "--quiet"])
        assert excinfo.value.code == 2

    def test_out_naming_an_existing_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        args = ["--config", str(CONFIGS / "sweep.json"), "--out", str(taken), "--quiet"]
        assert main(["sweep", *args]) == 2
        assert f"output directory {str(taken)!r}" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"

    def test_out_below_an_existing_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out = taken / "sub"
        args = ["--config", str(CONFIGS / "sweep.json"), "--out", str(out), "--quiet"]
        assert main(["sweep", *args]) == 2
        assert f"output directory {str(out)!r}" in capsys.readouterr().err


# An example keeps each LIMITS row below this fraction of its limit, or beyond the
# limit (exit 2 at load): the limits themselves are TestExitCodes' cases.
_SIZE_FRACTION = 1.0 / 64.0


def _leaves(value, path=()):
    """Paths to a JSON value's numbers and lists, each list before its entries."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, (*path, key))
    elif isinstance(value, list):
        yield path
        for i, v in enumerate(value):
            yield from _leaves(v, (*path, i))
    elif not isinstance(value, (bool, str)):
        yield path


def _number(value):
    """value scaled log-uniformly over +/-3 decades (an int stays an int), 0 or non-finite."""
    magnitude = math.copysign(abs(value) or 1.0, value)
    scaled = st.floats(-3.0, 3.0).map(lambda u: magnitude * 10.0**u)
    if isinstance(value, int):
        scaled = scaled.map(round)
    return st.one_of(scaled, st.sampled_from([0 * value, math.nan, math.inf, -math.inf]))


@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_varied_shipped_configs_end_in_a_documented_exit_code(tmp_path, data):
    # one to three numeric leaves or list lengths of a shipped config varied
    scenario, config = data.draw(st.sampled_from(SHIPPED))
    mapping = json.loads((CONFIGS.parent / config).read_text())
    leaves = st.sampled_from(list(_leaves(mapping)))
    paths = data.draw(st.lists(leaves, min_size=1, max_size=3, unique=True))
    for path in sorted(paths, key=len, reverse=True):  # entries before their list
        *head, key = path
        parent = functools.reduce(operator.getitem, head, mapping)
        value = parent[key]
        if isinstance(value, list):
            length = data.draw(st.integers(0, 2 * len(value) + 1))
            parent[key] = [value[i % len(value)] for i in range(length)]
        else:
            parent[key] = data.draw(_number(value))
    try:
        sizes = ScenarioConfig.from_mapping(scenario, mapping).sizes()
    except ClcoherenceError:  # main reports it by its exit code
        sizes = {}
    rows = [(count, LIMITS[name].limit) for name, count in sizes.items()]
    assume(not any(_SIZE_FRACTION * limit < count <= limit for count, limit in rows))
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        out = Path(tmp) / "o"
        cfg = write_config(Path(tmp), "config.json", mapping)  # NaN and Infinity as JSON allows
        code = main([scenario, "--config", cfg, "--out", str(out), "--quiet"])
        event(f"{scenario} exit {code}")  # the spread, under --hypothesis-show-statistics
        assert code in (0, 2, 3, 4)
        if code == 0:
            strict_json((out / "summary.json").read_text())
            for csv in out.glob("*.csv"):
                assert_csv_format(csv)


class TestDocSliceTransformLengths:
    """doc-slice transforms the padded density folded to the lattice points it
    reads: every s-th point for spectrum.csv, one period for the harmonics."""

    @staticmethod
    def run_recording_lengths(tmp_path, monkeypatch, **envelope):
        import clcoherence.spectra as spectra

        lengths = []
        rfft = spectra.rfft

        def recording_rfft(a, n=None, *args, **kwargs):
            lengths.append(len(a) if n is None else n)
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(spectra, "rfft", recording_rfft)
        payload = json.loads((CONFIGS / "doc_slice.json").read_text())
        payload["envelope"].update(envelope)
        cfg = write_config(tmp_path, "doc_slice.json", payload)
        out = tmp_path / "o"
        assert main(["doc-slice", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        return lengths, [row.split(",")[0] for row in rows], strict_json(
            (out / "summary.json").read_text()
        )

    def test_shipped_config_transforms_a_tenth_of_the_padded_length(self, tmp_path, monkeypatch):
        lengths, omega_column, summary = self.run_recording_lengths(tmp_path, monkeypatch)
        # 307,200 samples x 8 = 2,457,600 padded; the whole-lattice rfft ran at that length
        assert summary["samples"] * 8 == 2457600
        assert lengths and max(lengths) <= 245760
        assert sorted(lengths) == [256, 245760]  # one period; every 10th bin
        # the rows and omega column of the whole-lattice run: bins k = -230400..230400
        # in steps of 10, omega_k = 2 pi (k / (n dt)), written as repr
        w0 = BeamParameters.from_wavelength(200e3, 800.0).omega0
        k = np.arange(-230400, 230401)[::10]
        omega = 2.0 * math.pi * (k * (1.0 / (2457600 * summary["dt_fs"]))) / w0
        assert len(omega_column) == 46081
        assert omega_column == [repr(x) for x in omega.tolist()]
        assert summary["max_fft_ladder_mismatch"] <= 1e-14

    def test_prime_period_count_transforms_a_32nd_of_the_padded_length(
        self, tmp_path, monkeypatch
    ):
        # 16 x 657.57 fs holds 3,943 periods, a prime: the padded length is
        # 2^11 x 3943 = 8,075,264, and the whole-lattice rfft took ~1.2 GB
        lengths, omega_column, summary = self.run_recording_lengths(
            tmp_path, monkeypatch, fwhm_fs=657.57
        )
        assert summary["periods_in_window"] == 3943
        n_fft = 8 * summary["samples"]
        assert n_fft == 2**11 * 3943
        # 24 harmonics x 3943 periods x 8 = 757,056 bins on each side; the
        # smallest divisor s of n_fft with 2 (757056 // s) + 1 <= 50,000 is 32
        assert sorted(lengths) == [256, n_fft // 32]
        assert len(omega_column) == 2 * (757056 // 32) + 1 <= 50000
        assert summary["max_fft_ladder_mismatch"] <= 1e-14


def test_doc_slice_spectrum_rows_below_zero_mirror_those_above(tmp_path, monkeypatch):
    # F transforms a real density, F(-omega) = conj F(omega): each omega < 0 row of
    # spectrum.csv is the text of its omega > 0 partner with omega and f_imag
    # negated, and every row, the mirrored ones included, holds the FFT's own
    # value within DensitySpectrum's Hermitian tolerance
    import clcoherence.scenarios as scen

    spectra = []

    def recording_spectrum(*args, **kwargs):
        spectra.append(density_spectrum(*args, **kwargs))
        return spectra[-1]

    monkeypatch.setattr(scen, "density_spectrum", recording_spectrum)
    out = tmp_path / "o"
    cfg = str(CONFIGS / "doc_slice.json")
    assert main(["doc-slice", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = [line.split(",") for line in (out / "spectrum.csv").read_text().splitlines()[1:]]
    zero = len(rows) // 2
    assert len(rows) == 46081 and rows[zero][0] == "0.0"

    def negated(cell):
        return cell[1:] if cell.startswith("-") else "-" + cell

    mirrors = [[negated(w), re, negated(im), doc] for w, re, im, doc in rows[: zero : -1]]
    assert rows[:zero] == mirrors

    fft = max(spectra, key=lambda found: found.values.size)
    values = np.array(rows, dtype=float)
    w0 = BeamParameters.from_wavelength(200e3, 800.0).omega0
    assert np.array_equal(values[:, 0], fft.omega_grid / w0)
    tolerance = 1e-10
    assert np.max(np.abs(values[:, 1] + 1j * values[:, 2] - fft.values)) <= tolerance
    assert np.max(np.abs(values[:, 3] - np.abs(fft.values) ** 2)) <= tolerance


class TestReproducibility:
    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        cfg = detect_config(tmp_path, shots=200)
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert main(["detect", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        # Re-run from the manifest of the first run.
        assert (
            main(
                [
                    "detect",
                    "--config",
                    str(out1 / "manifest.json"),
                    "--out",
                    str(out2),
                    "--quiet",
                ]
            )
            == 0
        )
        for name in ("shots.csv", "summary.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_oracle_check_manifest_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "oracle.json", {"beam": dict(BEAM_SECTION)})
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert main(["oracle-check", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        manifest = str(out1 / "manifest.json")
        assert main(["oracle-check", "--config", manifest, "--out", str(out2), "--quiet"]) == 0
        for name in ("oracle_check.csv", "summary.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_oracle_check_summary_records_guard_margins(self, tmp_path, monkeypatch):
        from clcoherence import scenarios

        rows = []
        matrix = scenarios.run_test_matrix
        monkeypatch.setattr(scenarios, "run_test_matrix", lambda beam: rows.extend(matrix(beam)) or rows)
        cfg = write_config(tmp_path, "oracle.json", {"beam": dict(BEAM_SECTION)})
        assert main(["oracle-check", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        guards = strict_json((tmp_path / "o" / "summary.json").read_text())["guards"]
        assert len(rows) == 54
        for name, tolerance in (("norm", 1e-10), ("truncation_leakage", 1e-8)):
            worst = max(c.error for r in rows for c in r.checks if c.name == name)
            assert guards[name] == {"error": worst, "tolerance": tolerance}
            assert 0.0 <= worst <= tolerance
        assert set(guards) == {"norm", "truncation_leakage"}

    def test_manifest_names_the_simd_dispatch_and_reruns(self, tmp_path):
        # round-off in the artifacts depends on numpy's SIMD dispatch targets
        out1, out2 = tmp_path / "first", tmp_path / "second"
        args = ["--config", doc_slice_config(tmp_path), "--out", str(out1), "--quiet"]
        assert main(["doc-slice", *args]) == 0
        manifest = strict_json((out1 / "manifest.json").read_text())
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        assert manifest["versions"]["simd"] == simd
        assert set(simd) >= {"baseline", "found"}
        rerun = ["--config", str(out1 / "manifest.json"), "--out", str(out2), "--quiet"]
        assert main(["doc-slice", *rerun]) == 0
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_manifest_scenario_mismatch_rejected(self, tmp_path):
        out = tmp_path / "ds"
        assert (
            main(
                ["doc-slice", "--config", doc_slice_config(tmp_path), "--out", str(out), "--quiet"]
            )
            == 0
        )
        # A doc-slice manifest cannot seed a waveguide run.
        assert (
            main(
                ["waveguide", "--config", str(out / "manifest.json"), "--out", str(tmp_path / "x"), "--quiet"]
            )
            == 2
        )

    def test_manifest_from_another_version_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {
                "beam": dict(BEAM_SECTION),
                "modulation": {"beta_abs": 4.0},
                "sweep": {"parameter": "beta_abs", "values": [1.0]},
            },
        )
        out = tmp_path / "first"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == clcoherence.__version__
        manifest["version"] = "0.0.0"
        edited = write_config(tmp_path, "manifest.json", manifest)
        assert main(["sweep", "--config", edited, "--out", str(tmp_path / "x"), "--quiet"]) == 2

    def test_detect_defaults_spelled_out_give_the_same_manifest(self, tmp_path):
        bare = {
            "beam": dict(BEAM_SECTION),
            "modulation": {"beta_abs": 4.0},
            "propagation": {},
            "envelope": {"kind": "gaussian", "fwhm_fs": 200.0},
            "coupling": {"variant": "flat", "g0": 0.05, "band_over_omega0": [0.5, 1.5]},
            "detection": {
                "reference": {"sigma_over_omega0": 0.02, "total_counts": 10000.0},
                "shots": 200,
                "seed": 7,
            },
        }
        explicit = json.loads(json.dumps(bare))
        explicit["modulation"]["beta_arg"] = 0.0
        explicit["propagation"] = {"distance_mm": 0.0, "mode": "exact"}
        explicit["coupling"]["g0"] = [0.05, 0.0]
        explicit["detection"].update(
            splitter={"type": "heterodyne"}, qe=[1.0, 1.0], phase_sweep_points=0
        )
        explicit["detection"]["reference"].update(center_over_omega0=1.0, phase_rad=0.0)
        explicit["output"] = {"directory": "out-detect", "gnuplot": False}
        outs = []
        for name, payload in (("bare.json", bare), ("explicit.json", explicit)):
            outs.append(tmp_path / name.removesuffix(".json"))
            cfg = write_config(tmp_path, name, payload)
            assert main(["detect", "--config", cfg, "--out", str(outs[-1]), "--quiet"]) == 0
        for name in ("manifest.json", "summary.json", "shots.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        summary = json.loads((outs[0] / "summary.json").read_text())
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert summary["config_sha256"] == manifest["config_sha256"]

    def test_oracle_check_default_beam_gives_the_same_manifest(self, tmp_path):
        outs = []
        for name, payload in (("bare.json", {}), ("beam.json", {"beam": dict(BEAM_SECTION)})):
            outs.append(tmp_path / name.removesuffix(".json"))
            cfg = write_config(tmp_path, name, payload)
            assert main(["oracle-check", "--config", cfg, "--out", str(outs[-1]), "--quiet"]) == 0
        for name in ("manifest.json", "summary.json", "oracle_check.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_override_changes_shots_and_is_recorded(self, tmp_path):
        cfg = detect_config(tmp_path, shots=200, seed=7)
        out1 = tmp_path / "seed7"
        out2 = tmp_path / "seed99"
        assert main(["detect", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert (
            main(["detect", "--config", cfg, "--out", str(out2), "--seed", "99", "--quiet"]) == 0
        )
        assert (out1 / "shots.csv").read_bytes() != (out2 / "shots.csv").read_bytes()
        man2 = json.loads((out2 / "manifest.json").read_text())
        assert man2["seed"] == 99
        sum2 = json.loads((out2 / "summary.json").read_text())
        assert sum2["seed"] == 99

    def test_identical_reruns_without_manifest(self, tmp_path):
        cfg = detect_config(tmp_path, shots=150)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["detect", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert main(["detect", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "shots.csv").read_bytes() == (out2 / "shots.csv").read_bytes()

    @pytest.mark.parametrize(
        "scenario, flags",
        [("detect", ["--seed", "42", "--gnuplot-stub"]), ("doc-slice", ["--gnuplot-stub"])],
    )
    def test_flagged_run_reruns_from_its_manifest_byte_for_byte(self, scenario, flags, tmp_path):
        # the flags are part of the resolved config, so the manifest carries them
        if scenario == "detect":
            cfg = detect_config(tmp_path, shots=200)
        else:
            cfg = doc_slice_config(tmp_path)
        out1, out2 = tmp_path / "flagged", tmp_path / "rerun"
        assert main([scenario, "--config", cfg, "--out", str(out1), *flags, "--quiet"]) == 0
        manifest = str(out1 / "manifest.json")
        assert main([scenario, "--config", manifest, "--out", str(out2), "--quiet"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert f"plot_{scenario.replace('-', '_')}.gp" in names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        if scenario == "detect":
            assert strict_json((out2 / "summary.json").read_text())["seed"] == 42

    def test_seed_flag_outside_detect_is_ignored(self, tmp_path):
        out = tmp_path / "o"
        args = ["--config", doc_slice_config(tmp_path), "--out", str(out), "--seed", "42"]
        assert main(["doc-slice", *args, "--quiet"]) == 0
        assert strict_json((out / "manifest.json").read_text())["seed"] is None


class TestShippedConfigs:
    # the benchmark workloads' configs too: inputs no shipped config covers
    @pytest.mark.parametrize("scenario,config", SHIPPED + shipped_digests.WORKLOADS)
    def test_fast_shipped_configs_run(self, scenario, config, tmp_path):
        root = CONFIGS.parent
        out = tmp_path / "o"
        code = main([scenario, "--config", str(root / config), "--out", str(out), "--quiet"])
        assert code == 0
        strict_json((out / "summary.json").read_text())
        outputs = strict_json((out / "manifest.json").read_text())["outputs"]
        csvs = [name for name in outputs if name.endswith(".csv")]
        assert csvs
        for name in csvs:
            assert_csv_format(out / name)
        # the golden artifacts: by sha256 on a host in the table, else by statistics
        table = json.loads(shipped_digests.TABLE.read_text())
        stored = shipped_digests.stored_digests(table)
        name = Path(config).name
        if stored is not None:
            assert shipped_digests.digests(out) == stored[name]
            return
        actual = shipped_digests.statistics(out)
        assert not shipped_digests.mismatches(name, table["statistics"][name], actual)
        warnings.warn(
            f"no golden digests for numpy {shipped_digests.host_key()}: {name}'s artifacts "
            f"were compared by statistics within {shipped_digests.TOLERANCE:g} of their scale"
        )

    def test_digest_tool_names_what_moved(self):
        before = {"a.json": {"x.csv": "1", "summary.json": "2"}, "b.json": {"y.csv": "3"}}
        assert shipped_digests.moved(before, before) == []
        after = {"a.json": {"x.csv": "1", "summary.json": "4"}, "b.json": {"z.csv": "3"}}
        assert shipped_digests.moved(before, after) == [
            "a.json/summary.json", "b.json/y.csv", "b.json/z.csv"
        ]
        assert shipped_digests.moved(None, {"b.json": {"y.csv": "3"}}) == ["b.json/y.csv"]

    @pytest.mark.parametrize("scenario", ["waveguide", "pulse-shape", "detect"])
    def test_band_scenarios_never_run_the_fft_route(self, scenario, tmp_path, monkeypatch):
        import clcoherence.scenarios as scen

        def fft_route(*args, **kwargs):
            raise AssertionError("the FFT route runs in doc-slice only")

        monkeypatch.setattr(scen, "synthesize_density", fft_route)
        monkeypatch.setattr(scen, "density_spectrum", fft_route)
        config = str(CONFIGS / f"{scenario.replace('-', '_')}.json")
        assert main([scenario, "--config", config, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    def test_all_shipped_configs_validate(self):
        import pathlib

        from clcoherence.config import ScenarioConfig

        root = pathlib.Path(__file__).resolve().parent.parent / "configs"
        scenario_by_name = {
            "doc_map.json": "doc-map",
            "doc_slice.json": "doc-slice",
            "doc_slice_infinite.json": "doc-slice",
            "waveguide.json": "waveguide",
            "pulse_shape.json": "pulse-shape",
            "detect.json": "detect",
            "oracle_check.json": "oracle-check",
            "sweep.json": "sweep",
        }
        found = sorted(p.name for p in root.glob("*.json"))
        assert found == sorted(scenario_by_name)
        for name, scenario in scenario_by_name.items():
            cfg = ScenarioConfig.from_file(scenario, root / name)
            assert cfg.scenario == scenario
            assert len(cfg.sha256()) == 64


def _probe(code: str, **env_vars: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this package.

    The child gets none of the BLAS thread variables but those in env_vars:
    importing clcoherence.cli in this process has set OPENBLAS_NUM_THREADS here.
    """
    src = str(Path(clcoherence.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_readme_library_example_runs():
    """README's python block runs as written, in a fresh interpreter."""
    blocks = re.findall(r"```python\n(.*?)```", (CONFIGS.parent / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    _probe(blocks[0])


@pytest.mark.parametrize(
    "order", [("--quiet", ""), ("", "--quiet")], ids=["quiet-first", "quiet-second"]
)
def test_quiet_holds_for_each_call_in_one_process(tmp_path, order):
    # logging.basicConfig configures a process once; each call sets its own level
    code = (
        "import sys\n"
        "sys.stderr = sys.stdout\n"
        "from clcoherence.cli import main\n"
        f"for flag in {list(order)!r}:\n"
        f"    main(['sweep', '--config', {str(CONFIGS / 'sweep.json')!r},\n"
        f"          '--out', {str(tmp_path / 'o')!r}, *filter(None, [flag])])\n"
        "    print('END OF CALL')\n"
    )
    calls = _probe(code).split("END OF CALL")[:2]
    for flag, output in zip(order, calls):
        assert "sweep: wrote 2 files" in output
        assert ("sweep over beta_abs: 5 values" in output) == (flag != "--quiet"), (flag, output)


def test_package_import_loads_no_numpy():
    assert _probe("import sys, clcoherence; print('numpy' in sys.modules)") == "False"


# OpenBLAS caps its threads at the CPU count, so one CPU shows one thread either way
COUNTS_THREADS = Path("/proc/self/task").is_dir() and (os.cpu_count() or 1) >= 2
THREADS_PROBE = """import os, clcoherence.cli
tasks = os.listdir("/proc/self/task") if os.path.isdir("/proc/self/task") else ()
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(tasks))"""


def test_cli_import_runs_blas_on_one_thread():
    variable, threads = _probe(THREADS_PROBE).split()
    assert variable == "1"
    if COUNTS_THREADS:
        assert threads == "1"


def test_cli_import_keeps_a_preset_thread_count():
    # OMP_NUM_THREADS is the last variable OpenBLAS reads: set alone, it still wins
    variable, threads = _probe(THREADS_PROBE, OMP_NUM_THREADS="2").split()
    assert variable == "None"
    if COUNTS_THREADS:
        assert threads == "2"


def test_lazy_package_root_resolves_every_public_name():
    for name in clcoherence.__all__:
        module = importlib.import_module(f"clcoherence.{clcoherence._MODULE_OF[name]}")
        assert getattr(clcoherence, name) is getattr(module, name), name
    assert set(clcoherence.__all__) <= set(dir(clcoherence))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        clcoherence.no_such_name
    namespace = {}
    exec("from clcoherence import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(clcoherence.__all__)


def test_cli_import_does_not_load_scipy_signal():
    # Loading the CLI imports numpy and the bare scipy package only: any scipy
    # subpackage costs ~0.3 s (its array-API shim).  The ladder is numpy's FFT of
    # its Jacobi-Anger series and the spectra use numpy.fft; only the tests'
    # closed Bessel-sum cross-check loads special, and a tabulated coupling
    # integrate and interpolate (and optimize through it).
    heavy = [
        "scipy.signal",
        "scipy.special",
        "scipy.fft",
        "scipy.sparse",
        "scipy.integrate",
        "scipy.interpolate",
        "scipy.optimize",
        "scipy.sparse.linalg",
        "scipy.linalg",
    ]
    probe = f"import sys, clcoherence.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert _probe(probe) == "[]"


def test_oracle_check_loads_no_scipy_linear_algebra(tmp_path):
    # the oracle sums its Chebyshev series in numpy: scipy.sparse and scipy.linalg
    # serve only the tests' cross-checks
    cfg = write_config(tmp_path, "oracle.json", {"beam": dict(BEAM_SECTION)})
    argv = ["oracle-check", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]
    heavy = ["scipy.sparse", "scipy.sparse.linalg", "scipy.linalg"]
    probe = (
        "import sys, clcoherence.cli\n"
        f"code = clcoherence.cli.main({argv!r})\n"
        f"print(code, [m for m in {heavy!r} if m in sys.modules])"
    )
    assert _probe(probe).splitlines()[-1] == "0 []"


def test_only_coupling_and_scenarios_import_scipy():
    # read statically, so a lazy import inside a function counts too: the
    # tabulated coupling's interpolation and integration, and the manifest's
    # version; the oracle's full-space cross-check routes live in the tests
    importers = set()
    for path in sorted(Path(clcoherence.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                importers.add(path.name)
    assert importers == {"coupling.py", "scenarios.py"}


@pytest.mark.parametrize("rows", [0, 200, _CSV_BLOCK, _CSV_BLOCK + 1])
def test_csv_writer_round_trips_every_column(tmp_path, rows):
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    ints = rng.integers(-(2**62), 2**62, rows)
    flags = rng.random(rows) < 0.5
    _write_csv(tmp_path / "t.csv", {"x": floats, "n": ints, "ok": flags, "s": ["1+2"] * rows})
    lines = (tmp_path / "t.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "x,n,ok,s" and lines[-1] == "" and len(lines) == rows + 2
    rows = [line.split(",") for line in lines[1:-1]]
    assert [float(r[0]) for r in rows] == floats.tolist()
    assert [int(r[1]) for r in rows] == ints.tolist()
    assert [r[2] for r in rows] == ["1" if f else "0" for f in flags]
    assert all(r[3] == "1+2" for r in rows)
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "u.csv", {"x": floats, "n": np.append(ints, 0)})
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "v.csv", {"x": floats.reshape(-1, 1)})
    assert not (tmp_path / "u.csv").exists() and not (tmp_path / "v.csv").exists()


def test_csv_writer_holds_one_block_of_cells_at_a_time(tmp_path):
    # The 600k cells as Python floats would take ~20 MB; one block of them, ~0.4 MB.
    rng = np.random.default_rng(6)
    columns = {name: rng.standard_normal(200_000) for name in ("a", "b", "c")}
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    lines = (tmp_path / "big.csv").read_text().splitlines()
    assert len(lines) == 200_001
    assert lines[-1] == ",".join(repr(float(columns[k][-1])) for k in "abc")
