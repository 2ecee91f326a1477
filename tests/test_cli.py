"""Command-line interface: scenarios, exit codes, manifests, reproducibility."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import clcoherence
from clcoherence import BeamParameters
from clcoherence.cli import main
from clcoherence.oracle import _run_single
from clcoherence.scenarios import _write_csv

BEAM_SECTION = {"kinetic_energy_ev": 200000.0, "wavelength_nm": 800.0}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = [
    ("doc-map", "configs/doc_map.json"),
    ("doc-slice", "configs/doc_slice.json"),
    ("doc-slice", "configs/doc_slice_infinite.json"),
    ("waveguide", "configs/waveguide.json"),
    ("pulse-shape", "configs/pulse_shape.json"),
    ("detect", "configs/detect.json"),
    ("oracle-check", "configs/oracle_check.json"),
    ("sweep", "configs/sweep.json"),
]


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

    def test_physics_guard_maps_to_exit_3(self, tmp_path):
        # Cutoff far too small for |beta| = 4: truncation guard must trip.
        cfg = doc_slice_config(tmp_path, modulation={"beta_abs": 4.0, "cutoff": 5})
        assert main(["doc-slice", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3

    def test_oracle_mismatch_maps_to_exit_4(self, tmp_path, monkeypatch):
        import clcoherence.scenarios as scen

        beam = BeamParameters.from_wavelength(200e3, 800.0)
        row = _run_single(0.0, 0.0, 0.05, (1,), beam)
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

    def test_sweep_honours_modulation_cutoff(self, tmp_path):
        payload = {
            "beam": dict(BEAM_SECTION),
            "modulation": {"beta_abs": 4.0, "cutoff": 1},
            "sweep": {"parameter": "distance_mm", "values": [0.0, 6.43]},
        }
        cfg = write_config(tmp_path, "sweep.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3

    def test_doc_map_rejects_modulation_cutoff(self, tmp_path):
        payload = {"beam": dict(BEAM_SECTION), "modulation": {"beta_abs": 4.0, "cutoff": 1}}
        cfg = write_config(tmp_path, "doc_map.json", payload)
        assert main(["doc-map", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2

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
        "scenario,name", [("doc-slice", "doc_slice"), ("waveguide", "waveguide")]
    )
    def test_dt_above_a_64th_period_is_config_error(self, scenario, name, tmp_path, capsys):
        payload = json.loads((CONFIGS / f"{name}.json").read_text())
        payload["envelope"]["dt_fs"] = 1.0  # T0/64 = 0.0417 fs
        cfg = write_config(tmp_path, f"{name}.json", payload)
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "envelope: dt=1 fs exceeds T0/64" in capsys.readouterr().err

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

    def test_non_finite_summary_value_is_physics_guard(self, tmp_path, capsys):
        # a 2e-4 omega0 coupling band: the time field has no half-maximum widths
        payload = json.loads((CONFIGS / "pulse_shape.json").read_text())
        payload["coupling"]["band_over_omega0"] = [0.9999, 1.0001]
        cfg = write_config(tmp_path, "pulse_shape.json", payload)
        out = tmp_path / "o"
        assert main(["pulse-shape", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        for key in ("field_envelope_fwhm_fs", "field_intensity_fwhm_fs"):
            assert f'"{key}": NaN' in err
        assert '"envelope_to_intensity_ratio": NaN' in err
        assert not (out / "summary.json").exists()

    def test_non_finite_csv_column_is_physics_guard(self, tmp_path, capsys):
        # |E|^2 of a g0 = 1e160 field overflows to inf
        payload = json.loads((CONFIGS / "pulse_shape.json").read_text())
        payload["coupling"]["g0"] = 1e160
        cfg = write_config(tmp_path, "pulse_shape.json", payload)
        out = tmp_path / "o"
        assert main(["pulse-shape", "--config", cfg, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "field_time.csv" in err and "intensity" in err
        assert not (out / "field_time.csv").exists()

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

    def test_single_shot_is_config_error(self, tmp_path, capsys):
        cfg = detect_config(tmp_path, shots=1)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "detection.shots" in capsys.readouterr().err

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
    @pytest.mark.parametrize("scenario,config", SHIPPED)
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


def test_cli_import_does_not_load_scipy_signal():
    # scipy.signal costs ~0.7 s to import; the FFT kernels use scipy.fft only.
    # The others load only for a tabulated coupling (integrate, interpolate,
    # and optimize through it) or an oracle run (sparse.linalg, linalg), so
    # loading the CLI must pull in none of them.
    heavy = [
        "scipy.signal",
        "scipy.integrate",
        "scipy.interpolate",
        "scipy.optimize",
        "scipy.sparse.linalg",
        "scipy.linalg",
    ]
    src = str(Path(clcoherence.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = f"import sys, clcoherence.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_csv_writer_round_trips_every_column(tmp_path):
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
    ints = rng.integers(-(2**62), 2**62, 200)
    flags = rng.random(200) < 0.5
    _write_csv(tmp_path / "t.csv", {"x": floats, "n": ints, "ok": flags, "s": ["1+2"] * 200})
    lines = (tmp_path / "t.csv").read_bytes().decode().split("\r\n")
    assert lines[0] == "x,n,ok,s" and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [float(r[0]) for r in rows] == floats.tolist()
    assert [int(r[1]) for r in rows] == ints.tolist()
    assert [r[2] for r in rows] == ["1" if f else "0" for f in flags]
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "u.csv", {"x": floats, "n": ints[:-1]})
