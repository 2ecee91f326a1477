import json
import math

import pytest

import checks

GOOD = {
    "doc-slice": ({}, {"max_fft_ladder_mismatch": 3.0e-12}),
    "pulse-shape": (
        {"envelope": {"kind": "gaussian", "fwhm_fs": 200.0}},
        {"field_envelope_fwhm_fs": 200.0 * (1 + 1e-13), "envelope_to_intensity_ratio": math.sqrt(2.0) * (1 + 6e-6)},
    ),
    "waveguide": ({}, {"spectral_fwhm_monotone_decreasing": True, "time_fwhm_monotone_increasing": True}),
    "detect": (
        {"detection": {"shots": 10000}},
        {"n_shots": 10000, "empirical_noise_per_shot": 10.1, "noise_floor": {"variance_total": 100.0}},
    ),
    "oracle-check": ({}, {"rows": 54, "passed": 54}),
    "doc-map": ({"scan": {"d_min_mm": 0.0, "d_max_mm": 20.0}}, {"optimal_distance_mm": 6.45}),
    "sweep": ({"sweep": {"values": [1.0, 2.0]}}, {"records": [{}, {}]}),
}

CORRUPT = [
    ("doc-slice", "max_fft_ladder_mismatch", 2.0e-8),
    ("pulse-shape", "field_envelope_fwhm_fs", 200.5),
    ("pulse-shape", "envelope_to_intensity_ratio", 1.2),
    ("waveguide", "time_fwhm_monotone_increasing", False),
    ("detect", "empirical_noise_per_shot", 11.0),
    ("oracle-check", "passed", 53),
    ("oracle-check", "rows", 53),
    ("doc-map", "optimal_distance_mm", 20.0),
    ("sweep", "records", [{}]),
]


def _write(tmp_path, summary_text: str):
    (tmp_path / "summary.json").write_text(summary_text)
    return tmp_path


@pytest.mark.parametrize("scenario", sorted(GOOD))
def test_good_artifacts_pass(tmp_path, scenario):
    config, summary = GOOD[scenario]
    out = _write(tmp_path, json.dumps(summary))
    assert checks.check_invocation(scenario, config, 0, out) == []


@pytest.mark.parametrize("scenario,key,value", CORRUPT)
def test_corrupted_value_fails(tmp_path, scenario, key, value):
    config, summary = GOOD[scenario]
    out = _write(tmp_path, json.dumps({**summary, key: value}))
    assert checks.check_invocation(scenario, config, 0, out)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("scenario", ["doc-slice", "detect"])
def test_non_finite_summary_fails(tmp_path, scenario, constant):
    config, summary = GOOD[scenario]
    key = next(iter(summary))
    text = json.dumps({**summary, key: "PLACEHOLDER"}).replace('"PLACEHOLDER"', constant)
    problems = checks.check_invocation(scenario, config, 0, _write(tmp_path, text))
    assert problems and "non-finite" in problems[0]


def test_nan_nested_in_summary_fails(tmp_path):
    config, _ = GOOD["detect"]
    text = ('{"n_shots": 10000, "empirical_noise_per_shot": 10.0, '
            '"noise_floor": {"variance_total": 100.0, "field_cross": NaN}}')
    assert checks.check_invocation("detect", config, 0, _write(tmp_path, text))


def test_missing_summary_and_bad_exit_fail(tmp_path):
    assert checks.check_invocation("sweep", {}, 0, tmp_path)
    assert checks.check_invocation("sweep", {}, 2, tmp_path) == ["exit code 2"]


def test_count_outputs(tmp_path):
    (tmp_path / "a.csv").write_text("h1,h2\n1,2\n3,4\n")
    (tmp_path / "summary.json").write_text("{}\n")
    assert checks.count_outputs(tmp_path) == (2, 17)
