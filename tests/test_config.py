"""Config resolution: typed sections, defaults, non-finite values, canonical form."""

import json
import math
from pathlib import Path

import pytest

from clcoherence.config import (
    LENGTHS_LIMIT,
    PHASE_SWEEP_LIMIT,
    SWEEP_VALUES_LIMIT,
    ScenarioConfig,
)
from clcoherence.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCENARIO_BY_FILE = {
    "doc_map.json": "doc-map",
    "doc_slice.json": "doc-slice",
    "doc_slice_infinite.json": "doc-slice",
    "waveguide.json": "waveguide",
    "pulse_shape.json": "pulse-shape",
    "detect.json": "detect",
    "oracle_check.json": "oracle-check",
    "sweep.json": "sweep",
}


def _numeric_leaves(node, path=()):
    """Key/index paths of every number in a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _numeric_leaves(child, path + (key,))


def _leaf_cases():
    for name in sorted(SCENARIO_BY_FILE):
        data = json.loads((CONFIGS / name).read_text())
        for path in _numeric_leaves(data):
            yield pytest.param(name, path, id=f"{name}:{'.'.join(map(str, path))}")


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,path", list(_leaf_cases()))
def test_non_finite_numeric_leaf_is_config_error(name, path, bad):
    data = json.loads((CONFIGS / name).read_text())
    ScenarioConfig.from_mapping(SCENARIO_BY_FILE[name], data)  # the shipped value loads
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(SCENARIO_BY_FILE[name], _replaced(data, path, bad))


@pytest.mark.parametrize("name", sorted(SCENARIO_BY_FILE))
def test_resolved_config_resolves_to_itself(name):
    cfg = ScenarioConfig.from_file(SCENARIO_BY_FILE[name], CONFIGS / name)
    round_trip = json.loads(json.dumps(cfg.to_mapping()))
    again = ScenarioConfig.from_mapping(cfg.scenario, round_trip)
    assert again == cfg
    assert again.canonical_json() == cfg.canonical_json()


def test_spelled_out_defaults_do_not_change_the_hash():
    bare = {"beam": {"kinetic_energy_ev": 200000.0, "wavelength_nm": 800.0},
            "modulation": {"beta_abs": 2}, "sweep": {"parameter": "beta_abs", "values": [1]}}
    explicit = {
        "beam": {"kinetic_energy_ev": 200000.0, "wavelength_nm": 800.0},
        "modulation": {"beta_abs": 2.0, "beta_arg": 0.0},
        "propagation": {"distance_mm": 0.0, "mode": "exact"},
        "sweep": {"parameter": "beta_abs", "values": [1.0], "n_harmonics": 24},
        "output": {"directory": "out-sweep", "gnuplot": False},
    }
    a = ScenarioConfig.from_mapping("sweep", bare)
    b = ScenarioConfig.from_mapping("sweep", explicit)
    assert a == b and a.sha256() == b.sha256()


def test_beam_resolves_to_its_photon_energy():
    by_wavelength = ScenarioConfig.from_mapping(
        "oracle-check", {"beam": {"kinetic_energy_ev": 200000.0, "wavelength_nm": 800.0}}
    )
    photon_ev = by_wavelength.beam.photon_energy
    by_energy = ScenarioConfig.from_mapping(
        "oracle-check", {"beam": {"kinetic_energy_ev": 200000.0, "photon_energy_ev": photon_ev}}
    )
    assert by_energy == by_wavelength
    assert by_wavelength.to_mapping()["beam"] == {
        "kinetic_energy_ev": 200000.0,
        "photon_energy_ev": photon_ev,
    }


def test_unread_sections_are_validated_but_not_recorded():
    data = json.loads((CONFIGS / "doc_slice.json").read_text())
    data["scan"] = {"d_max_mm": 5.0}
    assert "scan" not in ScenarioConfig.from_mapping("doc-slice", data).to_mapping()
    data["scan"] = {"d_max_mm": math.nan}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping("doc-slice", data)


def test_beam_parameter_error_is_config_error():
    with pytest.raises(ConfigError, match="beam"):
        ScenarioConfig.from_mapping(
            "oracle-check", {"beam": {"kinetic_energy_ev": 10.0, "wavelength_nm": 800.0}}
        )


def test_non_unitary_splitter_is_config_error():
    data = json.loads((CONFIGS / "detect.json").read_text())
    data["detection"]["splitter"] = {"R": 1.0, "T": [0.0, 1.0]}
    with pytest.raises(ConfigError, match="detection.splitter"):
        ScenarioConfig.from_mapping("detect", data)


def test_waveguide_scenario_needs_the_waveguide_coupling():
    data = json.loads((CONFIGS / "pulse_shape.json").read_text())
    with pytest.raises(ConfigError, match="coupling.variant"):
        ScenarioConfig.from_mapping("waveguide", data)


def test_relative_table_path_resolves_against_the_config_directory(tmp_path):
    data = json.loads((CONFIGS / "pulse_shape.json").read_text())
    data["coupling"] = {"variant": "tabulated", "table_path": "g.csv"}
    cfg = ScenarioConfig.from_mapping("pulse-shape", data, base_dir=tmp_path)
    assert cfg.coupling.table_path == str(tmp_path / "g.csv")
    assert ScenarioConfig.from_mapping("pulse-shape", cfg.to_mapping()) == cfg


@pytest.mark.parametrize(
    "section,key,pair",
    [
        ("coupling", "g0", [0.05, math.nan]),
        ("coupling", "g0", [math.inf, 0.0]),
        ("splitter", "R", [math.nan, 0.0]),
        ("splitter", "T", [0.0, -math.inf]),
    ],
)
def test_non_finite_complex_pair_is_config_error(section, key, pair):
    data = json.loads((CONFIGS / "detect.json").read_text())
    if section == "splitter":
        s = 0.5**0.5
        data["detection"]["splitter"] = {"R": [s, 0.0], "T": [0.0, s]}
        ScenarioConfig.from_mapping("detect", data)  # the finite pair loads
        data["detection"]["splitter"][key] = pair
    else:
        data["coupling"][key] = pair
    with pytest.raises(ConfigError, match=f"{key}\\["):
        ScenarioConfig.from_mapping("detect", data)


def test_doc_map_scan_limit_counts_distances_times_ladder_levels():
    # |beta| = 4 gives 57 levels: 175,438 distances hold 9,999,966 amplitudes
    payload = json.loads((CONFIGS / "doc_map.json").read_text())
    payload["scan"]["coarse_step_mm"] = 20.0 / 175437
    ScenarioConfig.from_mapping("doc-map", payload)
    payload["scan"]["coarse_step_mm"] = 20.0 / 175438
    with pytest.raises(ConfigError, match="175439 distances x 57 ladder levels"):
        ScenarioConfig.from_mapping("doc-map", payload)


@pytest.mark.parametrize(
    "name,path,limit,entry",
    [
        ("detect.json", ("detection", "phase_sweep_points"), PHASE_SWEEP_LIMIT, None),
        ("waveguide.json", ("coupling", "lengths_um"), LENGTHS_LIMIT, 10.0),
        ("sweep.json", ("sweep", "values"), SWEEP_VALUES_LIMIT, 1.0),
    ],
    ids=["phase_sweep_points", "lengths_um", "sweep.values"],
)
def test_size_limits_admit_the_limit_and_refuse_one_more(name, path, limit, entry):
    # a count for an integer key, a list of that many entries for a list key
    data = json.loads((CONFIGS / name).read_text())
    scenario = SCENARIO_BY_FILE[name]
    at, over = (limit, limit + 1) if entry is None else ([entry] * limit, [entry] * (limit + 1))
    ScenarioConfig.from_mapping(scenario, _replaced(data, path, at))
    with pytest.raises(ConfigError, match=".".join(path)):
        ScenarioConfig.from_mapping(scenario, _replaced(data, path, over))
