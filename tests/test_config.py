"""Config resolution: typed sections, defaults, non-finite values, canonical form."""

import json
import math
import re
from pathlib import Path

import pytest

from clcoherence import BeamParameters
from clcoherence.config import LIMITS, ScenarioConfig
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
    assert ScenarioConfig.from_mapping("doc-map", payload).sizes()["scan"] == 175438 * 57
    payload["scan"]["coarse_step_mm"] = 20.0 / 175438
    with pytest.raises(ConfigError, match="10000023 distances x ladder levels exceed"):
        ScenarioConfig.from_mapping("doc-map", payload)


T0 = BeamParameters.from_wavelength(200e3, 800.0).optical_period  # every shipped beam's
# LIMITS row -> (config, fixed edits, the key that moves the count, its value at
# the largest count the row admits and at the next count the key can give, those
# two counts).  A row whose count moves by 1 is admitted at its limit.
LIMIT_CASES = {
    "shots": ("detect.json", {}, ("detection", "shots"), 10**6, 10**6 + 1, 10**6, 10**6 + 1),
    "phase_sweep_points": (
        "detect.json", {}, ("detection", "phase_sweep_points"), 10**5, 10**5 + 1, 10**5, 10**5 + 1
    ),
    # distinct lengths: lengths that share a file name are refused on their own
    "lengths": (
        "waveguide.json", {}, ("coupling", "lengths_um"),
        [10.0 + i for i in range(256)], [10.0 + i for i in range(257)], 256, 257,
    ),
    # one |beta| a value: 999,999 and 1,000,001 ladder levels; a 1 MeV beam keeps
    # level -J at a positive kinetic energy
    "sweep_values": (
        "sweep.json",
        {("beam", "kinetic_energy_ev"): 1e6},
        ("sweep", "values"),
        [248589.0], [248589.5], 999_999, 1_000_001,
    ),
    # |beta| = 4: 57 ladder levels a distance
    "scan": (
        "doc_map.json", {}, ("scan", "coarse_step_mm"),
        20.0 / 175437, 20.0 / 175438, 175438 * 57, 175439 * 57,
    ),
    # unpadded, up to 24 omega0: 24 steps a period
    "lattice_span": (
        "doc_slice_infinite.json", {}, ("envelope", "window_fs"),
        41666 * T0, 41667 * T0, 41666 * 24, 41667 * 24,
    ),
    # |beta| = 451: 2,048 samples a period, padded x8
    "samples": (
        "doc_slice.json",
        {("modulation", "beta_abs"): 451.0},
        ("envelope", "window_fs"),
        1024 * T0, 1025 * T0, 2048 * 1024 * 8, 2048 * 1025 * 8,
    ),
    # J = 1023 and 1024 (64 periods keep the samples small)
    "levels": (
        "doc_slice_infinite.json", {}, ("modulation", "beta_abs"), 451.0, 451.5, 2047, 2049
    ),
}


@pytest.mark.parametrize("name", LIMITS)
def test_size_limits_admit_the_limit_and_refuse_one_more(name):
    config, edits, path, at, over, count_at, count_over = LIMIT_CASES[name]
    what, limit, keys = LIMITS[name]
    assert count_at <= limit < count_over
    data = json.loads((CONFIGS / config).read_text())
    for edit_path, value in edits.items():
        data = _replaced(data, edit_path, value)
    scenario = SCENARIO_BY_FILE[config]
    cfg = ScenarioConfig.from_mapping(scenario, _replaced(data, path, at))
    assert cfg.sizes()[name] == count_at
    with pytest.raises(ConfigError) as refused:
        ScenarioConfig.from_mapping(scenario, _replaced(data, path, over))
    assert str(refused.value) == f"{keys}: {count_over} {what} exceed the limit {limit}"


def test_every_limit_key_is_a_config_key():
    # each key is read by a shipped config's scenario, so a string there is refused
    # under its own name: a removed key cannot linger in a limit's message
    configs = {name: json.loads((CONFIGS / name).read_text()) for name in SCENARIO_BY_FILE}
    for key in sorted({key for row in LIMITS.values() for key in row.keys.split(", ")}):
        section, name = key.split(".")
        config = next(
            config
            for config, data in configs.items()
            if getattr(ScenarioConfig.from_mapping(SCENARIO_BY_FILE[config], data), section)
        )
        data = json.loads(json.dumps(configs[config]))
        data.setdefault(section, {})[name] = "x"
        with pytest.raises(ConfigError) as refused:
            ScenarioConfig.from_mapping(SCENARIO_BY_FILE[config], data)
        assert str(refused.value).startswith(f"{key}: must be"), (config, str(refused.value))


def test_every_limit_has_headroom_over_the_shipped_configs():
    for name, scenario in SCENARIO_BY_FILE.items():
        sizes = ScenarioConfig.from_file(scenario, CONFIGS / name).sizes()
        for row, count in sizes.items():
            assert 4 * count <= LIMITS[row].limit, (name, row)


def test_readme_limits_table_matches_the_limits():
    # README's rows: | `name` | count | limit | `key`, ... | headroom | worst case |
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 6 and cells[0].startswith("`"):
            limit = int(cells[2].split()[0].replace(",", ""))
            rows[cells[0].strip("`")] = (limit, ", ".join(re.findall(r"`([^`]+)`", cells[3])))
    assert rows == {name: (row.limit, row.keys) for name, row in LIMITS.items()}
