"""Scenario configuration: JSON loading, validation, canonical hashing.

A config file is a JSON object with the sections below (per-scenario
requirements are enforced at load time).  A run manifest embeds the fully
resolved config under "config"; passing a manifest back through --config
re-runs the identical computation.

Distances in config files are mm, times fs, frequencies either rad/fs or in
units of the modulation frequency (keys ending in _over_omega0).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

SCENARIOS = (
    "doc-map",
    "doc-slice",
    "waveguide",
    "pulse-shape",
    "detect",
    "oracle-check",
    "sweep",
)

_TOP_KEYS = {
    "beam",
    "modulation",
    "propagation",
    "envelope",
    "scan",
    "coupling",
    "detection",
    "sweep",
    "output",
}

_REQUIRED = {
    "doc-map": ("beam", "modulation"),
    "doc-slice": ("beam", "modulation", "propagation", "envelope"),
    "waveguide": ("beam", "modulation", "propagation", "envelope", "coupling"),
    "pulse-shape": ("beam", "modulation", "propagation", "envelope", "coupling"),
    "detect": ("beam", "modulation", "propagation", "envelope", "coupling", "detection"),
    "oracle-check": (),
    "sweep": ("beam", "modulation", "sweep"),
}


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _check_keys(section: dict, path: str, allowed: set[str]) -> None:
    unknown = set(section) - allowed
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _need_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "must be a JSON object")
    return value


def _number(section: dict, path: str, key: str, *, required=False, default=None,
            positive=False, nonnegative=False):
    if key not in section:
        if required:
            _fail(path, f"missing required key '{key}'")
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", "must be a number")
    v = float(v)
    if positive and v <= 0.0:
        _fail(f"{path}.{key}", "must be > 0")
    if nonnegative and v < 0.0:
        _fail(f"{path}.{key}", "must be >= 0")
    return v


def _integer(section: dict, path: str, key: str, *, required=False, default=None, minimum=None):
    if key not in section:
        if required:
            _fail(path, f"missing required key '{key}'")
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", "must be an integer")
    if minimum is not None and v < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}")
    return int(v)


def _string(section: dict, path: str, key: str, *, required=False, default=None, choices=None):
    if key not in section:
        if required:
            _fail(path, f"missing required key '{key}'")
        return default
    v = section[key]
    if not isinstance(v, str):
        _fail(f"{path}.{key}", "must be a string")
    if choices is not None and v not in choices:
        _fail(f"{path}.{key}", f"must be one of {sorted(choices)}")
    return v


def _complex_value(section: dict, path: str, key: str, *, required=False, default=None):
    """A complex number given as a real scalar or a [re, im] pair."""
    if key not in section:
        if required:
            _fail(path, f"missing required key '{key}'")
        return default
    v = section[key]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(float(v), 0.0)
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        return complex(float(v[0]), float(v[1]))
    _fail(f"{path}.{key}", "must be a number or a [re, im] pair")


def _validate_beam(section: dict) -> None:
    _check_keys(section, "beam", {"kinetic_energy_ev", "wavelength_nm", "photon_energy_ev"})
    _number(section, "beam", "kinetic_energy_ev", required=True, positive=True)
    has_wl = "wavelength_nm" in section
    has_pe = "photon_energy_ev" in section
    if has_wl == has_pe:
        _fail("beam", "give exactly one of wavelength_nm or photon_energy_ev")
    if has_wl:
        _number(section, "beam", "wavelength_nm", positive=True)
    else:
        _number(section, "beam", "photon_energy_ev", positive=True)


def _validate_modulation(section: dict) -> None:
    _check_keys(section, "modulation", {"beta_abs", "beta_arg", "cutoff"})
    _number(section, "modulation", "beta_abs", required=True, nonnegative=True)
    _number(section, "modulation", "beta_arg", default=0.0)
    _integer(section, "modulation", "cutoff", minimum=1)


def _validate_propagation(section: dict) -> None:
    _check_keys(section, "propagation", {"distance_mm", "mode"})
    _number(section, "propagation", "distance_mm", nonnegative=True)
    _string(section, "propagation", "mode", choices={"exact", "quadratic"})


def _validate_envelope(section: dict) -> None:
    _check_keys(section, "envelope", {"kind", "fwhm_fs", "dt_fs", "window_fs"})
    kind = _string(section, "envelope", "kind", required=True, choices={"infinite", "gaussian"})
    fwhm = _number(section, "envelope", "fwhm_fs", positive=True)
    if kind == "gaussian" and fwhm is None:
        _fail("envelope", "gaussian envelope requires fwhm_fs")
    if kind == "infinite" and fwhm is not None:
        _fail("envelope", "infinite envelope takes no fwhm_fs")
    _number(section, "envelope", "dt_fs", positive=True)
    _number(section, "envelope", "window_fs", positive=True)


def _validate_scan(section: dict) -> None:
    _check_keys(
        section,
        "scan",
        {"d_min_mm", "d_max_mm", "coarse_step_mm", "refine_tol_mm", "threshold", "n_harmonics"},
    )
    lo = _number(section, "scan", "d_min_mm", default=0.0, nonnegative=True)
    hi = _number(section, "scan", "d_max_mm", default=20.0, positive=True)
    if hi <= lo:
        _fail("scan", "d_max_mm must exceed d_min_mm")
    _number(section, "scan", "coarse_step_mm", positive=True)
    _number(section, "scan", "refine_tol_mm", positive=True)
    _number(section, "scan", "threshold", positive=True)
    _integer(section, "scan", "n_harmonics", minimum=1)


_COUPLING_KEYS = {
    "flat": {"variant", "g0", "band_over_omega0"},
    "gaussian_band": {"variant", "g0", "center_over_omega0", "sigma_over_omega0"},
    "tabulated": {"variant", "table_path"},
    "waveguide": {
        "variant",
        "g0",
        "length_um",
        "lengths_um",
        "v_group_ratio",
        "gvd_fs2_nm",
        "omega_match_over_omega0",
    },
}


def _validate_coupling(section: dict) -> None:
    variant = _string(
        section, "coupling", "variant", required=True, choices=set(_COUPLING_KEYS)
    )
    _check_keys(section, "coupling", _COUPLING_KEYS[variant])
    if variant == "flat":
        _complex_value(section, "coupling", "g0", required=True)
        band = section.get("band_over_omega0")
        if (
            not isinstance(band, list)
            or len(band) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in band)
            or not 0.0 < float(band[0]) < float(band[1])
        ):
            _fail("coupling.band_over_omega0", "must be [lo, hi] with 0 < lo < hi")
    elif variant == "gaussian_band":
        _complex_value(section, "coupling", "g0", required=True)
        _number(section, "coupling", "center_over_omega0", default=1.0, positive=True)
        _number(section, "coupling", "sigma_over_omega0", required=True, positive=True)
    elif variant == "tabulated":
        _string(section, "coupling", "table_path", required=True)
    else:  # waveguide
        _complex_value(section, "coupling", "g0", required=True)
        has_one = "length_um" in section
        has_many = "lengths_um" in section
        if has_one == has_many:
            _fail("coupling", "give exactly one of length_um or lengths_um")
        if has_one:
            _number(section, "coupling", "length_um", positive=True)
        else:
            lengths = section["lengths_um"]
            if (
                not isinstance(lengths, list)
                or not lengths
                or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0
                    for x in lengths
                )
            ):
                _fail("coupling.lengths_um", "must be a non-empty list of positive numbers")
        _number(section, "coupling", "v_group_ratio", positive=True)
        _number(section, "coupling", "gvd_fs2_nm")
        _number(section, "coupling", "omega_match_over_omega0", positive=True)


def _validate_detection(section: dict) -> None:
    _check_keys(
        section,
        "detection",
        {"splitter", "reference", "qe", "shots", "seed", "phase_sweep_points"},
    )
    splitter = _need_mapping(section.get("splitter", {"type": "heterodyne"}), "detection.splitter")
    if "type" in splitter:
        _check_keys(splitter, "detection.splitter", {"type"})
        _string(splitter, "detection.splitter", "type", choices={"heterodyne"})
    else:
        _check_keys(splitter, "detection.splitter", {"R", "T"})
        _complex_value(splitter, "detection.splitter", "R", required=True)
        _complex_value(splitter, "detection.splitter", "T", required=True)
    ref = _need_mapping(section.get("reference"), "detection.reference")
    _check_keys(
        ref,
        "detection.reference",
        {"center_over_omega0", "sigma_over_omega0", "total_counts", "phase_rad"},
    )
    _number(ref, "detection.reference", "center_over_omega0", default=1.0, positive=True)
    _number(ref, "detection.reference", "sigma_over_omega0", required=True, positive=True)
    _number(ref, "detection.reference", "total_counts", required=True, nonnegative=True)
    _number(ref, "detection.reference", "phase_rad", default=0.0)
    qe = section.get("qe", [1.0, 1.0])
    if (
        not isinstance(qe, list)
        or len(qe) != 2
        or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and 0.0 <= x <= 1.0
            for x in qe
        )
    ):
        _fail("detection.qe", "must be a [qe1, qe2] pair inside [0, 1]")
    _integer(section, "detection", "shots", minimum=1)
    _integer(section, "detection", "seed", minimum=0)
    _integer(section, "detection", "phase_sweep_points", minimum=0)


def _validate_sweep(section: dict) -> None:
    _check_keys(section, "sweep", {"parameter", "values", "n_harmonics"})
    param = _string(
        section, "sweep", "parameter", required=True, choices={"beta_abs", "distance_mm"}
    )
    values = section.get("values")
    if (
        not isinstance(values, list)
        or not values
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values)
    ):
        _fail("sweep.values", "must be a non-empty list of numbers")
    if param == "beta_abs" and any(x < 0 for x in values):
        _fail("sweep.values", "beta_abs values must be >= 0")
    if param == "distance_mm" and any(x < 0 for x in values):
        _fail("sweep.values", "distance_mm values must be >= 0")
    _integer(section, "sweep", "n_harmonics", minimum=1)


def _validate_output(section: dict) -> None:
    _check_keys(section, "output", {"directory", "gnuplot"})
    _string(section, "output", "directory")
    if "gnuplot" in section and not isinstance(section["gnuplot"], bool):
        _fail("output.gnuplot", "must be a boolean")


_SECTION_VALIDATORS = {
    "beam": _validate_beam,
    "modulation": _validate_modulation,
    "propagation": _validate_propagation,
    "envelope": _validate_envelope,
    "scan": _validate_scan,
    "coupling": _validate_coupling,
    "detection": _validate_detection,
    "sweep": _validate_sweep,
    "output": _validate_output,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario configuration (sections stay as plain dicts)."""

    scenario: str
    data: dict
    base_dir: Path

    @classmethod
    def from_mapping(
        cls, scenario: str, data: dict, base_dir: Path | None = None
    ) -> "ScenarioConfig":
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
        data = _need_mapping(data, "<config>")
        _check_keys(data, "<config>", _TOP_KEYS)
        for name, section in data.items():
            _SECTION_VALIDATORS[name](_need_mapping(section, name))
        missing = [s for s in _REQUIRED[scenario] if s not in data]
        if missing:
            raise ConfigError(
                f"scenario {scenario!r} requires section(s) {missing} in the config"
            )
        if scenario == "detect":
            det = data["detection"]
            if "shots" not in det or "seed" not in det:
                raise ConfigError("detection: scenario 'detect' requires shots and seed")
        return cls(scenario=scenario, data=data, base_dir=base_dir or Path.cwd())

    @classmethod
    def from_file(cls, scenario: str, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        payload = _need_mapping(payload, "<config>")
        if payload.get("tool") == "clcoherence" and "config" in payload:
            # a manifest from a previous run: re-run its embedded config
            manifest_scenario = payload.get("scenario")
            if manifest_scenario != scenario:
                raise ConfigError(
                    f"manifest was produced by scenario {manifest_scenario!r}, "
                    f"not {scenario!r}"
                )
            payload = _need_mapping(payload["config"], "config")
        return cls.from_mapping(scenario, payload, base_dir=path.resolve().parent)

    def section(self, name: str, default=None):
        return self.data.get(name, default if default is not None else {})

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
