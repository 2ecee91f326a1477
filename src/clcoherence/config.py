"""Scenario configuration: JSON loading, resolution into typed sections, hashing.

A config file is a JSON object with the sections below.
`ScenarioConfig.from_mapping` resolves it once into frozen dataclasses:
every value is type- and range-checked (NaN and +/-Infinity are rejected), an
absent optional key takes the default written on its dataclass field here,
and the beam and the beam splitter are built as the library objects the run
uses, so their own checks fail at load as ConfigError.  The scenario runners
read these typed fields only.

`ScenarioConfig.to_mapping()` writes the resolved config back as JSON: every
default spelled out, complex numbers as [re, im] pairs, the beam by its
photon energy, a coupling table by its absolute path, and only the sections
the scenario reads.  A run manifest embeds it under "config" with its sha256.
It resolves to itself, so a manifest passed back through --config re-runs the
identical computation, and two configs that differ only in whether they spell
out a default share a manifest and a hash.  A manifest written by another
version of the package is rejected.

Distances in config files are mm, times fs, frequencies either rad/fs or in
units of the modulation frequency (keys ending in _over_omega0).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .coupling import DEFAULT_GROUP_VELOCITY_RATIO, DEFAULT_GVD_FS2_NM
from .detection import BeamSplitter
from .errors import ConfigError
from .estate import EnvelopeSpec, auto_cutoff, sampling_lattice
from .kinematics import BeamParameters

SCENARIOS = (
    "doc-map",
    "doc-slice",
    "waveguide",
    "pulse-shape",
    "detect",
    "oracle-check",
    "sweep",
)

_REQUIRED = {
    "doc-map": ("beam", "modulation"),
    "doc-slice": ("beam", "modulation", "propagation", "envelope"),
    "waveguide": ("beam", "modulation", "propagation", "envelope", "coupling"),
    "pulse-shape": ("beam", "modulation", "propagation", "envelope", "coupling"),
    "detect": ("beam", "modulation", "propagation", "envelope", "coupling", "detection"),
    "oracle-check": (),
    "sweep": ("beam", "modulation", "sweep"),
}

# Optional sections a scenario reads, and what stands in for an absent one.
# Every scenario also reads "output".
_OPTIONAL = {
    "doc-map": {"propagation": {}, "scan": {}},
    "oracle-check": {"beam": {"kinetic_energy_ev": 200000.0, "wavelength_nm": 800.0}},
    "sweep": {"propagation": {}},
}


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_keys(section: dict, path: str, allowed) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _need_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "must be a JSON object")
    return value


# ------------------------------------------------------------------ readers
# A reader checks one JSON value and returns it converted: read(value, path).


def _finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "must be a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        _fail(path, "must be finite")
    return x


def _real(low=None, high=None, *, strict=False):
    """Reader of a finite number >= low (> low when strict) and <= high."""

    def read(value, path):
        x = _finite(value, path)
        if low is not None and (x <= low if strict else x < low):
            _fail(path, f"must be {'>' if strict else '>='} {low:g}")
        if high is not None and x > high:
            _fail(path, f"must be <= {high:g}")
        return x

    return read


_REAL, _POSITIVE, _NONNEGATIVE = _real(), _real(0.0, strict=True), _real(0.0)


def _integer(minimum: int, maximum: int | None = None):
    def read(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, "must be an integer")
        if value < minimum:
            _fail(path, f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            _fail(path, f"must be <= {maximum}")
        return value

    return read


def _string(*choices):
    def read(value, path):
        if not isinstance(value, str):
            _fail(path, "must be a string")
        if choices and value not in choices:
            _fail(path, f"must be one of {sorted(choices)}")
        return value

    return read


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, "must be a boolean")
    return value


def _complex(value, path: str) -> complex:
    """A complex number given as a real scalar or a [re, im] pair."""
    if not isinstance(value, list):
        return complex(_finite(value, path), 0.0)
    if len(value) != 2:
        _fail(path, "must be a number or a [re, im] pair")
    return complex(_finite(value[0], f"{path}[0]"), _finite(value[1], f"{path}[1]"))


def _list(read, length: int | None = None):
    """Reader of a non-empty list (of exactly `length` entries if given) -> tuple."""

    def read_list(value, path):
        if not isinstance(value, list) or not value or len(value) != (length or len(value)):
            _fail(path, f"must be a list of {length or 'one or more'} numbers")
        return tuple(read(x, f"{path}[{i}]") for i, x in enumerate(value))

    return read_list


def _read(section, path: str, readers: dict) -> dict:
    """The keys present in `section`, each checked and converted by its reader."""
    _check_keys(_need_mapping(section, path), path, readers)
    return {key: readers[key](value, f"{path}.{key}") for key, value in section.items()}


def _build(cls, path: str, values: dict):
    """cls(**values); a missing required key or a failed check is a ConfigError."""
    for f in fields(cls):
        required = f.init and f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in values:
            _fail(path, f"missing required key '{f.name}'")
    try:
        return cls(**values)
    except ValueError as exc:
        _fail(path, str(exc))


def _key(read, default=MISSING, **kwargs):
    """A config key of a section dataclass: its reader, and its default unless required."""
    return field(default=default, metadata={"read": read}, **kwargs)


def _readers(cls) -> dict:
    return {f.name: f.metadata["read"] for f in fields(cls) if "read" in f.metadata}


def _section(cls):
    """Parser of a section whose keys are the fields of `cls`."""
    return lambda section, path: _build(cls, path, _read(section, path, _readers(cls)))


# ----------------------------------------------------------------- sections


@dataclass(frozen=True)
class Modulation:
    beta_abs: float = _key(_NONNEGATIVE)
    beta_arg: float = _key(_REAL, 0.0)
    cutoff: int | None = _key(_integer(1), None)  # None: auto_cutoff(beta_abs)

    @property
    def beta(self) -> complex:
        return self.beta_abs * np.exp(1j * self.beta_arg)


@dataclass(frozen=True)
class Propagation:
    distance_mm: float = _key(_NONNEGATIVE, 0.0)
    mode: str = _key(_string("exact", "quadratic"), "exact")


@dataclass(frozen=True)
class Envelope:
    kind: str = _key(_string("infinite", "gaussian"))
    fwhm_fs: float | None = _key(_POSITIVE, None)
    dt_fs: float | None = _key(_POSITIVE, None)  # None: synthesize_density's choice
    window_fs: float | None = _key(_POSITIVE, None)

    def __post_init__(self) -> None:
        self.spec  # EnvelopeSpec checks kind against fwhm

    @property
    def spec(self) -> EnvelopeSpec:
        return EnvelopeSpec(kind=self.kind, fwhm=self.fwhm_fs)


@dataclass(frozen=True)
class Scan:
    d_min_mm: float = _key(_NONNEGATIVE, 0.0)
    d_max_mm: float = _key(_POSITIVE, 20.0)
    coarse_step_mm: float = _key(_POSITIVE, 0.01)
    refine_tol_mm: float = _key(_POSITIVE, 1.0e-3)
    threshold: float = _key(_POSITIVE, 0.01)
    n_harmonics: int = _key(_integer(1), 40)

    def __post_init__(self) -> None:
        if self.d_max_mm <= self.d_min_mm:
            raise ValueError("d_max_mm must exceed d_min_mm")
        # the coarse scan needs 3 distances (the margin absorbs rounding)
        if not self.d_max_mm - self.d_min_mm > 1.5 * self.coarse_step_mm * (1.0 + 1.0e-9):
            raise ValueError("d_max_mm - d_min_mm must exceed 1.5 coarse_step_mm")


@dataclass(frozen=True)
class FlatBand:
    g0: complex = _key(_complex)
    band_over_omega0: tuple[float, float] = _key(_list(_POSITIVE, 2))
    variant: str = field(default="flat", init=False)

    def __post_init__(self) -> None:
        if not self.band_over_omega0[0] < self.band_over_omega0[1]:
            raise ValueError("band_over_omega0 must be [lo, hi] with 0 < lo < hi")


@dataclass(frozen=True)
class GaussianBand:
    g0: complex = _key(_complex)
    sigma_over_omega0: float = _key(_POSITIVE)
    center_over_omega0: float = _key(_POSITIVE, 1.0)
    variant: str = field(default="gaussian_band", init=False)


@dataclass(frozen=True)
class Tabulated:
    table_path: str = _key(_string())  # absolute once resolved
    variant: str = field(default="tabulated", init=False)


@dataclass(frozen=True)
class Waveguide:
    g0: complex = _key(_complex)
    length_um: float | None = _key(_POSITIVE, None)
    lengths_um: tuple[float, ...] | None = _key(_list(_POSITIVE), None)  # waveguide scenario only
    v_group_ratio: float = _key(_POSITIVE, DEFAULT_GROUP_VELOCITY_RATIO)
    gvd_fs2_nm: float = _key(_REAL, DEFAULT_GVD_FS2_NM)
    omega_match_over_omega0: float = _key(_POSITIVE, 1.0)
    variant: str = field(default="waveguide", init=False)

    def __post_init__(self) -> None:
        if (self.length_um is None) == (self.lengths_um is None):
            raise ValueError("give exactly one of length_um or lengths_um")


def _splitter(value, path: str) -> BeamSplitter:
    if "type" in _need_mapping(value, path):
        _read(value, path, {"type": _string("heterodyne")})
        return BeamSplitter.heterodyne()
    return _build(BeamSplitter, path, _read(value, path, {"R": _complex, "T": _complex}))


@dataclass(frozen=True)
class Reference:
    sigma_over_omega0: float = _key(_POSITIVE)
    total_counts: float = _key(_NONNEGATIVE)
    center_over_omega0: float = _key(_POSITIVE, 1.0)
    phase_rad: float = _key(_REAL, 0.0)


@dataclass(frozen=True)
class Detection:
    reference: Reference = _key(_section(Reference))
    splitter: BeamSplitter = _key(_splitter, default_factory=BeamSplitter.heterodyne)
    qe: tuple[float, float] = _key(_list(_real(0.0, 1.0), 2), (1.0, 1.0))
    shots: int | None = _key(_integer(2), None)  # required by the detect scenario
    seed: int | None = _key(_integer(0, 2**128 - 1), None)  # a Philox key is 128 bits
    phase_sweep_points: int = _key(_integer(0), 0)


@dataclass(frozen=True)
class Sweep:
    parameter: str = _key(_string("beta_abs", "distance_mm"))
    values: tuple[float, ...] = _key(_list(_NONNEGATIVE))
    n_harmonics: int = _key(_integer(1), 24)


@dataclass(frozen=True)
class Output:
    directory: str | None = _key(_string(), None)  # None: out-<scenario>
    gnuplot: bool = _key(_flag, False)


_COUPLINGS = {cls.variant: cls for cls in (FlatBand, GaussianBand, Tabulated, Waveguide)}


def _coupling(section, path: str):
    variant = _string(*_COUPLINGS)(_need_mapping(section, path).get("variant"), f"{path}.variant")
    cls = _COUPLINGS[variant]
    values = _read(section, path, {"variant": _string(), **_readers(cls)})
    del values["variant"]
    return _build(cls, path, values)


def _beam(section, path: str) -> BeamParameters:
    keys = ("kinetic_energy_ev", "wavelength_nm", "photon_energy_ev")
    beam = _read(section, path, dict.fromkeys(keys, _POSITIVE))
    if "kinetic_energy_ev" not in beam:
        _fail(path, "missing required key 'kinetic_energy_ev'")
    if ("wavelength_nm" in beam) == ("photon_energy_ev" in beam):
        _fail(path, "give exactly one of wavelength_nm or photon_energy_ev")
    try:
        if "wavelength_nm" in beam:
            return BeamParameters.from_wavelength(beam["kinetic_energy_ev"], beam["wavelength_nm"])
        return BeamParameters(beam["kinetic_energy_ev"], beam["photon_energy_ev"])
    except ValueError as exc:
        _fail(path, str(exc))


_SECTIONS = {
    "beam": _beam,
    "modulation": _section(Modulation),
    "propagation": _section(Propagation),
    "envelope": _section(Envelope),
    "scan": _section(Scan),
    "coupling": _coupling,
    "detection": _section(Detection),
    "sweep": _section(Sweep),
    "output": _section(Output),
}


def _plain(value):
    """JSON form of a resolved value; fields left at None are omitted."""
    if isinstance(value, BeamParameters):
        return {"kinetic_energy_ev": value.kinetic_energy, "photon_energy_ev": value.photon_energy}
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: _plain(v) for name, v in items if v is not None}
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """A resolved scenario configuration; a section the scenario does not read is None."""

    scenario: str
    output: Output
    beam: BeamParameters | None = None
    modulation: Modulation | None = None
    propagation: Propagation | None = None
    envelope: Envelope | None = None
    scan: Scan | None = None
    coupling: FlatBand | GaussianBand | Tabulated | Waveguide | None = None
    detection: Detection | None = None
    sweep: Sweep | None = None

    @classmethod
    def from_mapping(
        cls, scenario: str, data: dict, base_dir: Path | None = None
    ) -> "ScenarioConfig":
        """Resolve a config mapping; a relative table_path is read from base_dir (or cwd)."""
        if scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
        _check_keys(_need_mapping(data, "<config>"), "<config>", _SECTIONS)
        resolved = {name: _SECTIONS[name](section, name) for name, section in data.items()}
        missing = [s for s in _REQUIRED[scenario] if s not in data]
        if missing:
            raise ConfigError(
                f"scenario {scenario!r} requires section(s) {missing} in the config"
            )
        defaults = {"output": {}, **_OPTIONAL.get(scenario, {})}
        used = {
            name: resolved[name] if name in data else _SECTIONS[name](defaults[name], name)
            for name in (*_REQUIRED[scenario], *defaults)
        }
        if used["output"].directory is None:
            used["output"] = replace(used["output"], directory=f"out-{scenario}")
        coupling = used.get("coupling")
        if isinstance(coupling, Tabulated):
            table = Path(base_dir or Path.cwd()) / coupling.table_path
            used["coupling"] = replace(coupling, table_path=str(table))
        if scenario == "waveguide" and not isinstance(coupling, Waveguide):
            raise ConfigError("coupling.variant: scenario 'waveguide' needs variant 'waveguide'")
        if isinstance(coupling, Waveguide) and scenario != "waveguide" and not coupling.length_um:
            raise ConfigError("coupling.length_um is required here (lengths_um is a sweep)")
        if scenario == "doc-map" and used["modulation"].cutoff is not None:
            raise ConfigError(
                "modulation.cutoff: doc-map builds its ladders at the automatic cutoff"
            )
        if scenario == "detect" and None in (used["detection"].shots, used["detection"].seed):
            raise ConfigError("detection: scenario 'detect' requires shots and seed")
        env, mod = used.get("envelope"), used.get("modulation")
        if env is not None:  # dt_fs and window_fs against this beam, by the run's own checks
            cutoff = mod.cutoff if mod.cutoff is not None else auto_cutoff(mod.beta_abs)
            try:
                sampling_lattice(used["beam"], env.spec, cutoff, env.dt_fs, env.window_fs)
            except ValueError as exc:
                raise ConfigError(f"envelope: {exc}") from None
        return cls(scenario=scenario, **used)

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
            if payload.get("scenario") != scenario:
                raise ConfigError(
                    f"manifest was produced by scenario {payload.get('scenario')!r}, "
                    f"not {scenario!r}"
                )
            if payload.get("version") != __version__:
                raise ConfigError(
                    f"manifest was written by clcoherence {payload.get('version')!r}, "
                    f"this is {__version__!r}"
                )
            payload = payload["config"]
        return cls.from_mapping(scenario, payload, base_dir=path.resolve().parent)

    def to_mapping(self) -> dict:
        """The resolved config as JSON; from_mapping(scenario, to_mapping()) == self."""
        return {k: v for k, v in _plain(self).items() if k != "scenario"}

    def canonical_json(self) -> str:
        return json.dumps(self.to_mapping(), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
