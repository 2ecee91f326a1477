"""Scenario configuration: JSON loading, resolution into typed sections, hashing.

A config file is a JSON object with the sections below.
`ScenarioConfig.from_mapping` resolves it once into frozen dataclasses:
every value is type- and range-checked (NaN and +/-Infinity are rejected), an
absent optional key takes the default written on its dataclass field here,
and the beam and the beam splitter are built as the library objects the run
uses, so their own checks fail at load as ConfigError.  The scenario runners
read these typed fields only.  The run's sizes are checked against LIMITS.

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
from typing import ClassVar, NamedTuple

import numpy as np

from . import __version__
from .constants import TWO_PI
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

# doc-slice compares F(n omega0) from the FFT with the ladder for |n| up to this
DOC_SLICE_HARMONICS = 24


class Limit(NamedTuple):
    what: str  # what the count counts
    limit: int
    keys: str  # the config keys that set the count


# Load-time size limits: from_mapping refuses a run whose count (ScenarioConfig.sizes)
# exceeds its row's limit.  README gives each row's headroom and measured worst case.
LIMITS = {
    "shots": Limit("shots", 10**6, "detection.shots"),
    "phase_sweep_points": Limit("phase-sweep points", 10**5, "detection.phase_sweep_points"),
    "lengths": Limit("lengths", 256, "coupling.lengths_um"),  # two CSVs each
    "sweep_values": Limit(  # sweep builds one ladder per value
        "ladder levels over the values", 10**6, "sweep.values, modulation.beta_abs"
    ),
    "scan": Limit(  # doc-map's coarse scan holds this many complex amplitudes
        "distances x ladder levels",
        10**7,
        "scan.coarse_step_mm, scan.d_min_mm, scan.d_max_mm, modulation.beta_abs",
    ),
    # omega_k = 2 pi (k * val) is rounded twice, so two steps of a lattice reaching
    # |omega| = W differ by up to 8 * 2**-53 * W: a lattice of at most this many
    # steps up to W keeps them uniform within the spectra module's 1e-9 check.
    "lattice_span": Limit(
        "lattice steps up to the top |omega|",
        10**6,
        "envelope.fwhm_fs, envelope.window_fs, beam.wavelength_nm",
    ),
    # doc-slice's synthesized density, zero-padded for its FFT
    "samples": Limit(
        "samples", 2**24, "envelope.fwhm_fs, envelope.window_fs, modulation.beta_abs"
    ),
    # the ladder of a run with an envelope: 4J+1 lines of its spectrum, and doc-slice's
    # phase matrix of P x (2J+1) <= 2048 x 2047 entries (P, samples a period, > 2J)
    "levels": Limit("ladder levels", 2047, "modulation.beta_abs"),
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


def _cutoff(beta_abs: float, key: str) -> int:
    """J = auto_cutoff(|beta|), the half-width of the ladder; key names |beta|'s source."""
    if not math.isfinite(2.0 * beta_abs):
        _fail(key, f"{beta_abs:g} is too large: 2|beta| overflows a float")
    return auto_cutoff(beta_abs)


def _levels(beta_abs: float, key: str) -> int:
    """2J + 1, the levels of the ladder pinem_ladder builds at |beta|."""
    return 2 * _cutoff(beta_abs, key) + 1


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
    """Reader of a non-empty list (of `length` entries) -> tuple."""

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

    @property
    def beta(self) -> complex:
        return self.beta_abs * np.exp(1j * self.beta_arg)


@dataclass(frozen=True)
class Propagation:
    distance_mm: float = _key(_NONNEGATIVE, 0.0)
    mode: str = _key(_string("exact", "quadratic"), "exact")


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
    # waveguide scenario only
    lengths_um: tuple[float, ...] | None = _key(_list(_POSITIVE), None)
    # representative coupler: a millimetre-scale one resolves sinc nulls inside
    # a single-harmonic line
    v_group_ratio: float = _key(_POSITIVE, 1.05)
    gvd_fs2_nm: float = _key(_REAL, 0.4)
    omega_match_over_omega0: float = _key(_POSITIVE, 1.0)
    variant: str = field(default="waveguide", init=False)

    def __post_init__(self) -> None:
        if (self.length_um is None) == (self.lengths_um is None):
            raise ValueError("give exactly one of length_um or lengths_um")


def _envelope(value, path: str) -> EnvelopeSpec:
    kinds = _string("infinite", "gaussian")
    readers = {"kind": kinds, "fwhm_fs": _POSITIVE, "window_fs": _POSITIVE}
    return _build(EnvelopeSpec, path, _read(value, path, readers))


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

    BAND_SIGMAS: ClassVar[float] = 6.0  # detect reads the band center +/- 6 sigma

    def __post_init__(self) -> None:
        if not self.BAND_SIGMAS * self.sigma_over_omega0 < self.center_over_omega0:
            raise ValueError(
                f"sigma_over_omega0 must be below center_over_omega0 / {self.BAND_SIGMAS:g}: "
                f"the band center - {self.BAND_SIGMAS:g} sigma must lie above 0"
            )


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
    "envelope": _envelope,
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
    envelope: EnvelopeSpec | None = None
    scan: Scan | None = None
    coupling: FlatBand | GaussianBand | Tabulated | Waveguide | None = None
    detection: Detection | None = None
    sweep: Sweep | None = None

    @property
    def band(self) -> tuple[float, float]:
        """(lo, hi) in rad/fs: the band a waveguide, pulse-shape or detect run reads."""
        w0 = self.beam.omega0
        if self.scenario == "waveguide":
            return w0 - 0.06, w0 + 0.06  # around the fundamental; resolves all lines
        if self.scenario == "pulse-shape":
            return 0.5 * w0, 1.5 * w0
        ref = self.detection.reference
        center, half = ref.center_over_omega0 * w0, ref.BAND_SIGMAS * (ref.sigma_over_omega0 * w0)
        return center - half, center + half

    @property
    def lattice_range(self) -> tuple[float, float]:
        """(low, high) in rad/fs: the part of its spectral lattice a run with an envelope
        reads.  doc-slice reads |omega| <= 24 omega0, waveguide and pulse-shape 0..hi.
        detect's noise floor reads F at every sum of two band points, up to 2 hi, and at
        every difference, down to lo - hi: that end is counted in whole lattice steps,
        and half a step more, so that the lattice point below each difference is kept."""
        if self.scenario == "doc-slice":
            top = DOC_SLICE_HARMONICS * self.beam.omega0
            return -top, top
        lo, hi = self.band
        if self.scenario != "detect":
            return 0.0, hi
        cutoff = _cutoff(self.modulation.beta_abs, "modulation.beta_abs")
        lattice = sampling_lattice(self.beam, self.envelope, cutoff)
        step = TWO_PI / (lattice.n_fft * lattice.dt)
        return -(math.ceil((hi - lo) / step) + 0.5) * step, 2.0 * hi

    def sizes(self) -> dict:
        """The count of every LIMITS row this run has, by row name."""
        det, mod, env, scan = self.detection, self.modulation, self.envelope, self.scan
        sizes = {}
        if det is not None:
            sizes.update(shots=det.shots, phase_sweep_points=det.phase_sweep_points)
        if getattr(self.coupling, "lengths_um", None):
            sizes["lengths"] = len(self.coupling.lengths_um)
        if self.sweep is not None:
            values = self.sweep.values
            if self.sweep.parameter == "beta_abs":
                sizes["sweep_values"] = sum(_levels(value, "sweep.values") for value in values)
            else:
                sizes["sweep_values"] = len(values) * _levels(mod.beta_abs, "modulation.beta_abs")
        if self.scenario == "doc-map":
            distances = math.ceil((scan.d_max_mm - scan.d_min_mm) / scan.coarse_step_mm + 0.5)
            sizes["scan"] = distances * _levels(mod.beta_abs, "modulation.beta_abs")
        if env is not None:  # window_fs against this beam, by the run's own checks
            cutoff = _cutoff(mod.beta_abs, "modulation.beta_abs")
            sizes["levels"] = 2 * cutoff + 1
            try:
                lattice = sampling_lattice(self.beam, env, cutoff)
            except ValueError as exc:
                raise ConfigError(f"envelope: {exc}") from None
            # the steps from 0 to the top, the range's high end in every run
            steps = self.lattice_range[1] / self.beam.omega0 * lattice.pad * lattice.periods
            sizes["lattice_span"] = int(steps)
            if self.scenario == "doc-slice":  # the one run that synthesizes the density
                sizes["samples"] = lattice.n_fft
        return sizes

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
        if scenario == "detect" and None in (used["detection"].shots, used["detection"].seed):
            raise ConfigError("detection: scenario 'detect' requires shots and seed")
        cfg = cls(scenario=scenario, **used)
        if scenario == "waveguide" and not cfg.band[0] > 0.0:
            raise ConfigError("beam: the waveguide band omega0 +/- 0.06 rad/fs reaches 0 rad/fs")
        for name, count in cfg.sizes().items():
            what, limit, keys = LIMITS[name]
            if not count <= limit:
                raise ConfigError(f"{keys}: {count} {what} exceed the limit {limit}")
        if cfg.modulation is not None:  # level -J must keep a positive kinetic energy
            key, betas = "modulation.beta_abs", (cfg.modulation.beta_abs,)
            if cfg.sweep is not None and cfg.sweep.parameter == "beta_abs":
                key, betas = "sweep.values", cfg.sweep.values
            cutoff = _cutoff(max(betas), key)
            if not cutoff * cfg.beam.photon_energy < cfg.beam.kinetic_energy:
                raise ConfigError(
                    f"{key}: the ladder's lowest level, {cutoff} photons below the beam, "
                    "has no kinetic energy left"
                )
        tags = [f"{length:g}" for length in getattr(cfg.coupling, "lengths_um", None) or ()]
        if len(set(tags)) < len(tags):  # waveguide names each length's two CSVs by its tag
            tag = next(t for t in tags if tags.count(t) > 1)
            raise ConfigError(f"coupling.lengths_um: two lengths would write field_{tag}um.csv")
        return cfg

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
