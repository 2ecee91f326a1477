"""Output checks of one CLI invocation; any problem counts the invocation as failed.

Only physics results are read from the artifacts, never `runtime_s` or
`total_runtime_s`: timing is measured from outside the program.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

ORACLE_ROWS = 54
FFT_LADDER_TOL = 1.0e-8
PULSE_REL_TOL = 1.0e-3
NOISE_Z_MAX = 6.0


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def strict_json(text: str):
    """json.loads that rejects NaN and +/-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _rel_err(value: float, expected: float) -> float:
    return abs(value / expected - 1.0)


def check_summary(scenario: str, config: dict, summary: dict) -> list[str]:
    """Scenario-specific checks of a parsed summary.json against its config."""
    problems = []
    if scenario == "doc-slice":
        mismatch = summary["max_fft_ladder_mismatch"]
        if not mismatch <= FFT_LADDER_TOL:
            problems.append(f"max_fft_ladder_mismatch {mismatch!r} > {FFT_LADDER_TOL:g}")
    elif scenario == "pulse-shape":
        fwhm = config["envelope"]["fwhm_fs"]
        err = _rel_err(summary["field_envelope_fwhm_fs"], fwhm)
        if not err <= PULSE_REL_TOL:
            problems.append(f"field_envelope_fwhm_fs off the envelope FWHM by {err:.3e} relative")
        err = _rel_err(summary["envelope_to_intensity_ratio"], math.sqrt(2.0))
        if not err <= PULSE_REL_TOL:
            problems.append(f"envelope_to_intensity_ratio off sqrt(2) by {err:.3e} relative")
    elif scenario == "waveguide":
        for flag in ("spectral_fwhm_monotone_decreasing", "time_fwhm_monotone_increasing"):
            if summary[flag] is not True:
                problems.append(f"{flag} is {summary[flag]!r}")
    elif scenario == "detect":
        n_shots = config["detection"]["shots"]
        if summary["n_shots"] != n_shots:
            problems.append(f"n_shots {summary['n_shots']!r} != {n_shots}")
        # sample variance of the difference signal vs the exact quantum variance
        ratio = summary["empirical_noise_per_shot"] ** 2 / summary["noise_floor"]["variance_total"]
        z = (ratio - 1.0) / math.sqrt(2.0 / n_shots)
        if not abs(z) <= NOISE_Z_MAX:
            problems.append(f"empirical noise variance off the noise floor by z = {z:.2f}")
    elif scenario == "oracle-check":
        if not summary["passed"] == summary["rows"] == ORACLE_ROWS:
            problems.append(f"oracle passed {summary['passed']!r} of {summary['rows']!r} rows, "
                            f"expected {ORACLE_ROWS}")
    elif scenario == "doc-map":
        scan = config["scan"]
        d = summary["optimal_distance_mm"]
        if not scan["d_min_mm"] < d < scan["d_max_mm"]:
            problems.append(f"optimal distance {d!r} mm outside the scan range")
    elif scenario == "sweep":
        if len(summary["records"]) != len(config["sweep"]["values"]):
            problems.append("sweep records do not match the swept values")
    return problems


def check_invocation(scenario: str, config: dict, exit_code, out_dir: Path) -> list[str]:
    """Exit status, strict summary.json and the scenario's physics checks."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}"]
    try:
        summary = strict_json((out_dir / "summary.json").read_text())
        return check_summary(scenario, config, summary)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return [f"summary.json: {type(exc).__name__}: {exc}"]


def count_outputs(out_dir: Path) -> tuple[int, int]:
    """(CSV data rows, bytes of all files) written into out_dir."""
    rows = size = 0
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            size += path.stat().st_size
            if path.suffix == ".csv":
                with open(path, "rb") as fh:
                    rows += sum(1 for _ in fh) - 1
    return rows, size
