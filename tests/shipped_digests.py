"""Golden digests of the shipped configs' artifacts (`shipped_digests.json`).

The table holds the sha256 of every CSV and `summary.json` that the shipped
configs write, and those that the benchmark workloads' seed-1 configs write
(`tests/workloads/`, from perfbench's `workloads.generate(workload, 1)`; its
oracle-check config is `configs/oracle_check.json`'s computation).  The
workloads run inputs no shipped config covers: |beta| in [3.5, 4.5], distances
around the bunching optimum and the reference phase.  The table is keyed by numpy's version and its SIMD dispatch targets
(`np.show_config(mode="dicts")["SIMD Extensions"]`): those set the last bits
of float reductions, so another dispatch writes other bytes at round-off
level.  For a host with no entry the table also keeps numeric statistics of
each file, compared at the measured tolerance in `TOLERANCE`.

    PYTHONPATH=src python tests/shipped_digests.py

runs the eight shipped and eight workload configs and writes this host's digests, together with the
statistics, into the table.  It prints each config/file whose digest differs
from the entry it replaces (`moved`), or "no artifact moved".  A change that
moves an artifact reruns it and says in CHANGES.md which files moved and by
how much.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "shipped_digests.json"
# (scenario, config path from the repository root); the table keys each by file name
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
WORKLOADS = [
    ("doc-slice", "tests/workloads/spectral-00-doc-slice.json"),
    ("doc-slice", "tests/workloads/spectral-01-doc-slice.json"),
    ("waveguide", "tests/workloads/spectral-02-waveguide.json"),
    ("pulse-shape", "tests/workloads/spectral-03-pulse-shape.json"),
    ("detect", "tests/workloads/heterodyne-00-detect.json"),
    ("detect", "tests/workloads/heterodyne-01-detect.json"),
    ("doc-map", "tests/workloads/ladder-01-doc-map.json"),
    ("sweep", "tests/workloads/ladder-02-sweep.json"),
]
# Fallback tolerance, in units of a column's largest |x| (of a summary number's own
# |x|).  Between numpy 2.4.6's AVX-512 and AVX2 paths (NPY_DISABLE_CPU_FEATURES=
# "X86_V4 AVX512_ICL AVX512_SPR") the statistics moved by at most 8.8e-16 (the
# waveguide's field_10um.csv) and the summary numbers by at most 7.7e-16.
TOLERANCE = 1.0e-14


def host_key() -> dict:
    return {"numpy": np.__version__, "simd": np.show_config(mode="dicts")["SIMD Extensions"]}


def artifacts(out_dir: Path) -> list[Path]:
    return sorted(out_dir.glob("*.csv")) + [out_dir / "summary.json"]


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in artifacts(out_dir)}


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def statistics(out_dir: Path) -> dict:
    """Per CSV column of numbers: rows, sum and largest |x|; every leaf of summary.json."""
    stats = {}
    for path in artifacts(out_dir):
        if path.suffix == ".json":
            stats[path.name] = dict(_leaves(json.loads(path.read_text())))
            continue
        lines = path.read_bytes().decode().split("\r\n")[:-1]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        columns = {}
        for i, name in enumerate(header):
            try:
                x = np.array([float(row[i]) for row in rows])
            except ValueError:  # a string column: sweep's parameter, oracle's harmonics
                columns[name] = {"rows": len(rows), "cells": [row[i] for row in rows]}
                continue
            scale = float(np.max(np.abs(x))) if x.size else 0.0
            columns[name] = {"rows": len(rows), "sum": float(np.sum(x)), "max_abs": scale}
        stats[path.name] = columns
    return stats


def stored_digests(table: dict) -> dict | None:
    """This host's digests by config, or None when the table has no entry for it."""
    key = host_key()
    hosts = (h for h in table["hosts"] if {"numpy": h["numpy"], "simd": h["simd"]} == key)
    return next((h["digests"] for h in hosts), None)


def mismatches(config: str, expected: dict, actual: dict) -> list[str]:
    """Each statistic of `actual` that is off `expected` beyond TOLERANCE."""
    bad = []
    if sorted(expected) != sorted(actual):
        return [f"{config}: files {sorted(actual)} != {sorted(expected)}"]
    for name, want in expected.items():
        got = actual[name]
        if name == "summary.json":
            for key, w in want.items():
                g = got.get(key)
                numeric = isinstance(w, float) and isinstance(g, float)
                if not (numeric and abs(g - w) <= TOLERANCE * abs(w)) and g != w:
                    bad.append(f"{config}/{name}: {key} = {g!r}, stored {w!r}")
            continue
        for column, w in want.items():
            g = got.get(column, {})
            if "cells" in w or g.get("rows") != w["rows"]:
                if g != w:
                    bad.append(f"{config}/{name}: column {column} differs from the stored one")
                continue
            scale = w["max_abs"]
            if not (abs(g["max_abs"] - scale) <= TOLERANCE * scale
                    and abs(g["sum"] - w["sum"]) <= TOLERANCE * scale * w["rows"]):
                bad.append(f"{config}/{name}: column {column} {g} against stored {w}")
    return bad


def moved(before: dict | None, after: dict) -> list[str]:
    """"config/file" of each artifact whose digest in `after` is not the one in
    `before` (None: no entry, every artifact is new), a file gone included."""
    before = before or {}
    names = {(config, name) for table in (before, after) for config in table for name in table[config]}
    return [
        f"{config}/{name}"
        for config, name in sorted(names)
        if before.get(config, {}).get(name) != after.get(config, {}).get(name)
    ]


def run_shipped(scenario: str, config: str, out_dir: Path) -> None:
    from clcoherence.cli import main

    args = [scenario, "--config", str(ROOT / config), "--out", str(out_dir)]
    if main([*args, "--quiet"]) != 0:
        raise SystemExit(f"{config} failed")


def main() -> None:
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {"hosts": [], "statistics": {}}
    entry = {**host_key(), "digests": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario, config in SHIPPED + WORKLOADS:
            name = Path(config).name
            out = Path(tmp) / name
            run_shipped(scenario, config, out)
            entry["digests"][name] = digests(out)
            table["statistics"][name] = statistics(out)
    key = (entry["numpy"], entry["simd"])
    replaced = stored_digests(table)
    table["hosts"] = [h for h in table["hosts"] if (h["numpy"], h["simd"]) != key] + [entry]
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(SHIPPED + WORKLOADS)} configs for numpy {entry['numpy']} {entry['simd']} to {TABLE}")
    print("\n".join(f"moved: {name}" for name in moved(replaced, entry["digests"])) or "no artifact moved")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
