"""Outside-in tracing of clcoherence's layers and the per-layer metrics.

Each traced function is replaced at every module attribute that holds it
(the attribute its callers look up at call time), so the program itself is
left unchanged.  The layers are the package's modules; kinematics does
microseconds of work and is not traced.
"""
from __future__ import annotations

import importlib
import sys

from spans import INVOCATION, NAME, Tracer, self_times, summarize

SCENARIOS = ("doc-slice", "waveguide", "pulse-shape", "detect", "oracle-check", "doc-map", "sweep")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (module, attribute, span name, sizes recorded on the span)
FUNCTIONS = (
    ("estate", "synthesize_density", "estate.synthesize_density",
     lambda a, k, r: {"samples": int(r.samples.size)}),
    ("spectra", "density_spectrum", "spectra.density_spectrum",
     lambda a, k, r: {"points": int(r.omega_grid.size)}),
    ("spectra", "mean_field", "spectra.mean_field", None),
    ("spectra", "time_domain_field", "spectra.time_domain_field",
     lambda a, k, r: {"terms": int(r.t.size) * int(_arg(a, k, 0, "field").omega_grid.size)}),
    ("spectra", "doc_map", "spectra.doc_map", None),
    ("spectra", "ladder_overlap", "spectra.ladder_overlap", None),
    ("detection", "noise_floor_terms", "detection.noise_floor_terms",
     lambda a, k, r: {"pairs": int(_arg(a, k, 1, "reference").omega_grid.size) ** 2}),
    ("detection", "sample_shots", "detection.sample_shots",
     lambda a, k, r: {"draws": 2 * int(r.n_shots)}),
    ("oracle", "run_test_matrix", "oracle.run_test_matrix",
     lambda a, k, r: {"rows": len(r), "passed": sum(1 for row in r if row.passed)}),
    ("oracle", "evolve", "oracle.evolve",
     lambda a, k, r: {"dim": int(_arg(a, k, 0, "space").dimension)}),
    ("oracle", "build_generator", "oracle.build_generator", None),
    ("oracle", "observables", "oracle.observables", None),
    ("scenarios", "run_scenario", lambda a, k: "scenarios.run_scenario." + a[0].scenario, None),
)

# Per-layer metrics reported by the traced pass: (name, unit).
PER_LAYER = (
    ("spectra.time_domain_field.s", "s"),
    ("spectra.time_domain_field.terms", "count"),
    ("spectra.density_spectrum.s", "s"),
    ("spectra.density_spectrum.points", "count"),
    ("estate.synthesize_density.s", "s"),
    ("estate.synthesize_density.samples", "count"),
    ("spectra.mean_field.s", "s"),
    ("spectra.doc_map.s", "s"),
    ("spectra.doc_map.calls", "count"),
    ("spectra.ladder_overlap.calls", "count"),
    ("detection.noise_floor_terms.s", "s"),
    ("detection.noise_floor_terms.pairs", "count"),
    ("detection.sample_shots.s", "s"),
    ("detection.sample_shots.draws", "count"),
    ("oracle.evolve.s", "s"),
    ("oracle.build_generator.s", "s"),
    ("oracle.observables.s", "s"),
    ("oracle.evolve.calls", "count"),
    ("oracle.evolve.dim_sum", "count"),
    ("oracle.rows_passed_frac", "ratio"),
    ("scenarios.write_s", "s"),
    ("scenarios.rows_written", "count"),
    ("scenarios.bytes_written", "bytes"),
    ("coupling.amplitude.calls", "count"),
    ("coupling.amplitude.s", "s"),
    *((f"scenarios.run_scenario.{name}.s", "s") for name in SCENARIOS),
    ("config.from_file.s", "s"),
    ("trace_overhead_s", "s"),
)

# Size counts that must repeat exactly across passes and seeds.
SIZE_COUNTS = (
    "estate.synthesize_density.samples",
    "spectra.density_spectrum.points",
    "spectra.time_domain_field.terms",
    "detection.noise_floor_terms.pairs",
    "detection.sample_shots.draws",
    "oracle.evolve.dim_sum",
    "scenarios.rows_written",
)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "clcoherence" or name.startswith("clcoherence.")]


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every traced layer function; returns (undo list, targets not found)."""
    importlib.import_module("clcoherence.cli")
    modules = _package_modules()
    undo, missing = [], []

    def replace(owner, key, new):
        undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    for module_name, attr, span_name, count in FUNCTIONS:
        original = getattr(sys.modules.get(f"clcoherence.{module_name}"), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        traced = tracer.wrap(span_name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replace(module, key, traced)

    coupling = sys.modules.get("clcoherence.coupling")
    models = [c for c in (vars(coupling).values() if coupling else ())
              if isinstance(c, type) and c.__module__ == coupling.__name__ and "amplitude" in vars(c)]
    if not models:
        missing.append("coupling.*.amplitude")
    for cls in models:
        replace(cls, "amplitude", tracer.wrap("coupling.amplitude", vars(cls)["amplitude"]))

    config_cls = getattr(sys.modules.get("clcoherence.config"), "ScenarioConfig", None)
    if config_cls is None or not isinstance(vars(config_cls).get("from_file"), classmethod):
        missing.append("config.ScenarioConfig.from_file")
    else:
        from_file = vars(config_cls)["from_file"].__func__
        replace(config_cls, "from_file", classmethod(tracer.wrap("config.from_file", from_file)))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one traced pass, except those counted from files."""
    summary = summarize(spans)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def count(name, key):
        return summary.get(name, {}).get("counts", {}).get(key, 0)

    rows = count("oracle.run_test_matrix", "rows")
    out = {
        "spectra.time_domain_field.s": self_s("spectra.time_domain_field"),
        "spectra.time_domain_field.terms": count("spectra.time_domain_field", "terms"),
        "spectra.density_spectrum.s": self_s("spectra.density_spectrum"),
        "spectra.density_spectrum.points": count("spectra.density_spectrum", "points"),
        "estate.synthesize_density.s": self_s("estate.synthesize_density"),
        "estate.synthesize_density.samples": count("estate.synthesize_density", "samples"),
        "spectra.mean_field.s": self_s("spectra.mean_field"),
        "spectra.doc_map.s": self_s("spectra.doc_map"),
        "spectra.doc_map.calls": calls("spectra.doc_map"),
        "spectra.ladder_overlap.calls": calls("spectra.ladder_overlap"),
        "detection.noise_floor_terms.s": self_s("detection.noise_floor_terms"),
        "detection.noise_floor_terms.pairs": count("detection.noise_floor_terms", "pairs"),
        "detection.sample_shots.s": self_s("detection.sample_shots"),
        "detection.sample_shots.draws": count("detection.sample_shots", "draws"),
        "oracle.evolve.s": self_s("oracle.evolve"),
        "oracle.build_generator.s": self_s("oracle.build_generator"),
        "oracle.observables.s": self_s("oracle.observables"),
        "oracle.evolve.calls": calls("oracle.evolve"),
        "oracle.evolve.dim_sum": count("oracle.evolve", "dim"),
        "oracle.rows_passed_frac": count("oracle.run_test_matrix", "passed") / rows if rows else 0.0,
        "scenarios.write_s": sum(v["self_s"] for k, v in summary.items()
                                 if k.startswith("scenarios.run_scenario.")),
        "coupling.amplitude.calls": calls("coupling.amplitude"),
        "coupling.amplitude.s": self_s("coupling.amplitude"),
        "config.from_file.s": self_s("config.from_file"),
    }
    for name in SCENARIOS:
        out[f"scenarios.run_scenario.{name}.s"] = summary.get(
            f"scenarios.run_scenario.{name}", {}).get("total_s", 0.0)
    return out


def dominant_layers(spans: list[list]) -> dict:
    """Per invocation: [layer, self seconds] pairs, largest first.

    The self time of run_scenario (row building and writing) is named
    `scenarios.write`.
    """
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        if name.startswith("scenarios.run_scenario."):
            name = "scenarios.write"
        layers = out.setdefault(span[INVOCATION], {})
        layers[name] = layers.get(name, 0.0) + own
    return {inv: sorted(layers.items(), key=lambda kv: -kv[1]) for inv, layers in out.items()}
