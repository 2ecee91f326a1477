"""clcoherence benchmark: seeded CLI workloads timed from outside the program.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
Each pass is a fresh process (passrun.py) that imports clcoherence (set-up) and
runs the workload's CLI invocations one after another: a closed loop with
one client.  Passes repeat until --seconds is used up, and each metric is the
median over passes.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 untraced and traced passes alternate and the per-layer metrics of
the traced passes are printed, with trace_overhead_s the difference of their
median run_s.  Every invocation's outputs are checked; the last stdout line
is the JSON result and the exit code is 1 if any check failed.  With
--workload all the three workloads run in turn, each printing its own block.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

MIN_ROUNDS = 2
PASS_TIMEOUT_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    """Machine environment with the checkout's src/ first and no thread knob."""
    env = dict(os.environ)
    env.pop("CLCOHERENCE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def make_plan(workload: str, seed: int, work_dir: Path) -> list[dict]:
    """Generate, validate and write the workload's configs."""
    from clcoherence.config import ScenarioConfig

    plan = workloads.generate(workload, seed)
    for inv in plan:
        ScenarioConfig.from_mapping(inv["scenario"], inv["config"])
        path = work_dir / f"{inv['id']}.json"
        path.write_text(json.dumps(inv["config"], indent=2))
        inv["config_path"] = str(path)
    return plan


def run_pass(plan_path: Path, work_dir: Path, index: int, traced: bool) -> dict:
    """One pass process; returns its result, or {"error": ...} if it died."""
    out_dir = work_dir / f"pass{index}"
    result_path = work_dir / f"pass{index}.json"
    log_path = work_dir / f"pass{index}.log"
    env = child_env()
    with open(log_path, "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "passrun.py"), str(plan_path), str(out_dir),
             str(result_path), repr(launched), "1" if traced else "0"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log)
        try:
            code = proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    shutil.rmtree(out_dir, ignore_errors=True)
    if code != 0 or not result_path.is_file():
        tail = log_path.read_text(errors="replace")[-2000:]
        return {"error": f"pass process exit {code}: {tail}"}
    return json.loads(result_path.read_text())


def median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # run the cleanup below (and stop a running pass) when asked to terminate
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "clcoherence" / "__init__.py").is_file():
        print(f"perfbench: no clcoherence sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import clcoherence

    if Path(clcoherence.__file__).resolve().parent != SRC / "clcoherence":
        print(f"perfbench: imported {clcoherence.__file__}, not the checkout's", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        SCRATCH.mkdir(exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
        try:
            code = max(code, bench(name, args, work_dir))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            try:
                SCRATCH.rmdir()
            except OSError:
                pass
    return code


def bench(workload: str, args, work_dir: Path) -> int:
    """Run one workload for args.seconds and print its metrics and result line."""
    plan = make_plan(workload, args.seed, work_dir)
    plan_path = work_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    # compile bytecode and warm the file cache before anything is timed
    subprocess.run([sys.executable, "-c", "import clcoherence.cli"], cwd=ROOT,
                   env=child_env(), check=True, timeout=PASS_TIMEOUT_S)

    modes = (False, True) if args.trace else (False,)
    passes = {False: [], True: []}
    errors = []
    deadline = time.monotonic() + args.seconds
    rounds = 0
    while not errors:
        start = time.monotonic()
        for traced in modes:
            result = run_pass(plan_path, work_dir, len(passes[False]) + len(passes[True]), traced)
            if "error" in result:
                errors.append(result["error"])
                break
            passes[traced].append(result)
        rounds += 1
        if rounds >= MIN_ROUNDS and time.monotonic() + (time.monotonic() - start) > deadline:
            break

    all_passes = passes[False] + passes[True]
    invs = [inv for p in all_passes for inv in p["invocations"]]
    attempted = len(invs) + (len(plan) if errors else 0)
    failed = sum(1 for inv in invs if inv["problems"]) + (len(plan) if errors else 0)
    problems = errors + [f"{inv['id']}: {p}" for inv in invs for p in inv["problems"]]

    for p in all_passes:
        p["rows_written"] = sum(inv["rows"] for inv in p["invocations"])
        p["bytes_written"] = sum(inv["bytes"] for inv in p["invocations"])
    if len({p["rows_written"] for p in all_passes}) > 1:
        problems.append("rows written differ between passes")

    untraced = passes[False]
    e2e = {name: median([p[name] for p in untraced]) for name, _ in END_TO_END}
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    detail = {"workload": workload,
              "per_pass": {name: [p[name] for p in untraced] for name, _ in END_TO_END},
              "provenance": provenance(args.seed), "scenarios": scenario_table(untraced)}

    if args.trace:
        metrics = traced_metrics(passes[True], e2e["run_s"], problems, detail)

    failed_frac = failed / attempted
    print(f"workload {workload}, seed {args.seed}: {len(untraced)} untraced passes"
          + (f", {len(passes[True])} traced" if args.trace else "")
          + f", {attempted} invocations, {failed} failed")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_frac':40s} {failed_frac:.6g} ratio")
    for problem in problems:
        print(f"  FAILED {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def traced_metrics(traced: list[dict], untraced_run_s: float, problems: list, detail: dict) -> dict:
    """Per-layer metrics: medians over traced passes; size counts must repeat."""
    per_pass = [layers.layer_metrics(p["spans"]) for p in traced]
    for p, m in zip(traced, per_pass):
        m["scenarios.rows_written"] = p["rows_written"]
        m["scenarios.bytes_written"] = p["bytes_written"]
        m["trace_overhead_s"] = p["run_s"] - untraced_run_s
    for name in layers.SIZE_COUNTS:
        if len({m[name] for m in per_pass}) > 1:
            problems.append(f"size count {name} differs between passes")
    detail["traced_passes"] = len(traced)
    if traced:
        detail["untraced_targets"] = traced[0]["untraced_targets"]
        detail["dominant_layers"] = {
            inv: [[name, round(s, 4)] for name, s in ranked[:3]]
            for inv, ranked in layers.dominant_layers(traced[-1]["spans"]).items()
        }
    return {name: {"value": median([m[name] for m in per_pass]), "unit": unit}
            for name, unit in layers.PER_LAYER}


def scenario_table(passes: list[dict]) -> dict:
    """Per invocation: median wall and CPU seconds, RSS, rows and bytes."""
    table = {}
    for inv in (passes[0]["invocations"] if passes else []):
        runs = [i for p in passes for i in p["invocations"] if i["id"] == inv["id"]]
        table[inv["id"]] = {
            "wall_s": median([r["wall_s"] for r in runs]),
            "cpu_s": median([r["cpu_s"] for r in runs]),
            "peak_rss_mb_so_far": median([r["peak_rss_mb_so_far"] for r in runs]),
            "rows": inv["rows"],
            "bytes": inv["bytes"],
        }
    return table


if __name__ == "__main__":
    sys.exit(main())
