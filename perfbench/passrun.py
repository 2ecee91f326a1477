"""One benchmark pass, run in a fresh process by run.py.

    python3 passrun.py PLAN OUT_DIR RESULT LAUNCHED TRACE

Set-up is the time from LAUNCHED (the parent's time.monotonic() just before
it started this process; CLOCK_MONOTONIC is system-wide) until
`import clcoherence.cli`, numpy and scipy included, returns.  The plan's CLI
invocations then run one after another in this process, as a closed loop with
one client.  Outputs are checked and counted after each call, outside the
timed intervals.  With TRACE=1 every layer function is wrapped and the spans
are written into RESULT with the rest of the pass.
"""
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    plan_path, out_root, result_path, launched, trace = argv
    import clcoherence.cli as cli

    setup_s = time.monotonic() - float(launched)

    import checks
    import layers
    from spans import Tracer

    plan = json.loads(Path(plan_path).read_text())
    tracer = missing = None
    if trace == "1":
        tracer = Tracer()
        _, missing = layers.install(tracer)

    run_s = cpu_s = 0.0
    invocations = []
    for inv in plan:
        out_dir = Path(out_root) / inv["id"]
        args = [inv["scenario"], "--config", inv["config_path"], "--out", str(out_dir), "--quiet"]
        if tracer is not None:
            tracer.invocation = inv["id"]
        error = None
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # one invocation's crash is recorded as its failure
            code, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        run_s += wall
        cpu_s += cpu
        problems = [error] if error else checks.check_invocation(
            inv["scenario"], inv["config"], code, out_dir)
        rows, size = checks.count_outputs(out_dir) if out_dir.is_dir() else (0, 0)
        shutil.rmtree(out_dir, ignore_errors=True)
        invocations.append({
            "id": inv["id"],
            "scenario": inv["scenario"],
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb_so_far": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rows": rows,
            "bytes": size,
            "problems": problems,
        })

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": invocations,
        "untraced_targets": missing,
        "spans": tracer.spans if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
