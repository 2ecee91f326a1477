"""Command-line entry point.

    clcoherence <scenario> --config cfg.json [--out DIR] [--seed N]
                [--gnuplot-stub] [--quiet]

Exit codes: 0 success, 2 configuration error, 3 physics guard tripped,
4 oracle mismatch.
"""
from __future__ import annotations

import argparse
import logging
import sys

from .config import SCENARIOS, ScenarioConfig
from .errors import ConfigError, OracleMismatchError, PhysicsGuardError
from .scenarios import RunOptions, run_scenario

log = logging.getLogger("clcoherence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clcoherence",
        description=(
            "Coherence spectra, waveguide coupling, and heterodyne detection of "
            "cathodoluminescence from laser-modulated electrons"
        ),
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="what to compute")
    parser.add_argument(
        "--config",
        required=True,
        help="JSON config file (or a manifest.json from a previous run)",
    )
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the shot-sampling seed")
    parser.add_argument(
        "--gnuplot-stub",
        action="store_true",
        help="also write ready-to-run gnuplot scripts next to the CSVs",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        cfg = ScenarioConfig.from_file(args.scenario, args.config)
        gnuplot = args.gnuplot_stub or cfg.output.gnuplot
        options = RunOptions(seed_override=args.seed, gnuplot=gnuplot)
        result = run_scenario(cfg, args.out or cfg.output.directory, options)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsGuardError as exc:
        print(f"physics guard: {exc}", file=sys.stderr)
        return 3
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 4
    print(f"{args.scenario}: wrote {len(result.outputs)} files to {result.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
