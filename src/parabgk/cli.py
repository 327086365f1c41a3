"""Command line entry points around the mode drivers."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import MODES, parse_config
from .errors import SolverError
from .runner import run_comparison, run_mode


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--workers", type=int, default=None,
                        help="override the worker count for the corrected iteration")
    parser.add_argument("--out", default=None, help="override the output directory")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="parabgk",
        description="Parallel-in-time kinetic/fluid solver for 1D/3V BGK flows")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one mode and write its artifacts")
    _add_common(run_p)
    run_p.add_argument("--mode", choices=MODES, default=None,
                       help="override the mode from the config file")

    cmp_p = sub.add_parser("compare", help="run all modes and report timings")
    _add_common(cmp_p)

    args = parser.parse_args(argv)
    # The flags given, by the RunConfig field each overrides; `compare` has no --mode.
    flags = {"mode": getattr(args, "mode", None), "workers": args.workers,
             "out_dir": args.out}
    overrides = {field: value for field, value in flags.items() if value is not None}
    try:
        cfg = replace(parse_config(args.config), **overrides)
        if args.command == "run":
            out = run_mode(cfg)
            print(f"wrote {cfg.mode} artifacts to {out}")
        else:
            report = run_comparison(cfg)
            print(f"speedup {report['speedup']:.3f} over the serial fine run; "
                  f"suggested iteration bound {report['k_opt']}")
    except (SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
