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


def _apply_overrides(cfg, args, mode=None):
    if mode is not None:
        cfg = replace(cfg, mode=mode)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


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
    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            cfg = _apply_overrides(cfg, args, mode=args.mode)
            out = run_mode(cfg)
            print(f"wrote {cfg.mode} artifacts to {out}")
        else:
            cfg = _apply_overrides(cfg, args)
            report = run_comparison(cfg)
            print(f"speedup {report.speedup:.3f} over the serial fine run; "
                  f"suggested iteration bound {report.k_opt}")
    except (SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
