"""Command-line entry point.

    termspread run --config experiment.json [--out DIR] [--format csv|markdown]

Exit codes: 0 success, otherwise the failing error's ``exit_code``: 1 for a
configuration or input-data error, 2 for a computation error (solver,
selection or scoring failure) or an output directory or file that cannot be
written. The output directory is made before the computation starts, and
each directory made for a run that then fails is removed again while it is
empty, innermost first.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .errors import IoError, TermSpreadError
from .experiment import ExperimentConfig, emit_all, make_output_dir, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termspread",
        description="Yield-spread recession-forecasting experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a configured experiment and emit outputs")
    run.add_argument("--config", required=True, help="path to the experiment JSON")
    run.add_argument("--out", default=None, help="output directory (overrides config)")
    run.add_argument(
        "--format",
        choices=("csv", "markdown"),
        default="csv",
        help="table file format",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_json(args.config)
        out_dir = args.out if args.out is not None else config.output_dir
        made = make_output_dir(out_dir)
        try:
            result = run_experiment(config)
        except BaseException:
            for path in made:  # innermost first; one that is not empty stays
                try:
                    os.rmdir(path)
                except OSError:
                    break
            raise
        written = emit_all(result, out_dir, fmt=args.format)
    except TermSpreadError as exc:
        failed = exc.exit_code == 2 and not isinstance(exc, IoError)
        prefix = "computation failed" if failed else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
