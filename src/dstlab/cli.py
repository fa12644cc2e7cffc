"""Command-line surface: run experiments, locate dumps, diff summaries."""

from __future__ import annotations

import argparse
import json
import sys

from . import lab
from .config import load_config
from .errors import ConfigError, LabError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstlab",
        description="Noisy-label training laboratory: selection-driven "
        "two-network training on synthetic blob datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment from a JSON config")
    p_run.add_argument("config", help="path to a JSON config file")

    p_dump = sub.add_parser(
        "dump-scatter", help="print the path of a stored loss-scatter CSV"
    )
    p_dump.add_argument("run_dir", help="run directory produced by `run`")
    p_dump.add_argument("epoch", type=int, help="1-indexed epoch number")
    p_dump.add_argument("net", help="net1 or net2")

    p_cmp = sub.add_parser(
        "compare", help="print per-metric deltas between two run summaries"
    )
    p_cmp.add_argument("summary_a", help="summary.json path or run directory")
    p_cmp.add_argument("summary_b", help="summary.json path or run directory")
    return parser


def exit_code(action) -> int:
    """Call `action` and return the exit code. A ConfigError prints one
    `config error:` line on stderr and gives 1, any other LabError one
    `error:` line and gives 2."""
    try:
        action()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _execute(args: argparse.Namespace) -> None:
    if args.command == "run":
        print(lab.run(load_config(args.config)))
    elif args.command == "dump-scatter":
        print(lab.dump_scatter(args.run_dir, args.epoch, args.net))
    elif args.command == "compare":
        deltas = lab.compare(args.summary_a, args.summary_b)
        print(json.dumps(deltas, indent=2, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(lambda: _execute(args))


if __name__ == "__main__":
    sys.exit(main())
