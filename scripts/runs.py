#!/usr/bin/env python3
"""Fixed runs of the benchmark configuration, one subcommand each.

Each prints one JSON object. Runs are deterministic, so a figure that
differs from an earlier one is a real behaviour change, not noise.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from dstlab import lab, network  # noqa: E402
from dstlab.config import MEMORIZATION, benchmark_config  # noqa: E402


def baseline(args) -> dict:
    """Plain cross-entropy (ce_only) in the memorization regime. Its ensemble
    `final` is frozen in tests/test_acceptance.py as criterion 5's baseline."""
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp()) / "ce-baseline"
    run_dir = lab.run(benchmark_config(ce_only=True, **MEMORIZATION), out)
    return {"run_dir": str(run_dir), "accuracy": lab.load_summary(run_dir)["accuracy"]}


def sha256_of(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reference(args) -> dict:
    """The benchmark run, with `digest`: the SHA-256 over the bytes of
    summary.json and of checkpoints/*.json, in name order, and
    `scatter_digest`: the same over scatter/*.csv. `blas_threads` (the
    run's BLAS thread count: 1, or null when numpy's OpenBLAS setter is
    unavailable) and `numpy` (its version) say what produced it."""
    overrides = {} if args.noise_rate is None else {"noise_rate": args.noise_rate}
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp()) / "reference"
    cfg = benchmark_config(**overrides)
    threads = None if network.blas_threads() is None else 1
    run_dir = lab.run(cfg, out)
    summary = lab.load_summary(run_dir)
    shown = {key: summary[key] for key in ("accuracy", "final_branches", "fallback_epochs")}
    return {
        "run_dir": str(run_dir),
        **shown,
        "digest": sha256_of(
            [run_dir / "summary.json", *sorted((run_dir / "checkpoints").glob("*.json"))]
        ),
        "scatter_digest": sha256_of(sorted((run_dir / "scatter").glob("*.csv"))),
        "blas_threads": threads,
        "numpy": np.__version__,
    }


def ablation(args) -> dict:
    """Trailing accuracy of the full pipeline, no-mixup and single-network at
    one noise rate, and each variant's drop against full, to four decimals."""
    parent = Path(args.out) if args.out else Path(tempfile.mkdtemp())
    trailing = {}
    for name in ("full", "no_mixup", "single_network"):
        flags = {} if name == "full" else {name: True}
        run_dir = lab.run(benchmark_config(noise_rate=args.noise_rate, **flags), parent / name)
        trailing[name] = lab.load_summary(run_dir)["accuracy"]["ensemble"]["last10_mean"]
    full = trailing["full"]
    return {
        "noise_rate": args.noise_rate,
        "trailing_accuracy": {k: round(v, 4) for k, v in trailing.items()},
        "delta_vs_full": {k: round(full - v, 4) for k, v in trailing.items() if k != "full"},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    fresh = "run directory (default: a fresh temporary directory)"
    outs = {baseline: fresh, reference: fresh, ablation: "parent directory for the three runs"}
    for command, out_help in outs.items():
        p = sub.add_parser(command.__name__, help=command.__doc__, description=command.__doc__)
        p.set_defaults(run=command)
        p.add_argument("--out", default=None, help=out_help)
    sub.choices["reference"].add_argument(
        "--noise-rate", type=float, default=None, help="override the benchmark noise rate"
    )
    sub.choices["ablation"].add_argument(
        "--noise-rate", type=float, default=0.8, help="label noise rate (default 0.8)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    print(json.dumps(args.run(args), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
