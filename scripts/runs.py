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

from dstlab import cli, lab, network  # noqa: E402
from dstlab.config import MEMORIZATION, benchmark_config  # noqa: E402

# The noise rate of the `ablation` runs, at which removing MixUp or the
# second network costs trailing accuracy even at the ceiling (README,
# "Benchmark notes").
ABLATION_NOISE_RATE = 0.8


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


def without_gmm(report_path: Path) -> bytes:
    """A report re-dumped with every `selection.<net>.gmm` block dropped."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for entry in (report["selection"] or {}).values():
        entry.pop("gmm", None)
    return json.dumps(report, sort_keys=True).encode()


def without_config(summary_path: Path) -> bytes:
    """summary.json re-dumped as the writer dumps it, without its `config` block."""
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    del summary["config"]
    return (json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n").encode()


def digests(run_dir: Path) -> dict:
    """`digest`: the SHA-256 over the bytes of summary.json and of
    checkpoints/*.json, in name order, `scatter_digest`: the same over
    scatter/*.csv, and `files_digest`: the same over dataset.csv,
    manifest.json and reports/*.json, in that order.

    `summary_digest` is the same over summary.json alone, `outcome_digest`
    over summary.json `without_config`, and `branches_digest` over the
    reports in name order, each `without_gmm`. Unlike the first three, they
    hold no float that a different BLAS build or core moves in its last
    bits; a new or removed setting moves `summary_digest` alone of them."""
    reports = sorted((run_dir / "reports").glob("*.json"))
    branches = hashlib.sha256()
    for path in reports:
        branches.update(without_gmm(path))
    return {
        "summary_digest": sha256_of([run_dir / "summary.json"]),
        "outcome_digest": hashlib.sha256(without_config(run_dir / "summary.json")).hexdigest(),
        "branches_digest": branches.hexdigest(),
        "digest": sha256_of(
            [run_dir / "summary.json", *sorted((run_dir / "checkpoints").glob("*.json"))]
        ),
        "scatter_digest": sha256_of(sorted((run_dir / "scatter").glob("*.csv"))),
        "files_digest": sha256_of(
            [run_dir / "dataset.csv", run_dir / "manifest.json", *reports]
        ),
    }


def reference(args) -> dict:
    """The benchmark run, with its run-file `digests`. `blas_threads` (the
    run's BLAS thread count: 1, or null when numpy's OpenBLAS setter is
    unavailable) and `numpy` (its version) say what produced it."""
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp()) / "reference"
    threads = None if network.blas_threads() is None else 1
    run_dir = lab.run(benchmark_config(), out)
    summary = lab.load_summary(run_dir)
    shown = {key: summary[key] for key in ("accuracy", "final_branches", "fallback_epochs")}
    return {
        "run_dir": str(run_dir),
        **shown,
        **digests(run_dir),
        "blas_threads": threads,
        "numpy": np.__version__,
    }


def ablation(args) -> dict:
    """Trailing accuracy of the full pipeline, no-mixup and single-network at
    noise rate `ABLATION_NOISE_RATE`, and each variant's drop against full,
    to four decimals."""
    variants = {"full": {}, "no_mixup": {"no_mixup": True}, "single_network": {"single_network": True}}
    configs = {
        name: benchmark_config(noise_rate=ABLATION_NOISE_RATE, **flags)
        for name, flags in variants.items()
    }
    parent = Path(args.out) if args.out else Path(tempfile.mkdtemp())
    trailing = {}
    for name, cfg in configs.items():
        run_dir = lab.run(cfg, parent / name)
        trailing[name] = lab.load_summary(run_dir)["accuracy"]["ensemble"]["last10_mean"]
    full = trailing["full"]
    return {
        "noise_rate": ABLATION_NOISE_RATE,
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
    return parser


def main(argv=None) -> int:
    """Print the subcommand's JSON; errors are reported, and give the exit
    code, as `dstlab` does (`cli.exit_code`)."""
    args = build_parser().parse_args(argv)
    return cli.exit_code(lambda: print(json.dumps(args.run(args), indent=2)))


if __name__ == "__main__":
    sys.exit(main())
