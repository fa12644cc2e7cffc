#!/usr/bin/env python3
"""Benchmark run of the full two-network pipeline, with a result digest.

Executes the same configuration the acceptance battery uses (seeds and
schedule included) and prints accuracy statistics, the final-epoch branch
composition and `digest`: the SHA-256 over the bytes of `summary.json` and
of `checkpoints/*.json`, in name order. Useful as a smoke check after
changes: the run is deterministic, so a digest that differs from a previous
one is a real behavior change, not noise.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dstlab import lab  # noqa: E402
from dstlab.config import benchmark_config  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=None,
        help="run directory (default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--noise-rate",
        type=float,
        default=None,
        help="override the benchmark noise rate",
    )
    args = parser.parse_args(argv)
    overrides = {} if args.noise_rate is None else {"noise_rate": args.noise_rate}
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp()) / "reference"
    run_dir = lab.run(benchmark_config(**overrides), out)
    summary = lab.load_summary(run_dir)
    digest = hashlib.sha256()
    for path in [run_dir / "summary.json", *sorted((run_dir / "checkpoints").glob("*.json"))]:
        digest.update(path.read_bytes())
    print(
        json.dumps(
            {
                "run_dir": str(run_dir),
                "accuracy": summary["accuracy"],
                "final_branches": summary["final_branches"],
                "fallback_epochs": summary["fallback_epochs"],
                "digest": digest.hexdigest(),
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
