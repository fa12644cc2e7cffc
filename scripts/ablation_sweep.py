#!/usr/bin/env python3
"""High-noise ablation sweep: full pipeline vs no-mixup vs single-network.

Runs the benchmark configuration at a chosen noise rate three times and
prints each variant's trailing accuracy plus the delta against the full
pipeline. The mechanism contributions are small in this separability-
limited regime, so the sweep reports four decimal places.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dstlab import lab  # noqa: E402
from dstlab.config import benchmark_config  # noqa: E402

VARIANTS = {
    "full": {},
    "no_mixup": {"no_mixup": True},
    "single_network": {"single_network": True},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--noise-rate", type=float, default=0.8, help="label noise rate (default 0.8)"
    )
    parser.add_argument(
        "--out", default=None, help="parent directory for the three runs"
    )
    args = parser.parse_args(argv)
    parent = Path(args.out) if args.out else Path(tempfile.mkdtemp())

    trailing: dict[str, float] = {}
    for name, flags in VARIANTS.items():
        cfg = benchmark_config(noise_rate=args.noise_rate, **flags)
        run_dir = lab.run(cfg, parent / name)
        summary = lab.load_summary(run_dir)
        trailing[name] = summary["accuracy"]["ensemble"]["last10_mean"]

    report = {
        "noise_rate": args.noise_rate,
        "trailing_accuracy": {k: round(v, 4) for k, v in trailing.items()},
        "delta_vs_full": {
            k: round(trailing["full"] - v, 4) for k, v in trailing.items() if k != "full"
        },
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
