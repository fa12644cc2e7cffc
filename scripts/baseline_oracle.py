#!/usr/bin/env python3
"""Pre-registered plain cross-entropy baseline for the memorization regime.

Runs the configuration that acceptance criterion 5 compares against (the
benchmark seeds, noise and schedule, on 20-D blobs with few samples and
wide networks) with selection and refinement disabled (ce_only) and prints
the test-accuracy statistics. The `final` number this script prints is
frozen into tests/test_acceptance.py as the baseline the selection-driven
run must beat; the acceptance test re-runs the baseline and checks it still
reproduces the frozen value before using it.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

# Run from a checkout without installing: the package lives in ../src.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dstlab import lab  # noqa: E402
from dstlab.config import MEMORIZATION, benchmark_config  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=None,
        help="run directory (default: a fresh temporary directory)",
    )
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp()) / "ce-baseline"
    run_dir = lab.run(benchmark_config(ce_only=True, **MEMORIZATION), out)
    summary = lab.load_summary(run_dir)
    print(json.dumps({"run_dir": str(run_dir), "accuracy": summary["accuracy"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
