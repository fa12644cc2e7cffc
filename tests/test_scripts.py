"""`scripts/runs.py` runs from a fresh checkout, with each former script's flags."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dstlab import network
from dstlab.config import benchmark_config

RUNS = Path(__file__).resolve().parent.parent / "scripts" / "runs.py"

# Each subcommand's flags and defaults: those of the scripts it replaced,
# baseline_oracle.py, reference_run.py and ablation_sweep.py.
FLAGS = {
    "baseline": {"out": None},
    "reference": {"out": None, "noise_rate": None},
    "ablation": {"out": None, "noise_rate": 0.8},
}


@pytest.mark.parametrize("command", list(FLAGS))
def test_help_runs_without_pythonpath(command, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(RUNS), command, "--help"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: runs.py {command}")
    for flag in FLAGS[command]:
        assert "--" + flag.replace("_", "-") in done.stdout


def load_runs():
    spec = importlib.util.spec_from_file_location("runs", RUNS)
    runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runs)
    return runs


def test_flags_and_defaults_match_the_former_scripts():
    runs = load_runs()
    parser = runs.build_parser()
    for command, defaults in FLAGS.items():
        args = vars(parser.parse_args([command]))
        assert args.pop("command") == command
        assert args.pop("run").__name__ == command
        assert args == defaults
    assert parser.parse_args(["ablation", "--noise-rate", "0.6", "--out", "x"]).noise_rate == 0.6
    with pytest.raises(SystemExit):
        parser.parse_args(["baseline", "--noise-rate", "0.6"])


def sha256_over(paths) -> str:
    return hashlib.sha256(b"".join(path.read_bytes() for path in paths)).hexdigest()


@pytest.mark.parametrize("setter", ["on", "off"])
def test_reference_records_blas_threads_and_numpy_version(setter, tmp_path, monkeypatch):
    runs = load_runs()
    if setter == "off":
        monkeypatch.setattr(network, "_openblas", lambda: None)
    # The benchmark's shapes (2-64-64-4 at batch 128) on a short run.
    short = dict(per_class=40, test_per_class=10, total_epochs=3, warmup_epochs=1)
    monkeypatch.setattr(runs, "benchmark_config", lambda **kw: benchmark_config(**short, **kw))
    args = runs.build_parser().parse_args(["reference", "--out", str(tmp_path / "r")])
    out = json.loads(json.dumps(runs.reference(args)))
    expected = None if network.blas_threads() is None else 1
    assert out["blas_threads"] == expected
    assert out["numpy"] == np.__version__
    run_dir = Path(out["run_dir"])
    assert out["digest"] == sha256_over(
        [run_dir / "summary.json", run_dir / "checkpoints/net1.json", run_dir / "checkpoints/net2.json"]
    )
    # The benchmark config dumps the final epoch only.
    assert sorted(p.name for p in (run_dir / "scatter").iterdir()) == [
        "epoch_003_net1.csv", "epoch_003_net2.csv"
    ]
    assert out["scatter_digest"] == sha256_over(
        [run_dir / "scatter/epoch_003_net1.csv", run_dir / "scatter/epoch_003_net2.csv"]
    )
