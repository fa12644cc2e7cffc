"""`scripts/runs.py` runs from a fresh checkout, with each former script's flags."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_flags_and_defaults_match_the_former_scripts():
    spec = importlib.util.spec_from_file_location("runs", RUNS)
    runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runs)
    parser = runs.build_parser()
    for command, defaults in FLAGS.items():
        args = vars(parser.parse_args([command]))
        assert args.pop("command") == command
        assert args.pop("run").__name__ == command
        assert args == defaults
    assert parser.parse_args(["ablation", "--noise-rate", "0.6", "--out", "x"]).noise_rate == 0.6
    with pytest.raises(SystemExit):
        parser.parse_args(["baseline", "--noise-rate", "0.6"])
