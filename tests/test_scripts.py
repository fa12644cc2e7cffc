"""`scripts/runs.py` runs from a fresh checkout, with each former script's flags."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import RUNS, load_runs
from dstlab import lab, network
from dstlab.config import benchmark_config

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


@pytest.mark.parametrize("command", ["reference", "ablation"])
def test_an_out_of_range_noise_rate_is_a_config_error(command, tmp_path):
    # As `dstlab run` reports it: one line, exit code 1, and no run begun.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(RUNS), command, "--noise-rate", "1.5"],
        cwd=tmp_path,
        env={**env, "TMPDIR": str(scratch)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr == "config error: noise_rate must be in [0, 1], got 1.5\n"
    assert done.stdout == ""
    assert list(scratch.iterdir()) == []


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
    assert sorted(p.name for p in (run_dir / "reports").iterdir()) == [
        "epoch_001.json", "epoch_002.json", "epoch_003.json"
    ]
    assert out["files_digest"] == sha256_over(
        [
            run_dir / "dataset.csv",
            run_dir / "manifest.json",
            *(run_dir / f"reports/epoch_00{epoch}.json" for epoch in (1, 2, 3)),
        ]
    )
    assert out["summary_digest"] == sha256_over([run_dir / "summary.json"])


def test_branches_digest_reads_the_reports_without_their_mixture_fits(tmp_path):
    # A short two-network run; its last report holds both networks' fits.
    runs = load_runs()
    short = dict(per_class=40, test_per_class=10, total_epochs=3, warmup_epochs=1)
    run_dir = lab.run(benchmark_config(**short), tmp_path / "r")
    before = runs.digests(run_dir)
    path = run_dir / "reports" / "epoch_003.json"
    report = json.loads(path.read_text())
    for entry in report["selection"].values():
        entry["gmm"]["means"][0][0] += 1e-12
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    moved = runs.digests(run_dir)
    assert moved["files_digest"] != before["files_digest"]
    assert moved["branches_digest"] == before["branches_digest"]
    report["selection"]["net1"]["branches"]["labeled"]["size"] += 1
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    assert runs.digests(run_dir)["branches_digest"] != before["branches_digest"]


def test_benchmark_selftest_passes():
    # The benchmark builds its runs through the config and reads their run
    # files; its self-test fails on a change that would break either.
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=RUNS.parent.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.rstrip().endswith("OK")
