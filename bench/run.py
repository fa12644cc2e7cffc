"""Benchmark of `dstlab run`, timed end to end through the CLI.

Usage, from the repository root (no install needed):

    python3 bench/run.py --workload ceiling --seed 0 --seconds 30 --trace 0

`--workload all` runs every workload in turn. Each round runs
`dstlab.cli.main(["run", CONFIG])` once in a fresh child process with
DSTLAB_OUTPUT_ROOT pointed at a fresh directory, then checks the run's
outputs (see checks.py). Rounds repeat while the next one fits in
`--seconds`, with at least two so that summaries can be compared.

`--trace 0` reports the end-to-end metrics, as medians over the rounds.
`--trace 1` runs one untraced and one traced round and reports the
per-layer metrics of the traced one, plus the tracing overhead. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from checks import run_problems

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_runs"

# Seed pairs (master_seed, data_seed); `--seed s` runs pair s mod 5.
SEED_PAIRS = [(4, 11), (1, 7), (2, 3), (5, 13), (8, 21)]

# Config overrides on top of dstlab's defaults (120 epochs, 15 warmup,
# sym-c1 noise at 0.5), plus each workload's own correctness bars.
WORKLOADS = {
    "ceiling": {
        "config": {"scatter_every": 0},
        "floors": {"final_accuracy": 0.99},
    },
    "memorize": {
        "config": {
            "scatter_every": 0,
            "n_features": 20,
            "per_class": 150,
            "hidden_sizes": [256, 256],
        },
        "floors": {"final_accuracy": 0.85, "labeled_precision": 0.90},
    },
    "cli-default": {"config": {}, "floors": {}},
}

SETUP_PROBES = 8  # set-up-only children per invocation, besides one per round
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "bytes_written": "bytes",
    "test_acc": "fraction",
}

UNITS = {
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "training.batches": "count",
    "network.forward_calls": "count",
    "lossprofile.scatter_bytes": "bytes",
    "gmm.fits": "count",
    "gmm.em_iterations": "count",
    "selection.fit_failures": "count",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in UNITS:
        return UNITS[name]
    return name.rsplit("_", 1)[-1]  # *_s, *_ms, *_us


def workload_config(name: str, seed: int) -> dict:
    master, data = SEED_PAIRS[seed % len(SEED_PAIRS)]
    return {**WORKLOADS[name]["config"], "master_seed": master, "data_seed": data}


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Child:
    """One child process; `setup_s` is the time until it printed `ready`."""

    def __init__(self, config: Path, mode: str, out_root: Path, log: Path) -> None:
        env = dict(os.environ, DSTLAB_OUTPUT_ROOT=str(out_root))
        start = perf_counter()
        with log.open("ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), str(config), mode],
                stdout=subprocess.PIPE,
                stderr=err,
                env=env,
            )
        try:
            first = self.proc.stdout.readline()
            self.setup_s = perf_counter() - start
            self.stdout = first + self.proc.stdout.read()
        finally:
            self.proc.stdout.close()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.ready = first.strip() == b"ready"
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    def result(self) -> dict | None:
        lines = self.stdout.decode().strip().splitlines()
        if self.proc.returncode != 0 or not self.ready or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


class Workspace:
    """Workspace for one workload invocation under `.bench_runs/`."""

    def __init__(self, workload: str, seed: int) -> None:
        from dstlab.lab import build_datasets
        from dstlab.config import config_from_dict

        self.workload = workload
        self.cfg = workload_config(workload, seed)
        WORK_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg), encoding="utf-8")
        self.log = self.dir / "stderr.log"
        _, test, _ = build_datasets(config_from_dict(self.cfg))
        self.test_set = (test.features, test.true_labels)
        self.rounds = 0
        self.problems: list[str] = []
        self.summaries: set[bytes] = set()

    def probe_setup(self) -> float:
        child = Child(self.config_path, "setup", self.dir / "probe", self.log)
        if child.proc.returncode != 0 or not child.ready:
            raise RuntimeError(f"set-up probe failed; see {self.log}")
        return child.setup_s

    def round(self, mode: str) -> dict | None:
        """Run and check one `dstlab run`; None if it failed."""
        self.rounds += 1
        out_root = self.dir / f"round-{self.rounds}"
        child = Child(self.config_path, mode, out_root, self.log)
        result = child.result()
        run_dirs = list(out_root.iterdir()) if out_root.is_dir() else []
        if result is None or result["exit"] != 0 or len(run_dirs) != 1:
            self.problems.append(f"round {self.rounds}: dstlab run failed; see {self.log}")
            return None
        run_dir = run_dirs[0]
        problems = run_problems(run_dir, self.test_set, WORKLOADS[self.workload]["floors"])
        self.problems += [f"round {self.rounds}: {p}" for p in problems]
        summary = (run_dir / "summary.json").read_bytes()
        self.summaries.add(summary)
        metrics = {
            "run_s": result["run_s"],
            "setup_s": child.setup_s,
            "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb,
            "bytes_written": tree_bytes(run_dir),
            "test_acc": json.loads(summary)["accuracy"]["ensemble"]["last10_mean"],
        }
        if "layers" in result:
            metrics.update(result["layers"])
            metrics["lossprofile.scatter_bytes"] = tree_bytes(run_dir / "scatter")
        shutil.rmtree(out_root)
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # other benchmark processes still hold workspaces


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = Workspace(workload, seed)
    try:
        rounds: list[dict | None] = []
        if trace:
            rounds = [work.round("run"), work.round("trace")]
        else:
            setups = [work.probe_setup() for _ in range(SETUP_PROBES)]
            start = perf_counter()
            while True:
                rounds.append(work.round("run"))
                elapsed = perf_counter() - start
                if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 1 / len(rounds)) > seconds:
                    break
        done = [r for r in rounds if r is not None]
        if len(work.summaries) > 1:
            work.problems.append("summary.json differs between rounds")
        if trace and len(done) == 2:
            untraced, traced = done
            metrics = {k: v for k, v in traced.items() if k not in END_TO_END_UNITS}
            metrics["trace.run_s"] = traced["run_s"]
            metrics["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
        elif done and not trace:
            metrics = {k: statistics.median(r[k] for r in done) for k in END_TO_END_UNITS}
            metrics["setup_s"] = statistics.median(setups + [r["setup_s"] for r in done])
        else:
            metrics = {}
        for problem in work.problems:
            print(f"{workload}: {problem}", file=sys.stderr)
        return {
            "correct": not work.problems,
            "attempted": len(rounds),
            "failed": len(rounds) - len(done),
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
        }
    finally:
        work.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dstlab" / "__init__.py").is_file():
        print(f"error: no dstlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, entry in results[name]["metrics"].items():
            print(f"{name:12s} {metric:28s} {entry['value']:.6g} {entry['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
