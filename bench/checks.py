"""Correctness checks on one run directory, recomputed apart from dstlab.

Each check returns a list of problems; an empty list means the run passed.
Only the test set comes from dstlab (`lab.build_datasets`); accuracy,
precision baselines and the scatter normalization are recomputed here with
plain numpy from the files the run wrote.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

NETS = ("net1", "net2")
NORMALIZATION_TOL = 1e-12


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def checkpoint_logits(path: Path, x: np.ndarray) -> np.ndarray:
    """Forward pass of a JSON checkpoint: ReLU hidden layers, linear output."""
    payload = load_json(path)
    sizes = payload["sizes"]
    a = x
    for k, layer in enumerate(payload["layers"]):
        w = np.asarray(layer["weights"], dtype=np.float64).reshape(sizes[k + 1], sizes[k])
        a = a @ w.T + np.asarray(layer["bias"], dtype=np.float64)
        if k < len(payload["layers"]) - 1:
            a = np.maximum(a, 0.0)
    return a


def ensemble_correct(run_dir: Path, features: np.ndarray, labels: np.ndarray) -> int:
    """Test samples the mean softmax of both checkpoints classifies right."""
    probs = 0.0
    for net in NETS:
        logits = checkpoint_logits(run_dir / "checkpoints" / f"{net}.json", features)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = probs + e / e.sum(axis=1, keepdims=True)
    return int((np.argmax(probs, axis=1) == labels).sum())


def clean_fraction(run_dir: Path) -> float:
    """Share of training rows in dataset.csv whose noisy label is the true one."""
    labels = np.loadtxt(run_dir / "dataset.csv", delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    return float((labels[:, 0] == labels[:, 1]).mean())


def expected_scatter_files(cfg: dict) -> set[str]:
    """One CSV per net for each selection epoch the config dumps."""
    every, total = cfg["scatter_every"], cfg["total_epochs"]
    epochs = [
        e for e in range(cfg["warmup_epochs"] + 1, total + 1)
        if e == total or (every > 0 and e % every == 0)
    ]
    return {f"epoch_{e:03d}_{net}.csv" for e in epochs for net in NETS}


def scatter_problems(run_dir: Path, cfg: dict, n_train: int) -> list[str]:
    scatter = run_dir / "scatter"
    found = {p.name for p in scatter.iterdir()}
    expected = expected_scatter_files(cfg)
    if found != expected:
        return [f"scatter files: {len(found ^ expected)} missing or unexpected"]
    problems = []
    for name in sorted(found):
        # columns: epoch, net, id, l_nis, l_prd, nrm_nis, nrm_prd, pred, state
        cols = np.loadtxt(scatter / name, delimiter=",", skiprows=1, usecols=(2, 3, 4, 5, 6), ndmin=2)
        if cols.shape[0] != n_train or not np.array_equal(cols[:, 0], np.arange(n_train)):
            problems.append(f"{name}: rows are not one per training sample")
            continue
        for raw, nrm in ((cols[:, 1], cols[:, 3]), (cols[:, 2], cols[:, 4])):
            span = raw.max() - raw.min()
            want = np.zeros_like(raw) if span == 0 else (raw - raw.min()) / span
            if np.max(np.abs(nrm - want)) > NORMALIZATION_TOL:
                problems.append(f"{name}: normalized column differs from min-max of its loss")
    return problems


def run_problems(run_dir: Path, test_set, floors: dict) -> list[str]:
    """Every check on one finished run; `test_set` is (features, labels).

    `floors` may hold `final_accuracy` and `labeled_precision`, the
    workload's own bars.
    """
    summary = load_json(run_dir / "summary.json")
    cfg = summary["config"]
    problems = []
    features, labels = test_set
    final = summary["accuracy"]["ensemble"]["final"]
    recomputed = ensemble_correct(run_dir, features, labels) / len(labels)
    if recomputed != final:
        problems.append(f"ensemble accuracy from checkpoints {recomputed} != summary {final}")
    if final < floors.get("final_accuracy", 0.0):
        problems.append(f"final accuracy {final} below {floors['final_accuracy']}")
    baseline = clean_fraction(run_dir)
    for net in NETS:
        branches = summary["final_branches"][net]
        precision = None if branches is None else branches["labeled"]["precision"]
        if precision is None or precision <= baseline:
            problems.append(f"{net} labeled precision {precision} not above clean share {baseline}")
        elif precision < floors.get("labeled_precision", 0.0):
            problems.append(f"{net} labeled precision {precision} below {floors['labeled_precision']}")
    problems += scatter_problems(run_dir, cfg, summary["n_train"])
    return problems
