"""Experiment orchestration: datasets, the epoch loop, and run artifacts.

A run directory is self-describing: manifest.json (written before training
starts) holds the full config plus derived seeds, reports/ holds one JSON
per epoch, scatter/ holds per-network normalized loss clouds, checkpoints/
holds the final parameters, and summary.json condenses the run into
scalars. Summaries contain no paths or timestamps, so identical configs
and seeds produce byte-identical summary files.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .config import ExperimentConfig, config_to_dict
from .data import CleanDataset, NoisyDataset, NoiseSpec, inject_noise, make_blobs, save_dataset
from .errors import ConfigError, NotFoundError, StructuralError
from .lossprofile import write_scatter
from .network import save_checkpoint
from .rng import RngStreams, derive_seed, stream
from .training import NET_NAMES, NetworkPair, evaluate, plain_ce_epoch, run_dst_epoch

OUTPUT_ROOT_ENV = "DSTLAB_OUTPUT_ROOT"

MANIFEST_FORMAT = "dstlab-manifest"
MANIFEST_VERSION = 1
SUMMARY_FORMAT = "dstlab-summary"
SUMMARY_VERSION = 1

LAST_K_EPOCHS = 10  # window for the trailing-accuracy metric


def output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def _resolve_run_dir(cfg: ExperimentConfig, override: Path | str | None) -> Path:
    target = override if override is not None else cfg.output_dir
    if target is None:
        digest = hashlib.sha256(
            json.dumps(config_to_dict(cfg), sort_keys=True).encode()
        ).hexdigest()[:12]
        return output_root() / f"run-{digest}"
    target = Path(target)
    return target if target.is_absolute() else output_root() / target


def build_datasets(
    cfg: ExperimentConfig,
) -> tuple[NoisyDataset, CleanDataset, dict[str, int]]:
    """Training blobs with injected noise, clean test blobs, derived seeds."""
    train_clean = make_blobs(
        cfg.n_classes, cfg.per_class, cfg.n_features, cfg.spread,
        stream(cfg.data_seed, "train-data"),
    )
    test = make_blobs(
        cfg.n_classes, cfg.test_per_class, cfg.n_features, cfg.spread,
        stream(cfg.data_seed, "test-data"),
    )
    noise_seed = derive_seed(cfg.master_seed, "noise")
    train = inject_noise(
        train_clean, NoiseSpec(kind=cfg.noise_kind, rate=cfg.noise_rate, seed=noise_seed)
    )
    seeds = {"master": cfg.master_seed, "data": cfg.data_seed, "noise": noise_seed}
    return train, test, seeds


def _scatter_due(cfg: ExperimentConfig, epoch: int) -> bool:
    if epoch == cfg.total_epochs:
        return True
    return cfg.scatter_every > 0 and epoch % cfg.scatter_every == 0


def scatter_csv_path(run_dir: Path | str, epoch: int, net: str) -> Path:
    return Path(run_dir) / "scatter" / f"epoch_{int(epoch):03d}_{net}.csv"


def _accuracy_stats(series: list[float]) -> dict:
    tail = series[-LAST_K_EPOCHS:]
    return {
        "best": max(series),
        "final": series[-1],
        "last10_mean": sum(tail) / len(tail),
    }


def _final_branch_stats(selection: dict | None) -> dict:
    """Labeled/predicted branch size and precision per net at the last epoch."""
    out: dict = {}
    for name in ("net1", "net2"):
        entry = None if selection is None else selection.get(name)
        if entry is None or entry.get("fallback"):
            out[name] = None
            continue
        out[name] = {
            branch: {
                "size": entry["branches"][branch]["size"],
                "precision": entry["branches"][branch]["precision"],
            }
            for branch in ("labeled", "predicted", "wrong")
        }
    return out


def run(cfg: ExperimentConfig, output_dir: Path | str | None = None) -> Path:
    """Execute one experiment end to end; returns the run directory."""
    run_dir = _resolve_run_dir(cfg, output_dir)
    if run_dir.exists() and any(run_dir.iterdir()):
        raise StructuralError(
            f"refusing to write into non-empty directory {run_dir}; "
            "choose a fresh output_dir"
        )
    for sub in ("", "reports", "scatter", "checkpoints"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)

    train, test, seeds = build_datasets(cfg)
    save_dataset(train, run_dir / "dataset.csv")
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "config": config_to_dict(cfg),
        "seeds": seeds,
        "n_train": train.n_samples,
        "n_test": test.n_samples,
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    schedule = cfg.schedule()
    dst = cfg.dst_params()
    ablation = cfg.ablation()
    streams = RngStreams.from_master(cfg.master_seed)
    pair = NetworkPair.create(
        cfg.layer_sizes(), schedule, streams.init_net1, streams.init_net2
    )

    history: dict[str, list[float]] = {"net1": [], "net2": [], "ensemble": []}
    ensemble = ("net1",) if ablation.single_network else NET_NAMES
    fallback_epochs: dict[str, list[int]] = {"net1": [], "net2": []}
    last_selection: dict | None = None

    for epoch in range(1, schedule.total_epochs + 1):
        lr = schedule.learning_rate_at(epoch)
        pair.set_learning_rate(lr)
        in_warmup = epoch <= schedule.warmup_epochs
        plain_ce = in_warmup or ablation.ce_only
        selection: dict | None = None
        if plain_ce:
            phase = "warmup" if in_warmup else "ce"
            pair.net1 = plain_ce_epoch(
                pair.net1, pair.opt1, train, schedule.batch_size, streams.shuffle[0]
            )
            pair.net2 = plain_ce_epoch(
                pair.net2, pair.opt2, train, schedule.batch_size, streams.shuffle[1]
            )
        else:
            phase = "dst"
            result = run_dst_epoch(
                pair, train, dst, schedule.batch_size, streams, ablation
            )
            selection = result.selection
            for name in ("net1", "net2"):
                if selection.get(name, {}).get("fallback"):
                    fallback_epochs[name].append(epoch)
            if _scatter_due(cfg, epoch):
                for net_name, cloud in result.scatter.items():
                    write_scatter(
                        scatter_csv_path(run_dir, epoch, net_name),
                        epoch,
                        net_name,
                        cloud.profile,
                        cloud.states,
                    )
            if epoch == schedule.total_epochs:
                last_selection = selection

        test_accuracy = evaluate(pair.nets(), test.features, test.true_labels, ensemble)
        for name, series in history.items():
            series.append(test_accuracy[name])
        report = {
            "epoch": epoch,
            "phase": phase,
            "learning_rate": lr,
            "test_accuracy": test_accuracy,
            "selection": selection,
        }
        (run_dir / "reports" / f"epoch_{epoch:03d}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    save_checkpoint(pair.net1, run_dir / "checkpoints" / "net1.json")
    save_checkpoint(pair.net2, run_dir / "checkpoints" / "net2.json")

    summary_config = config_to_dict(cfg)
    summary_config.pop("output_dir")  # summaries must not depend on placement
    summary = {
        "format": SUMMARY_FORMAT,
        "version": SUMMARY_VERSION,
        "config": summary_config,
        "seeds": seeds,
        "n_train": train.n_samples,
        "n_test": test.n_samples,
        "accuracy": {name: _accuracy_stats(series) for name, series in history.items()},
        "final_branches": _final_branch_stats(last_selection),
        "fallback_epochs": fallback_epochs,
    }
    (run_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return run_dir


def dump_scatter(run_dir: Path | str, epoch: int, net: str) -> Path:
    """Path of an existing per-epoch scatter CSV; absence is an error."""
    if net not in ("net1", "net2"):
        raise ConfigError(f"net must be net1 or net2, got {net!r}")
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise NotFoundError(f"run directory not found: {run_dir}")
    path = scatter_csv_path(run_dir, epoch, net)
    if not path.exists():
        raise NotFoundError(
            f"no scatter dump for epoch {epoch} net {net} under {run_dir}"
        )
    return path


def load_summary(path: Path | str) -> dict:
    path = Path(path)
    if path.is_dir():
        path = path / "summary.json"
    if not path.exists():
        raise NotFoundError(f"summary not found: {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("format") != SUMMARY_FORMAT:
        raise StructuralError(f"not a run summary: {path}")
    return payload


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk_deltas(a, b, prefix: str, out: dict) -> None:
    if isinstance(a, dict) or isinstance(b, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)):
            raise StructuralError(f"summary shape mismatch at {prefix or '<root>'}")
        if set(a) != set(b):
            missing = sorted(set(a) ^ set(b))
            raise StructuralError(
                f"summary key mismatch at {prefix or '<root>'}: {missing}"
            )
        for key in sorted(a):
            _walk_deltas(a[key], b[key], f"{prefix}.{key}" if prefix else key, out)
        return
    if _is_number(a) and _is_number(b):
        out[prefix] = {"a": a, "b": b, "delta": b - a}
    elif _is_number(a) != _is_number(b):
        # one side null (e.g. empty-branch precision): no arithmetic delta
        out[prefix] = {"a": a, "b": b, "delta": None}
    # non-numeric leaves (strings, bools, lists) carry no delta


def compare(summary_a: Path | str | dict, summary_b: Path | str | dict) -> dict:
    """Per-metric numeric deltas (b minus a) between two run summaries."""
    a = summary_a if isinstance(summary_a, dict) else load_summary(summary_a)
    b = summary_b if isinstance(summary_b, dict) else load_summary(summary_b)
    deltas: dict = {}
    _walk_deltas(a, b, "", deltas)
    return deltas
