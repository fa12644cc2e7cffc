"""Experiment orchestration: datasets, the epoch loop, and run artifacts.

A run directory is self-describing: manifest.json (written before the
first report) holds the full config plus derived seeds, reports/ holds
one JSON per epoch, scatter/ holds per-network normalized loss clouds,
checkpoints/ holds the final parameters, and summary.json condenses the
run into scalars. A forked writer process writes every one of them.
Summaries contain no paths or timestamps, so identical configs and seeds
produce byte-identical summary files.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
from contextlib import suppress
from pathlib import Path

from .config import ExperimentConfig, _is_number, config_to_dict
from .data import (
    CleanDataset,
    NoisyDataset,
    NoiseSpec,
    inject_noise,
    make_blobs,
    save_dataset,
    sidecar_path,
)
from .errors import ConfigError, NotFoundError, StructuralError
from .lossprofile import write_scatter
from .network import Workspace, init_network, layer_views, one_blas_thread, save_checkpoint
from .rng import NET_NAMES, RngStreams, derive_seed, stream
from .training import evaluate, plain_ce_epoch, run_dst_epoch

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


def _write(path: Path, text: str) -> None:
    """Write one run file whole: `NAME.tmp` beside it, renamed over it, so
    no file of a run is ever left truncated. An `OSError` removes the tmp
    file and becomes a `StructuralError` naming the run file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            tmp.unlink()
        raise StructuralError(f"cannot write {path}: {exc}") from exc


def _accuracy_stats(series: list[float]) -> dict:
    tail = series[-LAST_K_EPOCHS:]
    return {"best": max(series), "final": series[-1], "last10_mean": sum(tail) / len(tail)}


def _final_branch_stats(selection: dict | None) -> dict:
    """Branch sizes and precisions per net at the last epoch; None for a net
    that trained on plain cross-entropy then."""
    out: dict = {}
    for name in NET_NAMES:
        entry = (selection or {}).get(name)
        out[name] = None if entry is None or entry["fallback"] else {
            branch: {key: entry["branches"][branch][key] for key in ("size", "precision")}
            for branch in ("labeled", "predicted", "wrong")
        }
    return out


def _summary(manifest: dict, reports: list[dict]) -> dict:
    """The run condensed into scalars, from its manifest and every report."""
    config = dict(manifest["config"])
    config.pop("output_dir")  # summaries must not depend on placement
    return {
        **manifest,
        "format": SUMMARY_FORMAT,
        "version": SUMMARY_VERSION,
        "config": config,
        "accuracy": {
            name: _accuracy_stats([report["test_accuracy"][name] for report in reports])
            for name in ("net1", "net2", "ensemble")
        },
        "final_branches": _final_branch_stats(reports[-1]["selection"]),
        "fallback_epochs": {
            name: [
                report["epoch"]
                for report in reports
                if (report["selection"] or {}).get(name, {}).get("fallback")
            ]
            for name in NET_NAMES
        },
    }


def _serve_run(
    requests,
    replies,
    run_dir: Path,
    cfg: ExperimentConfig,
    train: NoisyDataset,
    test: CleanDataset,
    seeds: dict[str, int],
) -> None:
    """Writer loop: write every file of the run; answer each message with
    the first error so far, or None.

    The dataset, its sidecar and the manifest come first. Per message: the
    epoch's dumps, then its evaluation and report, and after the final
    epoch, if no error has occurred, the checkpoints and summary.json. A
    failed dump does not stop the report.
    """
    errors: list[Exception] = []
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "config": config_to_dict(cfg),
        "seeds": seeds,
        "n_train": train.n_samples,
        "n_test": test.n_samples,
    }
    try:
        table, sidecar = save_dataset(train)
        _write(run_dir / "dataset.csv", table)
        _write(sidecar_path(run_dir / "dataset.csv"), sidecar)
        _write(run_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except Exception as exc:  # noqa: BLE001 - answered to the run
        errors.append(exc)
    sizes = cfg.layer_sizes()
    ensemble = NET_NAMES[:1] if cfg.single_network else NET_NAMES
    reports: list[dict] = []
    while True:
        try:
            flats, report, dumps = pickle.load(requests)
        except EOFError:
            return
        epoch = report["epoch"]
        try:
            for name, prof in zip(NET_NAMES, dumps):
                _write(scatter_csv_path(run_dir, epoch, name), write_scatter(epoch, name, prof))
        except Exception as exc:  # noqa: BLE001 - answered to the run
            errors.append(exc)
        try:
            nets = {name: layer_views(flat, sizes) for name, flat in zip(NET_NAMES, flats)}
            report["test_accuracy"] = evaluate(nets, test.features, test.true_labels, ensemble)
            text = json.dumps(report, indent=2, sort_keys=True)
            _write(run_dir / "reports" / f"epoch_{epoch:03d}.json", text + "\n")
            reports.append(report)
            if epoch == cfg.total_epochs and not errors:
                for name, params in nets.items():
                    _write(run_dir / "checkpoints" / f"{name}.json", save_checkpoint(params))
                summary = _summary(manifest, reports)
                text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
                _write(run_dir / "summary.json", text + "\n")
        except Exception as exc:  # noqa: BLE001 - answered to the run
            errors.append(exc)
        pickle.dump(errors[0] if errors else None, replies)
        replies.flush()


_WRITER_GONE = "the epoch writer process ended early"


class _EpochWriter:
    """A forked process that writes every file of a run (`_serve_run`).

    It inherits the config, both datasets and the seeds at the fork. The
    run sends one pickled message per epoch, once its training is done:
    each network's flat parameters (the pickle is the snapshot), the report
    without `test_accuracy`, and the loss profiles due for dumping. The
    writer keeps each report it writes and, after the final epoch, builds
    summary.json from them. So formatting (about 15 ms per 4000-row cloud,
    most of it `%.17g`), the test forwards and every write overlap training
    on another core. At most one message is in flight.

    Fork it on one BLAS thread (`one_blas_thread`): the writer inherits the
    count, and a fork copies none of the BLAS's threads. As a context
    manager it drains and reaps the writer on exit, and on a clean exit
    raises the first error it answered.
    """

    def __init__(
        self,
        run_dir: Path,
        cfg: ExperimentConfig,
        train: NoisyDataset,
        test: CleanDataset,
        seeds: dict[str, int],
    ) -> None:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pending = False
        self.pid = os.fork()
        if self.pid == 0:
            # The writer never returns into the caller's stack: no atexit
            # handlers, no second flush of inherited stdio buffers.
            code = 1
            try:
                # Ctrl-C reaches the whole process group; the run drains
                # the writer, so its last epoch is written out in full.
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(request_w)
                os.close(reply_r)
                with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
                    _serve_run(requests, replies, run_dir, cfg, train, test, seeds)
                code = 0
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        self.requests = os.fdopen(request_w, "wb")
        self.replies = os.fdopen(reply_r, "rb")

    def wait(self) -> None:
        """Block until the epoch in flight is finished; raise its error."""
        if not self.pending:
            return
        self.pending = False
        try:
            error = pickle.load(self.replies)
        except EOFError:
            raise StructuralError(_WRITER_GONE) from None
        if error is not None:
            raise error

    def submit(self, flats: list, report: dict, dumps: list) -> None:
        """Send one epoch's parameters, report and profiles to dump."""
        self.wait()
        try:
            pickle.dump((flats, report, dumps), self.requests, pickle.HIGHEST_PROTOCOL)
            self.requests.flush()
        except BrokenPipeError:
            raise StructuralError(_WRITER_GONE) from None
        self.pending = True

    def __enter__(self) -> _EpochWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an error the writer still finishes the epoch in flight: it
        # exits at its next read, once the request pipe is closed.
        try:
            if exc_type is None:
                self.wait()
        finally:
            for stream in (self.requests, self.replies):
                # Closes the pipe also when a writer that died left part
                # of a request unsent.
                with suppress(BrokenPipeError):
                    stream.close()
            os.waitpid(self.pid, 0)


def run(cfg: ExperimentConfig, output_dir: Path | str | None = None) -> Path:
    """Execute one experiment end to end; returns the run directory."""
    run_dir = _resolve_run_dir(cfg, output_dir)
    if run_dir.is_dir() and any(run_dir.iterdir()):
        raise StructuralError(
            f"refusing to write into non-empty directory {run_dir}; "
            "choose a fresh output_dir"
        )
    try:
        for sub in ("", "reports", "scatter", "checkpoints"):
            (run_dir / sub).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StructuralError(f"cannot create run directory {run_dir}: {exc}") from exc

    train, test, seeds = build_datasets(cfg)
    # Both processes train or evaluate on one BLAS thread: an idle second
    # thread spins between calls. Results do not depend on the count.
    with one_blas_thread(), _EpochWriter(run_dir, cfg, train, test, seeds) as writer:
        streams = RngStreams.from_master(cfg.master_seed)
        workspaces = [
            Workspace(init_network(cfg.layer_sizes(), rng), cfg.momentum, cfg.weight_decay)
            for rng in streams.init
        ]
        for epoch in range(1, cfg.total_epochs + 1):
            lr = cfg.learning_rate_at(epoch)
            in_warmup = epoch <= cfg.warmup_epochs
            selection: dict | None = None
            dumps = []
            if in_warmup or cfg.ce_only:
                # Both networks, also in single-network mode.
                phase = "warmup" if in_warmup else "ce"
                for ws, rng in zip(workspaces, streams.shuffle):
                    plain_ce_epoch(ws, lr, train, cfg.batch_size, rng)
            else:
                phase = "dst"
                selection, profiles = run_dst_epoch(workspaces, lr, train, cfg, streams)
                if _scatter_due(cfg, epoch):
                    dumps = profiles
            report = {"epoch": epoch, "phase": phase, "learning_rate": lr, "selection": selection}
            writer.submit([ws.flat for ws in workspaces], report, dumps)
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
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StructuralError(f"cannot read summary {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StructuralError(f"summary is not valid JSON: {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != SUMMARY_FORMAT:
        raise StructuralError(f"not a run summary: {path}")
    return payload


def _walk_deltas(a, b, prefix: str, out: dict) -> None:
    # A null against an object (final branches of a net that fell back, or
    # of a run without them) is null against each of its leaves.
    if a is None and isinstance(b, dict):
        a = dict.fromkeys(b)
    elif b is None and isinstance(a, dict):
        b = dict.fromkeys(a)
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
