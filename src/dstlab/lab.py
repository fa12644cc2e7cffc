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
import pickle
import signal
from contextlib import contextmanager, suppress
from pathlib import Path

from .config import ExperimentConfig, _is_number, config_to_dict
from .data import CleanDataset, NoisyDataset, NoiseSpec, inject_noise, make_blobs, save_dataset
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


@contextmanager
def _writing(path: Path):
    """Turn an `OSError` while writing one run file into a `StructuralError`."""
    try:
        yield
    except OSError as exc:
        raise StructuralError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, text: str) -> None:
    with _writing(path):
        path.write_text(text + "\n", encoding="utf-8")


def _serve_epochs(
    requests,
    replies,
    run_dir: Path,
    test: CleanDataset,
    sizes: list[int],
    ensemble: tuple[str, ...],
) -> None:
    """Writer loop: per message, write the epoch's dumps, evaluate its
    snapshot and write its report; answer `(error, test_accuracy)`.

    A failed dump does not stop the report, as when the run wrote its
    reports itself; the first error is answered.
    """
    while True:
        try:
            flats, report, dumps = pickle.load(requests)
        except EOFError:
            return
        error = test_accuracy = None
        try:
            for path, epoch, net, prof in dumps:
                with _writing(path):
                    write_scatter(path, epoch, net, prof)
        except Exception as exc:  # noqa: BLE001 - sent on, raised by the run
            error = exc
        try:
            nets = {name: layer_views(flat, sizes) for name, flat in zip(NET_NAMES, flats)}
            test_accuracy = evaluate(nets, test.features, test.true_labels, ensemble)
            _write_json(
                run_dir / "reports" / f"epoch_{report['epoch']:03d}.json",
                json.dumps({**report, "test_accuracy": test_accuracy}, indent=2, sort_keys=True),
            )
        except Exception as exc:  # noqa: BLE001 - sent on, raised by the run
            if error is None:
                error = exc
        pickle.dump((error, test_accuracy), replies)
        replies.flush()


_WRITER_GONE = "the epoch writer process ended early"


class _EpochWriter:
    """A forked process that finishes each epoch: its files and its test accuracy.

    The run sends one pickled message per epoch, once its training is
    done: each network's flat parameters (the pickle is the snapshot), the
    report without `test_accuracy`, and the loss-scatter dumps due, each a
    `(path, epoch, net, profile)` tuple whose profile carries the audit
    states it writes. The writer writes the dumps, evaluates the snapshot
    on the test set, writes the report, and answers. So formatting the
    clouds (about 15 ms for 4000 rows, most of it `%.17g`) and the test
    forwards overlap the next epoch's training on another core. At most
    one message is in flight; `test_accuracy` collects the answers in
    epoch order.

    Fork it on one BLAS thread (`one_blas_thread`): the writer inherits the
    count, and a fork copies none of the BLAS's threads. As a context
    manager it drains and reaps the writer on exit, and on a clean exit
    raises the first error it answered.
    """

    def __init__(
        self, run_dir: Path, test: CleanDataset, sizes: list[int], ensemble: tuple[str, ...]
    ) -> None:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pending = False
        self.test_accuracy: list[dict[str, float]] = []
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
                with open(request_r, "rb") as requests, open(reply_w, "wb") as replies:
                    _serve_epochs(requests, replies, run_dir, test, sizes, ensemble)
                code = 0
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        self.requests = open(request_w, "wb")
        self.replies = open(reply_r, "rb")

    def wait(self) -> None:
        """Block until the epoch in flight is finished; raise its error."""
        if not self.pending:
            return
        self.pending = False
        try:
            error, test_accuracy = pickle.load(self.replies)
        except EOFError:
            raise StructuralError(_WRITER_GONE) from None
        if error is not None:
            raise error
        self.test_accuracy.append(test_accuracy)

    def submit(self, flats: list, report: dict, dumps: list[tuple]) -> None:
        """Send one epoch's parameters, report and dumps."""
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
    for name in NET_NAMES:
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
    ensemble = NET_NAMES[:1] if cfg.single_network else NET_NAMES
    # Both processes train or evaluate on one BLAS thread: an idle second
    # thread spins between calls. Results do not depend on the count.
    with one_blas_thread(), _EpochWriter(run_dir, test, cfg.layer_sizes(), ensemble) as writer:
        save_dataset(train, run_dir / "dataset.csv", _writing)
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "config": config_to_dict(cfg),
            "seeds": seeds,
            "n_train": train.n_samples,
            "n_test": test.n_samples,
        }
        _write_json(run_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))

        streams = RngStreams.from_master(cfg.master_seed)
        workspaces = [
            Workspace(init_network(cfg.layer_sizes(), rng), cfg.momentum, cfg.weight_decay)
            for rng in streams.init
        ]

        fallback_epochs: dict[str, list[int]] = {"net1": [], "net2": []}
        last_selection: dict | None = None
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
                for name in NET_NAMES:
                    if selection.get(name, {}).get("fallback"):
                        fallback_epochs[name].append(epoch)
                if _scatter_due(cfg, epoch):
                    dumps = [
                        (scatter_csv_path(run_dir, epoch, name), epoch, name, prof)
                        for name, prof in zip(NET_NAMES, profiles)
                    ]
                if epoch == cfg.total_epochs:
                    last_selection = selection

            report = {"epoch": epoch, "phase": phase, "learning_rate": lr, "selection": selection}
            writer.submit([ws.flat for ws in workspaces], report, dumps)

    history = {
        name: [accuracy[name] for accuracy in writer.test_accuracy]
        for name in ("net1", "net2", "ensemble")
    }
    for name, ws in zip(NET_NAMES, workspaces):
        path = run_dir / "checkpoints" / f"{name}.json"
        with _writing(path):
            save_checkpoint(ws.params, path)

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
    _write_json(run_dir / "summary.json", json.dumps(summary, sort_keys=True, separators=(",", ":")))
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
