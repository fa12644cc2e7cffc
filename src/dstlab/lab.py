"""Experiment orchestration: datasets, the epoch loop, and run artifacts.

A run directory is self-describing: dataset.csv holds the training set,
manifest.json (written before the first report) holds the full config
plus derived seeds, and the two rebuild that set; reports/ holds
one JSON per epoch, scatter/ holds per-network normalized loss clouds,
checkpoints/ holds the final parameters, and summary.json condenses the
run into scalars. `run` only claims the directory and trains; a forked
writer process makes everything inside it: the three subdirectories,
every file, and each report whole.
Summaries contain no paths or timestamps, so identical configs and seeds
produce byte-identical summary files.

The writer also fits net1's loss cloud, net2's division for the next
epoch, when `training.run_epoch` hands it over at net2's turn. The run
process keeps every forward over the training set, net2's fit, both
batch loops and the SGD steps. The two processes share nothing after the
fork: what they exchange goes through one pipe each way (`_EpochWriter`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import data
from .config import ExperimentConfig, _is_number, check_output_dir, config_to_dict, read_json
from .data import CleanDataset, NoisyDataset, inject_noise, make_blobs, save_dataset
from .errors import ConfigError, NotFoundError, StructuralError
from .lossprofile import LossProfile, write_scatter
from .network import Workspace, init_network, layer_views, one_blas_thread, save_checkpoint
from .rng import NET_NAMES, RngStreams, derive_seed, stream
from .selection import BRANCH_NAMES, BranchTable, divide
from .training import Epoch, evaluate, run_epoch

OUTPUT_ROOT_ENV = "DSTLAB_OUTPUT_ROOT"

MANIFEST_FORMAT = "dstlab-manifest"
MANIFEST_VERSION = 1
SUMMARY_FORMAT = "dstlab-summary"
SUMMARY_VERSION = 1

LAST_K_EPOCHS = 10  # window for the trailing-accuracy metric


def output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def _resolve_run_dir(cfg: ExperimentConfig, override: Path | str | None) -> Path:
    """The run directory: `override` if given, under the rule the config
    applies to `output_dir`, else the config's own, else one named for the
    config. A relative path lies under the output root."""
    if override is not None:
        check_output_dir(override)
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
        cfg.n_classes, cfg.per_class, cfg.n_features, data.SPREAD,
        stream(cfg.data_seed, "train-data"),
    )
    test = make_blobs(
        cfg.n_classes, cfg.test_per_class, cfg.n_features, data.SPREAD,
        stream(cfg.data_seed, "test-data"),
    )
    noise_seed = derive_seed(cfg.master_seed, "noise")
    train = inject_noise(train_clean, cfg.noise_kind, cfg.noise_rate, noise_seed)
    seeds = {"master": cfg.master_seed, "data": cfg.data_seed, "noise": noise_seed}
    return train, test, seeds


def _scatter_due(cfg: ExperimentConfig, epoch: int, last: bool) -> bool:
    """Whether `epoch`'s clouds are dumped; `last` marks the run's final epoch."""
    return last or (cfg.scatter_every > 0 and epoch % cfg.scatter_every == 0)


def scatter_csv_path(run_dir: Path | str, epoch: int, net: str) -> Path:
    return Path(run_dir) / "scatter" / f"epoch_{int(epoch):03d}_{net}.csv"


def _write(path: Path, data: bytes) -> None:
    """Write one run file whole: `NAME.tmp` beside it, renamed over it, so
    no file of a run is ever left truncated. An `OSError` removes the tmp
    file and becomes a `StructuralError` naming the run file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(data)
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
            for branch in BRANCH_NAMES
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
    """Writer loop: make everything inside the run directory, and fit the
    clouds that `training.run_epoch` hands over. It runs no forward over
    the training set. Messages, in the order the run sends them:

    - ("divide", e, cloud): at net2's turn of epoch e, net1's `cloud` for
      epoch e+1. Make net2's division for epoch e+1 from it, and keep the
      cloud until epoch e+1's message, which dumps it.
    - ("epoch", e, phase, learning_rate, selection, flats, dumps, last):
      epoch e is trained, in this phase and at this learning rate, with
      these selection reports (None outside selection epochs), and ended
      with these flat parameters, one array per network. Write the clouds
      in `dumps`, in `NET_NAMES` order (None: net1's, handed over with
      "divide"), evaluate the epoch and write its report, built here whole;
      after the epoch marked `last`, if no error has occurred, the
      checkpoints and summary.json.

    Each "epoch" message is answered with the first error so far, or None,
    and with the division made since the last answer, `selection.divide`'s
    (table | None, report), or None. The subdirectories come first, then
    `dataset.csv` (the training set's features and both label arrays) and
    `manifest.json` (the config and seeds that drew them). A subdirectory
    that cannot be made is an error, and the ones made before it are
    removed, so the run leaves the directory as it found it. A failed dump
    does not stop the report.

    The loop derives nothing: every message names its epoch, and its
    phase, learning rate and end come from `training.run_epoch` and
    `run`, so it reads no schedule and counts nothing. It keeps only what
    it answers or dumps: the first error (the run stops at the answer that
    carries it, and any error stops the final files), the division not
    answered yet, net1's clouds not dumped yet, and the reports the
    summary condenses.
    """
    error = None
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "config": config_to_dict(cfg),
        "seeds": seeds,
        "n_train": train.n_samples,
        "n_test": test.n_samples,
    }
    try:
        subdirs = [run_dir / sub for sub in ("reports", "scatter", "checkpoints")]
        try:
            for path in subdirs:
                path.mkdir()
        except OSError as exc:
            for path in subdirs[: subdirs.index(path)]:
                path.rmdir()
            raise StructuralError(f"cannot create run directory {run_dir}: {exc}") from exc
        _write(run_dir / "dataset.csv", save_dataset(train))
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write(run_dir / "manifest.json", text.encode())
    except Exception as exc:  # noqa: BLE001 - answered to the run
        error = exc
    sizes = cfg.layer_sizes()
    ensemble = NET_NAMES[:1] if cfg.single_network else NET_NAMES
    reports: list[dict] = []
    division = None  # net2's division for the next epoch, not answered yet
    clouds: dict[int, LossProfile] = {}  # net1's handed-over clouds, by epoch
    while True:
        try:
            message = pickle.load(requests)
        except EOFError:
            return
        epoch = message[1]
        if message[0] == "divide":
            clouds[epoch + 1] = message[2]
            try:
                division = divide(message[2], cfg, "net1")
            except Exception as exc:  # noqa: BLE001 - answered to the run
                error = error or exc
            continue
        phase, learning_rate, selection, flats, dumps, last = message[2:]
        cloud = clouds.pop(epoch, None)
        try:
            for name, prof in zip(NET_NAMES, dumps):
                prof = cloud if prof is None else prof
                _write(scatter_csv_path(run_dir, epoch, name), write_scatter(epoch, name, prof))
        except Exception as exc:  # noqa: BLE001 - answered to the run
            error = error or exc
        try:
            params = {name: layer_views(flat, sizes) for name, flat in zip(NET_NAMES, flats)}
            report = {
                "epoch": epoch,
                "phase": phase,
                "learning_rate": learning_rate,
                "selection": selection,
                "test_accuracy": evaluate(params, test.features, test.true_labels, ensemble),
            }
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            _write(run_dir / "reports" / f"epoch_{epoch:03d}.json", text.encode())
            reports.append(report)
            if last and error is None:
                for name, layers in params.items():
                    _write(run_dir / "checkpoints" / f"{name}.json", save_checkpoint(layers))
                summary = _summary(manifest, reports)
                text = json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n"
                _write(run_dir / "summary.json", text.encode())
        except Exception as exc:  # noqa: BLE001 - answered to the run
            error = error or exc
        pickle.dump((error, division), replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()
        division = None


_WRITER_GONE = "the epoch writer process ended early"


class _EpochWriter:
    """A forked process that makes everything inside a run's directory
    (`_serve_run`): its subdirectories, every file and each report whole.
    It also fits the clouds of net1 that `training.run_epoch` hands it,
    which make net2's divisions.

    It inherits the config, both datasets and the seeds at the fork.
    Everything else travels through one pipe each way, pickled: the
    parameters and the clouds to dump go with each epoch's message, net1's
    cloud with "divide", and net2's branch table with the answer. A
    message is a snapshot, so the run may step its networks as soon as it
    is sent. So formatting (about 6 ms per 4000-row cloud,
    `data.write_csv`), the test forwards, every write and net1's fit
    overlap training on another core.

    Per epoch the run sends, in order: ("divide", e, cloud) at net2's turn
    when `run_epoch` hands over net1's cloud for the next epoch's division
    (`divide`), and ("epoch", ...) once the epoch is trained (`submit`),
    with the phase and learning rate `run_epoch` trained it with and
    whether it is the last. The handle counts no epochs: `divide`,
    `division` and `submit` take the epoch `run_epoch` trains. The writer
    answers each "epoch" message, also with net2's division for the next
    epoch. At most one answer is unread: the run reads the answer to epoch
    e-1 at net2's turn of epoch e, for the division it trains on
    (`division`), or, in any other epoch, before it sends epoch e.

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
        self.cfg = cfg
        self.pending = False  # an answer not read yet
        fds: list[int] = []
        try:
            for _ in range(2):
                fds.extend(os.pipe())
            self.pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            raise StructuralError(f"cannot start the epoch writer: {exc}") from exc
        request_r, request_w, reply_r, reply_w = fds
        if self.pid == 0:
            # The writer never returns into the caller's stack: no atexit
            # handlers, no second flush of inherited stdio buffers.
            code = 1
            try:
                # Ctrl-C reaches the whole process group; the run drains
                # the writer, so its last epoch is written out in full.
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for fd in (request_w, reply_r):
                    os.close(fd)
                with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
                    _serve_run(requests, replies, run_dir, cfg, train, test, seeds)
                code = 0
            finally:
                os._exit(code)
        for fd in (request_r, reply_w):
            os.close(fd)
        self.requests = os.fdopen(request_w, "wb")
        self.replies = os.fdopen(reply_r, "rb")

    def _send(self, message: tuple) -> None:
        try:
            pickle.dump(message, self.requests, pickle.HIGHEST_PROTOCOL)
            self.requests.flush()
        except BrokenPipeError:
            raise StructuralError(_WRITER_GONE) from None

    def _answer(self) -> tuple[BranchTable | None, dict] | None:
        """Read the writer's answer to the epoch in flight, if it is unread,
        and raise its error. Returns the division the writer made since its
        last answer, or None."""
        if not self.pending:
            return None
        self.pending = False
        try:
            error, division = pickle.load(self.replies)
        except EOFError:
            raise StructuralError(_WRITER_GONE) from None
        if error is not None:
            raise error
        return division

    def divide(self, epoch: int, cloud: LossProfile) -> None:
        """At net2's turn of `epoch`, hand over net1's `cloud`, as its loop
        left it, for net2's division of the next epoch."""
        self._send(("divide", epoch, cloud))

    def division(self, epoch: int) -> tuple[BranchTable | None, dict]:
        """Net2's branch table for `epoch` (None: it falls back) and its
        report: `selection.divide` of net1's cloud, from the writer's answer
        to the epoch before."""
        return self._answer()

    def submit(self, epoch: int, flats: list[np.ndarray], trained: Epoch, last: bool) -> None:
        """Send `epoch`'s parameters and what `run_epoch` returned for it:
        the phase and learning rate it trained with, its selection reports,
        and its profiles (None: net1's, handed over with `divide`) if the
        epoch's clouds are due for dumping (`_scatter_due`). `last` marks
        the run's final epoch, after which the writer writes the
        checkpoints and summary.json."""
        self._answer()
        dumps = trained.profiles if _scatter_due(self.cfg, epoch, last) else []
        self._send(("epoch", epoch, *trained[:3], flats, dumps, last))
        self.pending = True

    def __enter__(self) -> _EpochWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an error the writer still finishes the epoch in flight: it
        # exits at its next read, once the request pipe is closed.
        try:
            if exc_type is None:
                self._answer()
        finally:
            for stream in (self.requests, self.replies):
                # Closes the pipe also when a writer that died left part
                # of a request unsent.
                with suppress(BrokenPipeError):
                    stream.close()
            os.waitpid(self.pid, 0)


def run(cfg: ExperimentConfig, output_dir: Path | str | None = None) -> Path:
    """Execute one experiment end to end; returns the run directory.

    Claims the directory (an empty or new one) and trains; the epoch
    writer makes everything inside it."""
    run_dir = _resolve_run_dir(cfg, output_dir)
    try:
        if run_dir.is_dir() and any(run_dir.iterdir()):
            raise StructuralError(
                f"refusing to write into non-empty directory {run_dir}; "
                "choose a fresh output_dir"
            )
        run_dir.mkdir(parents=True, exist_ok=True)
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
        offload = None if cfg.single_network else writer
        for epoch in range(1, cfg.total_epochs + 1):
            trained = run_epoch(epoch, workspaces, train, cfg, streams, offload)
            writer.submit(epoch, [ws.flat for ws in workspaces], trained, epoch == cfg.total_epochs)
    return run_dir


def dump_scatter(run_dir: Path | str, epoch: int, net: str) -> Path:
    """Path of an existing per-epoch scatter CSV; absence is an error."""
    if net not in NET_NAMES:
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
    payload = read_json(path, "summary", StructuralError)
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
        one_sided = set(a) ^ set(b)
        if one_sided and prefix != "config":
            raise StructuralError(
                f"summary key mismatch at {prefix or '<root>'}: {sorted(one_sided)}"
            )
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else key
            if key in one_sided:
                # A setting one side's version lacks: one leaf, whatever its type.
                out[path] = {"a": a.get(key), "b": b.get(key), "delta": None}
            else:
                _walk_deltas(a[key], b[key], path, out)
        return
    if _is_number(a) and _is_number(b):
        out[prefix] = {"a": a, "b": b, "delta": b - a}
    elif a != b:
        # A number against null (an empty branch's precision), or two
        # differing lists, strings or booleans: no arithmetic delta. Equal
        # non-numbers print nothing.
        out[prefix] = {"a": a, "b": b, "delta": None}


def compare(summary_a: Path | str | dict, summary_b: Path | str | dict) -> dict:
    """Per-metric numeric deltas (b minus a) between two run summaries.

    A `config` key that one summary lacks, a setting added or removed
    between their versions, is reported with that side null and no delta;
    a key missing anywhere else is a StructuralError."""
    a = summary_a if isinstance(summary_a, dict) else load_summary(summary_a)
    b = summary_b if isinstance(summary_b, dict) else load_summary(summary_b)
    deltas: dict = {}
    _walk_deltas(a, b, "", deltas)
    return deltas
