"""Experiment orchestration: datasets, the epoch loop, and run artifacts.

A run directory is self-describing: manifest.json (written before the
first report) holds the full config plus derived seeds, reports/ holds
one JSON per epoch, scatter/ holds per-network normalized loss clouds,
checkpoints/ holds the final parameters, and summary.json condenses the
run into scalars. `run` only claims the directory and trains; a forked
writer process makes everything inside it: the three subdirectories,
every file, and each report whole.
Summaries contain no paths or timestamps, so identical configs and seeds
produce byte-identical summary files.

The writer is also the run's second worker. `training.run_epoch` decides
which reads of networks that nobody is stepping it makes, one message per
network turn: each batch's partner softmax, and at net2's turn net1's
profile and mixture fit (net2's division for the next epoch). The writer
only carries them out. The run process keeps what must be sequential:
net2's profile and fit, both batch loops and the SGD steps.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import pickle
import signal
import struct
from contextlib import suppress
from dataclasses import fields
from pathlib import Path
from typing import Callable

import numpy as np

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
from .errors import ConfigError, NotFoundError, NumericError, StructuralError
from .lossprofile import LossProfile, profile, write_scatter
from .network import Layers, Workspace, init_network, layer_views, one_blas_thread, save_checkpoint
from .rng import NET_NAMES, RngStreams, derive_seed, stream
from .selection import BRANCH_NAMES, BranchTable, divide
from .training import evaluate, run_epoch, softmax_of

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


# One published partner softmax on the progress pipe: (loop tag, batch).
_RECORD = struct.Struct("<II")


def _loop_tag(epoch: int, i: int) -> int:
    """The tag of net i's loop in `epoch`; it grows over the run."""
    return 2 * epoch + i


def _shared_arrays(cfg: ExperimentConfig, train: NoisyDataset) -> dict[str, np.ndarray]:
    """The arrays the run and the writer share, zeroed, each in its own
    anonymous shared mapping made before the fork, so each process sees the
    other's writes. Slots indexed by `epoch % 2` are reused two epochs
    later, once the run has read the writer's answer to the epoch in
    between.

    - params[epoch % 2, i]: net i's flat parameters; net1's from its turn's
      end when net2's turn hands them over (`_EpochWriter.loop`), both at
      the end of the epoch;
    - order[epoch % 2, i]: the batch order of net i's loop;
    - partner[i]: the partner softmax of net i's loop, rows in batch order;
    - keep, lean, wrong [epoch % 2]: net2's branch table for that epoch;
    - each field of `LossProfile` [epoch % 2, i], with the dtype the field
      declares: net i's loss cloud for the epoch's scatter dump, put there
      by the process that made it;
    - position[0]: the run's loop tag << 32 | its batch, which the writer
      reads to skip batches the run has reached (a hint only: the progress
      pipe says what is published).
    """
    sizes = cfg.layer_sizes()
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    n = train.n_samples
    specs = {
        "params": ((2, 2, n_params), np.float64),
        "order": ((2, 2, n), np.int64),
        "partner": ((2, n, cfg.n_classes), np.float64),
        "keep": ((2, n), np.float64),
        "lean": ((2, n), np.float64),
        "wrong": ((2, n), np.bool_),
        **{f.name: ((2, 2, n), f.metadata["dtype"]) for f in fields(LossProfile)},
        "position": ((1,), np.int64),
    }
    return {
        name: np.ndarray(
            shape, dtype, buffer=mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
        )
        for name, (shape, dtype) in specs.items()
    }


def _serve_partner(
    partner: Layers,
    order: np.ndarray,
    rows: np.ndarray,
    tag: int,
    position: np.ndarray,
    progress: int,
    features: np.ndarray,
    batch_size: int,
) -> None:
    """Publish the partner softmax of each batch of loop `tag` that the run
    has not reached, in the run's batch order and shapes, so the bytes are
    the ones the run would compute. A record on the progress pipe follows
    each batch's rows. Stops when the run has left the loop; a non-finite
    logit stops it too, so the run computes that batch itself and raises.
    """
    for b, start in enumerate(range(0, len(order), batch_size)):
        run = int(position[0])
        if run >> 32 > tag:
            return
        if run >> 32 == tag and run & 0xFFFFFFFF >= b:
            continue
        idx = order[start : start + batch_size]
        try:
            rows[start : start + len(idx)] = softmax_of(partner, features[idx])
        except NumericError:
            return
        try:
            os.write(progress, _RECORD.pack(tag, b))
        except (BlockingIOError, BrokenPipeError):
            return


def _serve_run(
    requests,
    replies,
    progress: int,
    shared: dict[str, np.ndarray],
    run_dir: Path,
    cfg: ExperimentConfig,
    train: NoisyDataset,
    test: CleanDataset,
    seeds: dict[str, int],
) -> None:
    """Writer loop: make everything inside the run directory, and carry
    out the reads of frozen networks that `training.run_epoch` asks for.
    Messages, in the order the run sends them:

    - ("loop", e, i, serve, divide_next): net i's turn of epoch e starts;
      its batch order, and at net2's turn net1's parameters of epoch e, are
      in their slots. With `serve`, publish its partner softmaxes from the
      partner's latest parameters: net2's of epoch e-1 for net1, net1's of
      epoch e for net2. With `divide_next`, then profile net1, put its
      cloud in its profile slot of epoch e+1 and make net2's division for
      epoch e+1 from it.
    - ("epoch", e, selection, n_dumps): epoch e is trained, with these
      selection reports (None outside selection epochs). Write the clouds
      of its first `n_dumps` networks from their profile slots (one slot
      per field of `LossProfile`), evaluate it and write its report, built
      here whole; after the final epoch, if no error has occurred, the
      checkpoints and summary.json.

    Each "epoch" message is answered with the first error so far, or None,
    and with the report of the division made since the last answer, or
    None. The subdirectories come first, then the dataset, its
    sidecar and the manifest. A subdirectory that cannot be made is an
    error, and the ones made before it are removed, so the run leaves the
    directory as it found it. A failed dump does not stop the report.

    Every message names its epoch, so the loop counts nothing. It keeps
    only what it answers: the first error (the run stops at the answer
    that carries it, and any error stops the final files), the division's
    report not answered yet, and the reports the summary condenses.
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
        table, sidecar = save_dataset(train)
        _write(run_dir / "dataset.csv", table)
        _write(sidecar_path(run_dir / "dataset.csv"), sidecar)
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write(run_dir / "manifest.json", text.encode())
    except Exception as exc:  # noqa: BLE001 - answered to the run
        error = exc
    sizes = cfg.layer_sizes()
    # nets[slot][i]: views of the parameter slots.
    nets = [[layer_views(flat, sizes) for flat in slot] for slot in shared["params"]]
    ensemble = NET_NAMES[:1] if cfg.single_network else NET_NAMES
    reports: list[dict] = []
    division = None  # net2's report for the next epoch, not answered yet
    while True:
        try:
            message = pickle.load(requests)
        except EOFError:
            return
        epoch = message[1]
        slot = epoch % 2
        if message[0] == "loop":
            i, serve, divide_next = message[2:]
            try:
                if serve:
                    _serve_partner(
                        nets[(epoch - 1 + i) % 2][1 - i], shared["order"][slot, i],
                        shared["partner"][i], _loop_tag(epoch, i), shared["position"],
                        progress, train.features, cfg.batch_size,
                    )
                if divide_next:
                    prof = profile(nets[slot][0], train)
                    for f in fields(LossProfile):
                        shared[f.name][1 - slot, 0] = getattr(prof, f.name)
                    table, division = divide(prof, cfg, "net1")
                    if table is not None:
                        for name, column in zip(("keep", "lean", "wrong"), table):
                            shared[name][1 - slot] = column
            except Exception as exc:  # noqa: BLE001 - answered to the run
                error = error or exc
            continue
        selection, n_dumps = message[2:]
        try:
            for i, name in enumerate(NET_NAMES[:n_dumps]):
                prof = LossProfile(**{f.name: shared[f.name][slot, i] for f in fields(LossProfile)})
                _write(scatter_csv_path(run_dir, epoch, name), write_scatter(epoch, name, prof))
        except Exception as exc:  # noqa: BLE001 - answered to the run
            error = error or exc
        try:
            params = dict(zip(NET_NAMES, nets[slot]))
            report = {
                "epoch": epoch,
                "phase": cfg.phase_at(epoch),
                "learning_rate": cfg.learning_rate_at(epoch),
                "selection": selection,
                "test_accuracy": evaluate(params, test.features, test.true_labels, ensemble),
            }
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            _write(run_dir / "reports" / f"epoch_{epoch:03d}.json", text.encode())
            reports.append(report)
            if epoch == cfg.total_epochs and error is None:
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
    It also carries out the reads of frozen networks that
    `training.run_epoch` hands it.

    It inherits the config, both datasets and the seeds at the fork.
    Parameters, batch orders, net2's branch tables, partner softmaxes and
    the loss profiles travel through arrays shared at the fork
    (`_shared_arrays`); the pipe carries only small messages. So
    formatting (about 6 ms per 4000-row cloud, `data.write_csv`), the test
    forwards, every write, net1's profile and fit and the partner forwards
    overlap training on another core.

    Per epoch the run sends, in order: one ("loop", ...) message per
    network turn in which `run_epoch` gives the writer work (`loop`), and
    ("epoch", ...) once the epoch is trained (`submit`). The handle counts
    no epochs: `loop`, `division` and `submit` take the epoch `run_epoch`
    trains. The writer answers each "epoch" message, also with net2's
    division for the next epoch. At most one answer is unread: the run
    reads the answer to epoch e-1 at net2's turn of epoch e, for the
    division it trains on (`division`), or, in any other epoch, before it
    sends epoch e. It never waits for a partner softmax: `loop` returns a
    lookup that yields a batch once the progress pipe says the writer
    published it, and None before.

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
            self.shared = _shared_arrays(cfg, train)
            for _ in range(3):
                fds.extend(os.pipe())
            self.pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            raise StructuralError(f"cannot start the epoch writer: {exc}") from exc
        request_r, request_w, reply_r, reply_w, progress_r, progress_w = fds
        if self.pid == 0:
            # The writer never returns into the caller's stack: no atexit
            # handlers, no second flush of inherited stdio buffers.
            code = 1
            try:
                # Ctrl-C reaches the whole process group; the run drains
                # the writer, so its last epoch is written out in full.
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for fd in (request_w, reply_r, progress_r):
                    os.close(fd)
                os.set_blocking(progress_w, False)
                with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
                    _serve_run(
                        requests, replies, progress_w, self.shared, run_dir, cfg, train, test, seeds
                    )
                code = 0
            finally:
                os._exit(code)
        for fd in (request_r, reply_w, progress_w):
            os.close(fd)
        os.set_blocking(progress_r, False)
        self.progress = progress_r
        self.requests = os.fdopen(request_w, "wb")
        self.replies = os.fdopen(reply_r, "rb")

    def _send(self, message: tuple) -> None:
        try:
            pickle.dump(message, self.requests, pickle.HIGHEST_PROTOCOL)
            self.requests.flush()
        except BrokenPipeError:
            raise StructuralError(_WRITER_GONE) from None

    def _answer(self) -> dict | None:
        """Read the writer's answer to the epoch in flight, if it is unread,
        and raise its error. Returns the report of the division the writer
        made since its last answer, or None."""
        if not self.pending:
            return None
        self.pending = False
        try:
            error, report = pickle.load(self.replies)
        except EOFError:
            raise StructuralError(_WRITER_GONE) from None
        if error is not None:
            raise error
        return report

    def loop(
        self, epoch: int, i: int, order: np.ndarray, net1: np.ndarray, serve: bool,
        divide_next: bool,
    ) -> Callable[[int], np.ndarray | None]:
        """Net i's turn of `epoch` starts, its loop in `order`, and `net1`
        holds net1's flat parameters as they stand. Asks the writer to
        publish the turn's partner softmaxes (`serve`) and, at net2's turn,
        to divide net1's cloud for the next epoch (`divide_next`); net1's
        parameters go to it at net2's turn, when they are final. Returns the
        lookup of batch b's partner softmax: the rows the writer published,
        else None."""
        slot = epoch % 2
        self.shared["order"][slot, i] = order
        if i == 1:
            self.shared["params"][slot, 0] = net1
        self._send(("loop", epoch, i, serve, divide_next))
        tag, batch_size = _loop_tag(epoch, i), self.cfg.batch_size
        rows, position = self.shared["partner"][i], self.shared["position"]
        ready = np.zeros(-(-len(order) // batch_size), dtype=bool)

        def published(b: int) -> np.ndarray | None:
            position[0] = tag << 32 | b
            if not ready[b]:
                with suppress(BlockingIOError):
                    for seen, batch in _RECORD.iter_unpack(os.read(self.progress, 1 << 16)):
                        ready[batch] |= seen == tag
            return rows[b * batch_size : (b + 1) * batch_size] if ready[b] else None

        return published

    def division(self, epoch: int) -> tuple[BranchTable | None, dict]:
        """Net2's branch table for `epoch` (None: it falls back) and its
        report: `selection.divide` of net1's cloud, from the writer's answer
        to the epoch before."""
        report = self._answer()
        table = tuple(self.shared[name][epoch % 2] for name in ("keep", "lean", "wrong"))
        return None if report["fallback"] else table, report

    def submit(
        self, epoch: int, flats: list[np.ndarray], selection: dict | None, profiles: list
    ) -> None:
        """Send `epoch`'s parameters and selection reports, and its profiles
        (None: net1's, which the writer put in its slot) if the epoch's
        clouds are due for dumping (`_scatter_due`)."""
        self._answer()
        slot = epoch % 2
        dumps = profiles if _scatter_due(self.cfg, epoch) else []
        # In an epoch where net2's turn handed net1 over (`loop`), net1's
        # slot already holds these bytes, and the writer may be reading it:
        # writing the same bytes again changes nothing it reads.
        for i, flat in enumerate(flats):
            self.shared["params"][slot, i] = flat
        for i, prof in enumerate(dumps):
            if prof is not None:
                for f in fields(LossProfile):
                    self.shared[f.name][slot, i] = getattr(prof, f.name)
        self._send(("epoch", epoch, selection, len(dumps)))
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
            os.close(self.progress)
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
            selection, profiles = run_epoch(epoch, workspaces, train, cfg, streams, offload)
            writer.submit(epoch, [ws.flat for ws in workspaces], selection, profiles)
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
