"""Experiment orchestration: datasets, the epoch loop, and run artifacts.

A run directory is self-describing: manifest.json (written before the
first report) holds the full config plus derived seeds, reports/ holds
one JSON per epoch, scatter/ holds per-network normalized loss clouds,
checkpoints/ holds the final parameters, and summary.json condenses the
run into scalars. A forked writer process writes every one of them.
Summaries contain no paths or timestamps, so identical configs and seeds
produce byte-identical summary files.

The writer is also the run's second worker. In a two-network selection
epoch it makes every read of a network that nobody is stepping: net1's
profile and mixture fit (net2's division for the next epoch) as soon as
net1's loop ends, and each batch's partner softmax. The run process
keeps what must be sequential: net2's profile and fit, both batch loops
and the SGD steps.
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
from .lossprofile import LossProfile, write_scatter
from .network import Layers, Workspace, init_network, layer_views, one_blas_thread, save_checkpoint
from .rng import NET_NAMES, RngStreams, derive_seed, stream
from .selection import selection_report
from .training import (
    BranchTable,
    _branch_table,
    divide,
    evaluate,
    plain_ce_epoch,
    run_dst_epoch,
    softmax_of,
)

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


def _offloads(cfg: ExperimentConfig, epoch: int) -> bool:
    """Whether `epoch` is a two-network selection epoch, whose reads of
    frozen networks the writer makes."""
    return not (cfg.single_network or cfg.ce_only) and cfg.warmup_epochs < epoch <= cfg.total_epochs


# The loss-profile fields a dump slot holds, and their dtypes.
_PROFILE_FIELDS = {
    "l_nis": np.float64,
    "l_prd": np.float64,
    "predicted": np.int64,
    "nrm_nis": np.float64,
    "nrm_prd": np.float64,
    "states": np.int64,
}

# One published partner softmax on the progress pipe: (loop tag, batch).
_RECORD = struct.Struct("<II")


def _loop_tag(epoch: int, i: int) -> int:
    """The tag of net i's loop in `epoch`; it grows over the run."""
    return 2 * epoch + i


def _shared_arrays(cfg: ExperimentConfig, train: NoisyDataset) -> dict[str, np.ndarray]:
    """The arrays the run and the writer share, zeroed, in one anonymous
    shared mapping made before the fork, so each process sees the other's
    writes. Slots indexed by `epoch % 2` are reused two epochs later, once
    the run has read the writer's answer to the epoch in between.

    - params[epoch % 2, i]: net i's flat parameters at the end of its epoch;
    - order[epoch % 2, i]: the batch order of net i's loop;
    - partner[i]: the partner softmax of net i's loop, rows in batch order;
    - keep, lean, wrong [epoch % 2]: net2's branch table for that epoch;
    - each profile field [epoch % 2, i]: net i's loss profile, made by the
      run, for the epoch's scatter dump;
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
        **{name: ((2, 2, n), dtype) for name, dtype in _PROFILE_FIELDS.items()},
        "position": ((1,), np.int64),
    }
    offsets, total = [], 0
    for shape, dtype in specs.values():
        offsets.append(total)
        total += -(-int(np.prod(shape)) * np.dtype(dtype).itemsize // 64) * 64
    mapping = mmap.mmap(-1, total)
    return {
        name: np.ndarray(shape, dtype, buffer=mapping, offset=offset)
        for (name, (shape, dtype)), offset in zip(specs.items(), offsets)
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
    """Writer loop: write every file of the run, and make the reads of
    frozen networks the run hands over. Messages, in the order the run
    sends them:

    - ("loop", e): net1's loop of epoch e starts; serve its partner
      softmaxes from net2's parameters of epoch e-1.
    - ("net1", e): net1's parameters of epoch e are in their slot. Serve
      net2's partner softmaxes (net2 trains in epoch e on a division made
      here), then make net2's division for epoch e+1 from net1's profile.
    - ("epoch", e, report, dumps): epoch e is trained. Write its dumps
      (each True is the run's profile in its slot, each False this
      process's), evaluate it and write its report; after the final epoch,
      if no error has occurred, the checkpoints and summary.json.

    Each "epoch" message is answered with the first error so far, or None,
    and with net2's division for epoch e+1 (its fit errors and report) when
    one was made. The dataset, its sidecar and the manifest come first. A
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
    # nets[slot][i]: views of the parameter slots.
    nets = [[layer_views(flat, sizes) for flat in slot] for slot in shared["params"]]
    ensemble = NET_NAMES[:1] if cfg.single_network else NET_NAMES
    reports: list[dict] = []
    profiles: dict[int, LossProfile] = {}  # net1's, per epoch, made here
    divisions: dict[int, tuple[dict, dict]] = {}  # net2's fit errors and report, per epoch

    def offload(kind: str, epoch: int) -> None:
        slot = epoch % 2
        if kind == "loop":
            i, partner = 0, nets[1 - slot][1]
        elif epoch in divisions and not divisions[epoch][1]["fallback"]:
            i, partner = 1, nets[slot][0]
        else:
            i, partner = 1, None
        if partner is not None:
            _serve_partner(
                partner, shared["order"][slot, i], shared["partner"][i], _loop_tag(epoch, i),
                shared["position"], progress, train.features, cfg.batch_size,
            )
        if kind == "net1" and _offloads(cfg, epoch + 1):
            prof, division, fit_errors = divide(nets[slot][0], train, cfg, "net1")
            profiles[epoch + 1] = prof
            report = {"fallback": True}
            if division is not None:
                for name, column in zip(("keep", "lean", "wrong"), _branch_table(division)):
                    shared[name][1 - slot] = column
                report = {**selection_report(division, train), "fallback": False}
            divisions[epoch + 1] = (fit_errors, report)

    while True:
        try:
            message = pickle.load(requests)
        except EOFError:
            return
        kind, epoch = message[:2]
        if kind != "epoch":
            try:
                offload(kind, epoch)
            except Exception as exc:  # noqa: BLE001 - answered to the run
                errors.append(exc)
            continue
        report, dumps = message[2:]
        slot = epoch % 2
        try:
            for i, (name, own) in enumerate(zip(NET_NAMES, dumps)):
                prof = (
                    LossProfile(**{field: shared[field][slot, i] for field in _PROFILE_FIELDS})
                    if own
                    else profiles[epoch]
                )
                _write(scatter_csv_path(run_dir, epoch, name), write_scatter(epoch, name, prof))
        except Exception as exc:  # noqa: BLE001 - answered to the run
            errors.append(exc)
        profiles.pop(epoch, None)
        try:
            params = dict(zip(NET_NAMES, nets[slot]))
            report["test_accuracy"] = evaluate(params, test.features, test.true_labels, ensemble)
            text = json.dumps(report, indent=2, sort_keys=True)
            _write(run_dir / "reports" / f"epoch_{epoch:03d}.json", text + "\n")
            reports.append(report)
            if epoch == cfg.total_epochs and not errors:
                for name, layers in params.items():
                    _write(run_dir / "checkpoints" / f"{name}.json", save_checkpoint(layers))
                summary = _summary(manifest, reports)
                text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
                _write(run_dir / "summary.json", text + "\n")
        except Exception as exc:  # noqa: BLE001 - answered to the run
            errors.append(exc)
        divisions.pop(epoch, None)
        reply = (errors[0] if errors else None, divisions.get(epoch + 1))
        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


_WRITER_GONE = "the epoch writer process ended early"


class _EpochWriter:
    """A forked process that writes every file of a run (`_serve_run`) and
    makes the reads of frozen networks a two-network epoch hands it.

    It inherits the config, both datasets and the seeds at the fork.
    Parameters, batch orders, net2's branch tables, partner softmaxes and
    the run's loss profiles travel through arrays shared at the fork
    (`_shared_arrays`); the pipe carries only small messages. So
    formatting (about 15 ms per 4000-row cloud, most of it `%.17g`), the
    test forwards, every write, net1's profile and fit and the partner
    forwards overlap training on another core.

    Per epoch the run sends, in order: ("loop", e) when net1 trains on a
    division with a partner; ("net1", e) once net1's epoch is over, when
    this or the next epoch is a two-network selection epoch; and ("epoch",
    ...) once the epoch is trained. The writer answers each "epoch"
    message, also with net2's division for the next epoch. At most one
    answer is unread: the run reads the answer to epoch e-1 just before
    net2's loop of epoch e (the division it trains on) or, in any other
    epoch, before it sends epoch e. It never waits for a partner softmax:
    `loop` returns a lookup that yields a batch once the progress pipe says
    the writer published it, and None before.

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
        self.shared = _shared_arrays(cfg, train)
        self.epoch = 1  # the epoch being trained
        self.pending = False  # an answer not read yet
        self.net1_sent = 0  # the last epoch whose net1 snapshot was sent
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        progress_r, progress_w = os.pipe()
        self.pid = os.fork()
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

    def _answer(self) -> tuple[dict, dict] | None:
        """The writer's answer to the epoch in flight; raises its error."""
        self.pending = False
        try:
            error, division = pickle.load(self.replies)
        except EOFError:
            raise StructuralError(_WRITER_GONE) from None
        if error is not None:
            raise error
        return division

    def wait(self) -> None:
        """Block until the epoch in flight is finished; raise its error."""
        if self.pending:
            self._answer()

    def loop(self, i: int, order: np.ndarray) -> Callable[[int], np.ndarray | None]:
        """Net i's refined loop starts in `order` (net2's went with
        `net1_trained`). Returns the lookup of published partner softmaxes."""
        if i == 0:
            self.shared["order"][self.epoch % 2, 0] = order
            self._send(("loop", self.epoch))
        tag, batch_size = _loop_tag(self.epoch, i), self.cfg.batch_size
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

    def net1_trained(self, flat: np.ndarray, order2: np.ndarray | None) -> None:
        """Net1's epoch is over: hand its parameters (and net2's batch order)
        to the writer when this or the next epoch is offloaded."""
        epoch = self.epoch
        if not (_offloads(self.cfg, epoch) or _offloads(self.cfg, epoch + 1)):
            return
        self.shared["params"][epoch % 2, 0] = flat
        if order2 is not None:
            self.shared["order"][epoch % 2, 1] = order2
        self._send(("net1", epoch))
        self.net1_sent = epoch

    def division(self) -> tuple[BranchTable | None, dict, dict[str, str]]:
        """Net2's division for this epoch, from the answer to the last one."""
        fit_errors, report = self._answer()
        if report["fallback"]:
            return None, report, fit_errors
        slot = self.epoch % 2
        table = tuple(self.shared[name][slot] for name in ("keep", "lean", "wrong"))
        return table, report, fit_errors

    def submit(self, flats: list[np.ndarray], report: dict, dumps: list) -> None:
        """Send one epoch's parameters, report and profiles to dump (None:
        the writer's own)."""
        self.wait()
        slot = self.epoch % 2
        for i, flat in enumerate(flats):
            if i > 0 or self.net1_sent != self.epoch:
                self.shared["params"][slot, i] = flat
        for i, prof in enumerate(dumps):
            if prof is not None:
                for field in _PROFILE_FIELDS:
                    self.shared[field][slot, i] = getattr(prof, field)
        self._send(("epoch", self.epoch, report, [prof is not None for prof in dumps]))
        self.pending = True
        self.epoch += 1

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
            os.close(self.progress)
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
                for i, (ws, rng) in enumerate(zip(workspaces, streams.shuffle)):
                    plain_ce_epoch(ws, lr, train, cfg.batch_size, rng)
                    if i == 0:
                        # After the last warmup epoch's net1 (the config
                        # keeps at least one), the writer makes net2's
                        # first division.
                        writer.net1_trained(ws.flat, None)
            else:
                phase = "dst"
                offload = None if cfg.single_network else writer
                selection, profiles = run_dst_epoch(workspaces, lr, train, cfg, streams, offload)
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
