import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dstlab import cli, config, data, lab, network, selection, training
from dstlab.config import ExperimentConfig, config_from_dict, config_to_dict
from dstlab.data import NOISE_KINDS, STATE_NAMES, CleanDataset, inject_noise
from dstlab.errors import (
    ConfigError,
    GmmFitError,
    LabError,
    NotFoundError,
    NumericError,
    StructuralError,
)
from dstlab.lab import compare, dump_scatter, load_summary, run, scatter_csv_path
from dstlab.lossprofile import minmax_normalize
from dstlab.network import Workspace, init_network
from dstlab.rng import NET_NAMES, RngStreams
from dstlab.selection import BRANCH_NAMES
from oracles import load_checkpoint, load_dataset, write_scatter_reference

# The files the writer makes in a run directory before its first report.
START_FILES = ("dataset.csv", "manifest.json")


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        n_classes=3,
        per_class=20,
        test_per_class=10,
        n_features=2,
        hidden_sizes=[8],
        total_epochs=2,
        warmup_epochs=1,
        batch_size=8,
        scatter_every=1,
        master_seed=2,
        data_seed=3,
        noise_rate=0.2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "run"
    return run(small_config(), out), small_config()


class TestRunArtifacts:
    def test_manifest_written_with_config_and_seeds(self, smoke_run):
        run_dir, cfg = smoke_run
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["format"] == "dstlab-manifest"
        assert manifest["version"] == 1
        assert manifest["config"]["per_class"] == 20
        assert set(manifest["seeds"]) == {"master", "data", "noise"}
        assert manifest["n_train"] == 60
        assert manifest["n_test"] == 30

    def test_dataset_csv_and_manifest(self, smoke_run):
        run_dir, _ = smoke_run
        assert not (run_dir / "dataset.csv.json").exists()
        assert load_dataset(run_dir).n_samples == 60

    def test_epoch_reports_track_phase(self, smoke_run):
        run_dir, _ = smoke_run
        report1 = json.loads((run_dir / "reports" / "epoch_001.json").read_text())
        report2 = json.loads((run_dir / "reports" / "epoch_002.json").read_text())
        assert report1["phase"] == "warmup"
        assert report1["selection"] is None
        assert report2["phase"] == "dst"
        assert set(report2["test_accuracy"]) == {"net1", "net2", "ensemble"}

    def test_final_checkpoints_reload(self, smoke_run):
        run_dir, cfg = smoke_run
        for name in ("net1", "net2"):
            params = load_checkpoint(run_dir / "checkpoints" / f"{name}.json")
            assert network.sizes_of(params) == cfg.layer_sizes()

    def test_summary_contents(self, smoke_run):
        run_dir, _ = smoke_run
        summary = load_summary(run_dir)
        assert summary["format"] == "dstlab-summary"
        assert "output_dir" not in summary["config"]
        for net in ("net1", "net2", "ensemble"):
            stats = summary["accuracy"][net]
            assert set(stats) == {"best", "final", "last10_mean"}
            assert 0.0 <= stats["final"] <= 1.0
            assert stats["best"] >= stats["final"] - 1e-12
        assert summary["final_branches"]["net1"]["labeled"]["size"] >= 0
        assert summary["fallback_epochs"] == {"net1": [], "net2": []}

    def test_scatter_written_for_dst_epochs(self, smoke_run):
        run_dir, _ = smoke_run
        for net in ("net1", "net2"):
            path = dump_scatter(run_dir, 2, net)
            rows = path.read_text().strip().split("\n")
            assert len(rows) == 61
        assert not scatter_csv_path(run_dir, 1, "net1").exists()

    def test_scatter_states_are_valid(self, smoke_run):
        run_dir, _ = smoke_run
        with open(dump_scatter(run_dir, 2, "net1"), newline="") as fh:
            states = {int(row["state"]) for row in csv.DictReader(fh)}
        assert states <= {1, 2, 3, 4, 5}


def run_bytes(run_dir) -> dict[str, bytes]:
    """Every file of a run directory by relative path."""
    return {
        str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()
    }


def cloud_fields(prof) -> list[str]:
    """Each field of a `LossProfile` as `name:dtype:size:sha256` of its bytes."""
    return [
        f"{f.name}:{value.dtype.str}:{value.size}:{hashlib.sha256(value.tobytes()).hexdigest()}"
        for f in dataclasses.fields(prof)
        for value in [getattr(prof, f.name)]
    ]


def log_call(log: Path, *fields) -> None:
    """Append `pid fields...` as one line to `log`, with an os-level append,
    so a call counts whichever process of the run makes it."""
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, " ".join(map(str, (os.getpid(), *fields))).encode() + b"\n")
    finally:
        os.close(fd)


def logged_calls(log: Path) -> list[list[str]]:
    """The lines `log_call` appended to `log`, split into fields."""
    return [line.split() for line in log.read_text().splitlines()] if log.exists() else []


class TestRunDirectoryRebuildsTheTrainingSet:
    # A run keeps no other record of its training set than dataset.csv and
    # manifest.json.
    @pytest.mark.parametrize("kind, n_features", [("sym-c1", 1), ("asym", 2), ("asym", 5)])
    def test_training_set_and_its_noise_come_back(self, tmp_path, kind, n_features):
        cfg = small_config(noise_kind=kind, noise_rate=0.4, n_features=n_features)
        run_dir = run(cfg, tmp_path / "r")
        loaded = load_dataset(run_dir)
        train = lab.build_datasets(cfg)[0]
        assert loaded.features.shape == train.features.shape
        assert loaded.features.tobytes() == train.features.tobytes()
        assert np.array_equal(loaded.true_labels, train.true_labels)
        assert np.array_equal(loaded.noisy_labels, train.noisy_labels)
        assert loaded.n_classes == train.n_classes
        assert (loaded.noisy_labels != loaded.true_labels).any()
        # The noisy labels are drawn again from the clean set and the
        # manifest's noise kind, rate and seed.
        manifest = json.loads((run_dir / "manifest.json").read_text())
        clean = CleanDataset(loaded.features, loaded.true_labels, loaded.n_classes)
        redrawn = inject_noise(
            clean,
            manifest["config"]["noise_kind"],
            manifest["config"]["noise_rate"],
            manifest["seeds"]["noise"],
        )
        assert np.array_equal(redrawn.noisy_labels, loaded.noisy_labels)


class TestEvaluation:
    @pytest.mark.parametrize("single_network", [False, True])
    def test_one_test_set_forward_per_net_and_epoch(
        self, tmp_path, monkeypatch, forks, single_network
    ):
        cfg = small_config(total_epochs=3, single_network=single_network)
        n_test = cfg.n_classes * cfg.test_per_class
        assert n_test not in (cfg.n_classes * cfg.per_class, cfg.batch_size)
        # Every forward, in either process of the run, logs its pid and rows.
        log = tmp_path / "forwards"
        for module in (network, training):
            real_forward = getattr(module, "forward_cached")

            def counting_forward(params, x, *args, real=real_forward, **kwargs):
                log_call(log, len(x))
                return real(params, x, *args, **kwargs)

            monkeypatch.setattr(module, "forward_cached", counting_forward)
        run(cfg, tmp_path / "r")
        pids = [pid for pid, rows in logged_calls(log) if int(rows) == n_test]
        assert len(pids) == 2 * cfg.total_epochs
        assert len(forks) == 1 and set(pids) == {str(forks[0])}

    @pytest.mark.parametrize("single_network", [False, True])
    def test_reports_match_the_per_net_reference(self, tmp_path, monkeypatch, single_network):
        cfg = small_config(total_epochs=3, single_network=single_network)
        fast = run(cfg, tmp_path / "fast")

        def reference(nets, features, labels, ensemble):
            # The former evaluation: four forwards, net1 alone in single mode.
            members = [nets["net1"]] if single_network else [nets["net1"], nets["net2"]]
            return {
                "net1": oracles.accuracy(nets["net1"], features, labels),
                "net2": oracles.accuracy(nets["net2"], features, labels),
                "ensemble": oracles.ensemble_accuracy(members, features, labels),
            }

        monkeypatch.setattr(lab, "evaluate", reference)
        slow = run(cfg, tmp_path / "slow")
        assert run_bytes(fast) == run_bytes(slow)


class TestReportsMatchScatter:
    def test_state_histograms_sum_to_the_source_scatter_states(self, tmp_path):
        # The report of a division and the scatter dump of its source net
        # read the same audit; they must count the same states.
        cfg = small_config(total_epochs=5)
        run_dir = run(cfg, tmp_path / "r")
        seen = set()
        for epoch in range(cfg.warmup_epochs + 1, cfg.total_epochs + 1):
            report = json.loads((run_dir / "reports" / f"epoch_{epoch:03d}.json").read_text())
            for consumer in NET_NAMES:
                entry = report["selection"][consumer]
                assert entry["fallback"] is False
                summed = {
                    name: sum(branch["states"][name] for branch in entry["branches"].values())
                    for name in STATE_NAMES
                }
                path = scatter_csv_path(run_dir, epoch, entry["source"])
                with path.open(newline="") as fh:
                    column = [int(row["state"]) for row in csv.DictReader(fh)]
                counted = {name: column.count(s) for s, name in enumerate(STATE_NAMES, start=1)}
                assert summed == counted
                seen.update(name for name, count in counted.items() if count)
        assert seen == set(STATE_NAMES)


class TestSingleNetworkDivision:
    def test_one_fit_per_selection_epoch_and_same_run(self, tmp_path, monkeypatch):
        cfg = small_config(total_epochs=4, single_network=True)
        # Each fit, in either process of the run, logs a line.
        fits = tmp_path / "fits"
        real_fit = selection.fit
        monkeypatch.setattr(selection, "fit", lambda *a, **k: log_call(fits) or real_fit(*a, **k))
        run(cfg, tmp_path / "once")
        selection_epochs = cfg.total_epochs - cfg.warmup_epochs
        assert len(logged_calls(fits)) == selection_epochs


class TestRunGuards:
    def test_refuses_non_empty_directory(self, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "keep.txt").write_text("data")
        with pytest.raises(StructuralError, match="non-empty"):
            run(small_config(), target)

    def test_existing_empty_directory_is_fine(self, tmp_path):
        target = tmp_path / "empty"
        target.mkdir()
        assert run(small_config(), target) == target


class TestDeterminism:
    def test_identical_configs_give_identical_summaries(self, tmp_path):
        a = run(small_config(), tmp_path / "a")
        b = run(small_config(), tmp_path / "b")
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_manifest_reproduces_the_run(self, tmp_path):
        first = run(small_config(), tmp_path / "first")
        manifest = json.loads((first / "manifest.json").read_text())
        cfg = config_from_dict(manifest["config"])
        second = run(cfg, tmp_path / "second")
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()

    def test_master_seed_changes_the_outcome(self, tmp_path):
        a = run(small_config(), tmp_path / "a")
        b = run(small_config(master_seed=5), tmp_path / "b")
        assert (a / "summary.json").read_bytes() != (b / "summary.json").read_bytes()


# Runs `dstlab run CONFIG`; with "off" as the second argument, it prints
# numpy's OpenBLAS thread count and then makes the thread setter unavailable.
RUN_CLI = """
import sys
from dstlab import cli, network
if sys.argv[2] == "off":
    print(network.blas_threads())
    network._openblas = lambda: None
sys.exit(cli.main(["run", sys.argv[1]]))
"""


class TestBlasThreadDeterminism:
    @staticmethod
    def run_files(tmp_path, cfg, threads: str, setter: str = "on") -> dict[str, bytes]:
        """summary.json and checkpoint bytes of a subprocess run of `cfg`
        at OPENBLAS_NUM_THREADS=`threads`; with the setter off the run
        checks that it got that many threads."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(cfg)))
        src = str(Path(__file__).resolve().parents[1] / "src")
        root = tmp_path / f"threads{threads}-{setter}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, DSTLAB_OUTPUT_ROOT=str(root))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, str(config_path), setter],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        if setter == "off":
            assert lines[0] in (threads, "None")  # None: another BLAS
        run_dir = Path(lines[-1])
        assert run_dir.is_relative_to(root)
        files = ["summary.json"] + sorted(
            f"checkpoints/{p.name}" for p in (run_dir / "checkpoints").glob("*.json")
        )
        assert files == ["summary.json", "checkpoints/net1.json", "checkpoints/net2.json"]
        return {name: (run_dir / name).read_bytes() for name in files}

    def test_one_and_two_threads_write_the_same_bytes(self, tmp_path):
        # 256-wide layers on 128-row batches are large enough for the BLAS
        # to split its matmuls across threads; with the setter off the run
        # keeps the threads it is given.
        cfg = small_config(
            n_classes=4,
            per_class=100,
            test_per_class=50,
            n_features=20,
            hidden_sizes=[256, 256],
            total_epochs=4,
            warmup_epochs=2,
            batch_size=128,
            scatter_every=0,
        )
        outputs = {
            threads: self.run_files(tmp_path, cfg, threads, setter="off") for threads in ("1", "2")
        }
        assert outputs["1"] == outputs["2"]

    def test_one_thread_rule_writes_the_same_bytes(self, tmp_path):
        # A run sets one thread (here the ceiling shape, 2-64-64-4 at batch
        # 128); with the setter unavailable it runs on the threads it is given.
        cfg = small_config(
            n_classes=4,
            per_class=250,
            test_per_class=50,
            hidden_sizes=[64, 64],
            total_epochs=4,
            warmup_epochs=2,
            batch_size=128,
            scatter_every=0,
        )
        if network.blas_threads() is None:
            pytest.skip("numpy's OpenBLAS thread setter is unavailable")
        one_thread_rule = self.run_files(tmp_path, cfg, "2")
        for threads in ("1", "2"):
            assert self.run_files(tmp_path, cfg, threads, setter="off") == one_thread_rule


class TestRunBlasThreads:
    def test_loop_runs_on_one_thread_and_the_count_comes_back(
        self, tmp_path, monkeypatch, two_blas_threads
    ):
        # Training runs in the run's process, evaluation in the writer's;
        # each logs its pid and thread count to a file.
        trained = tmp_path / "trained"
        evaluated = tmp_path / "evaluated"
        real_eval = lab.evaluate

        def spying(real):
            def train(*args):
                log_call(trained, network.blas_threads())
                return real(*args)

            return train

        def spying_evaluate(*args):
            with evaluated.open("a") as log:
                log.write(f"{network.blas_threads()}\n")
            return real_eval(*args)

        monkeypatch.setattr(lab, "run_epoch", spying(lab.run_epoch))
        monkeypatch.setattr(lab, "evaluate", spying_evaluate)
        cfg = small_config()
        run(cfg, tmp_path / "r")
        assert logged_calls(trained) == [[str(os.getpid()), "1"]] * cfg.total_epochs
        assert evaluated.read_text().split() == ["1"] * cfg.total_epochs
        assert network.blas_threads() == 2

    def test_writer_evaluates_on_one_thread(self, tmp_path, monkeypatch, two_blas_threads):
        real = lab.evaluate

        def one_thread_evaluate(*args):
            if network.blas_threads() not in (1, None):
                raise RuntimeError(f"evaluated on {network.blas_threads()} BLAS threads")
            return real(*args)

        monkeypatch.setattr(lab, "evaluate", one_thread_evaluate)
        run_dir = run(small_config(total_epochs=3), tmp_path / "r")
        assert (run_dir / "summary.json").exists()
        assert network.blas_threads() == 2

    def test_count_comes_back_when_the_run_raises(self, tmp_path, monkeypatch, two_blas_threads):
        def failing_evaluate(*args):
            assert network.blas_threads() == 1
            raise RuntimeError("evaluation failed")

        monkeypatch.setattr(lab, "evaluate", failing_evaluate)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            run(small_config(), tmp_path / "r")
        assert network.blas_threads() == 2


class TestFitFailureEndToEnd:
    def test_failed_fits_fall_back_and_the_run_finishes(self, tmp_path, monkeypatch, forks):
        cfg = small_config(total_epochs=6, warmup_epochs=1)
        # Epoch 3 loses both fits, epoch 4 only net2's, epoch 6 (the last)
        # only net1's, whose division trains net2. Net1's clouds are fitted
        # in the writer, net2's in the run.
        fail = {(3, "net1"), (3, "net2"), (4, "net2"), (6, "net1")}
        log = tmp_path / "divisions"
        real_divide, real_fit = selection.divide, selection.fit

        def flaky_divide(prof, cfg, source):
            # Each source's cloud is fitted once per selection epoch, in order.
            epoch = cfg.warmup_epochs + 1 + sum(s == source for _, s in logged_calls(log))
            log_call(log, source)

            def flaky_fit(*args, **kwargs):
                if (epoch, source) in fail:
                    raise GmmFitError(f"forced failure: epoch {epoch} {source}")
                return real_fit(*args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(selection, "fit", flaky_fit)
                return real_divide(prof, cfg, source)

        # The run divides in `training`, the writer in `lab`.
        for module in (training, lab):
            monkeypatch.setattr(module, "divide", flaky_divide)
        run_dir = run(cfg, tmp_path / "r")
        calls = logged_calls(log)
        assert len(calls) == 2 * (cfg.total_epochs - cfg.warmup_epochs)
        assert {pid for pid, source in calls if source == "net1"} == {str(forks[0])}
        assert {pid for pid, source in calls if source == "net2"} == {str(os.getpid())}

        summary = load_summary(run_dir)
        assert summary["fallback_epochs"] == {"net1": [3, 4], "net2": [3, 6]}
        assert oracles.summary_from_files(run_dir) == (run_dir / "summary.json").read_text()
        assert summary["final_branches"]["net2"] is None
        assert summary["final_branches"]["net1"]["labeled"]["size"] >= 0
        for name in ("net1", "net2"):
            load_checkpoint(run_dir / "checkpoints" / f"{name}.json")

        for epoch in range(cfg.warmup_epochs + 1, cfg.total_epochs + 1):
            report = json.loads((run_dir / "reports" / f"epoch_{epoch:03d}.json").read_text())
            selection_report = report["selection"]
            failed = sorted(src for e, src in fail if e == epoch)
            assert set(selection_report) == {"net1", "net2"}
            # A failed fit of one net's losses sends the other net to plain
            # CE, and the other net's report names the cloud and the error.
            for consumer, source in (("net1", "net2"), ("net2", "net1")):
                if source in failed:
                    assert selection_report[consumer] == {
                        "fallback": True,
                        "reason": f"forced failure: epoch {epoch} {source}",
                        "source": source,
                    }
                else:
                    assert selection_report[consumer]["fallback"] is False
                    assert selection_report[consumer]["source"] == source


class TestSmallestConfigs:
    """The smallest configs the config accepts, run end to end.

    Two training samples is the floor a loss profile relies on: below the
    mixture's six points every fit fails and both networks fall back to
    plain cross-entropy, but each epoch is still profiled and dumped.
    """

    @staticmethod
    def run_smallest(tmp_path, per_class):
        cfg = config_from_dict(
            {
                "n_classes": 2,
                "per_class": per_class,
                "test_per_class": 1,
                "total_epochs": 3,
                "warmup_epochs": 1,
            }
        )
        run_dir = run(cfg, tmp_path / "r")
        reports = [
            json.loads((run_dir / "reports" / f"epoch_{epoch:03d}.json").read_text())
            for epoch in (2, 3)
        ]
        return run_dir, load_summary(run_dir), reports

    @staticmethod
    def assert_scatter_rows(run_dir, n_train):
        for epoch in (2, 3):
            for name in NET_NAMES:
                with scatter_csv_path(run_dir, epoch, name).open(newline="") as fh:
                    assert len(list(csv.DictReader(fh))) == n_train

    def test_two_samples_fall_back_every_selection_epoch(self, tmp_path):
        run_dir, summary, reports = self.run_smallest(tmp_path, per_class=1)
        assert (summary["n_train"], summary["n_test"]) == (2, 2)
        assert summary["fallback_epochs"] == {"net1": [2, 3], "net2": [2, 3]}
        reason = "need at least 6 points to fit, got 2"
        for report in reports:
            assert report["selection"] == {
                "net1": {"fallback": True, "reason": reason, "source": "net2"},
                "net2": {"fallback": True, "reason": reason, "source": "net1"},
            }
        self.assert_scatter_rows(run_dir, 2)

    def test_six_samples_divide_every_selection_epoch(self, tmp_path):
        run_dir, summary, reports = self.run_smallest(tmp_path, per_class=3)
        assert (summary["n_train"], summary["n_test"]) == (6, 2)
        assert summary["fallback_epochs"] == {"net1": [], "net2": []}
        for report in reports:
            assert set(report["selection"]) == set(NET_NAMES)
            for name in NET_NAMES:
                assert report["selection"][name]["fallback"] is False
                assert report["selection"][name]["n_samples"] == 6
        self.assert_scatter_rows(run_dir, 6)

class TestFlatLossCloud:
    """Runs whose loss profiles are forced flat on one or both axes."""

    @staticmethod
    def flat_run(tmp_path, monkeypatch, both_axes: bool):
        real = training.profile

        def flat_profile(probs, ds):
            prof = real(probs, ds)
            l_nis = np.full_like(prof.l_nis, 0.7) if both_axes else prof.l_nis
            l_prd = np.full_like(prof.l_prd, 0.3)
            return dataclasses.replace(
                prof,
                l_nis=l_nis,
                l_prd=l_prd,
                nrm_nis=minmax_normalize(l_nis),
                nrm_prd=minmax_normalize(l_prd),
            )

        # The run profiles every cloud, also the ones the writer fits.
        monkeypatch.setattr(training, "profile", flat_profile)
        cfg = small_config(total_epochs=4, warmup_epochs=2)
        return cfg, run(cfg, tmp_path / "r")

    @staticmethod
    def selection_reports(cfg, run_dir):
        for epoch in range(cfg.warmup_epochs + 1, cfg.total_epochs + 1):
            report = json.loads((run_dir / "reports" / f"epoch_{epoch:03d}.json").read_text())
            assert set(report["selection"]) == {"net1", "net2"}
            yield report["selection"]

    @staticmethod
    def scatter_column(run_dir, name):
        with scatter_csv_path(run_dir, 4, "net1").open(newline="") as fh:
            return [float(row[name]) for row in csv.DictReader(fh)]

    def test_both_axes_flat_falls_back_to_plain_ce(self, tmp_path, monkeypatch):
        # A cloud with no spread carries no selection signal: the fit fails
        # and each consumer trains on plain cross-entropy instead.
        cfg, run_dir = self.flat_run(tmp_path, monkeypatch, both_axes=True)
        reason = "all points are identical: the cloud has no spread"
        for sel in self.selection_reports(cfg, run_dir):
            assert sel == {
                "net1": {"fallback": True, "reason": reason, "source": "net2"},
                "net2": {"fallback": True, "reason": reason, "source": "net1"},
            }
        summary = load_summary(run_dir)
        dst_epochs = list(range(cfg.warmup_epochs + 1, cfg.total_epochs + 1))
        assert summary["fallback_epochs"] == {"net1": dst_epochs, "net2": dst_epochs}
        assert summary["final_branches"] == {"net1": None, "net2": None}
        for column in ("nrm_nis", "nrm_prd"):
            assert set(self.scatter_column(run_dir, column)) == {0.0}

    def test_flat_prediction_axis_still_divides(self, tmp_path, monkeypatch):
        cfg, run_dir = self.flat_run(tmp_path, monkeypatch, both_axes=False)
        summary = load_summary(run_dir)
        for sel in self.selection_reports(cfg, run_dir):
            for name in ("net1", "net2"):
                assert sel[name]["fallback"] is False
                sizes = {b: v["size"] for b, v in sel[name]["branches"].items()}
                assert sum(sizes.values()) == summary["n_train"]
                assert sizes["labeled"] == max(sizes.values())
        assert summary["fallback_epochs"] == {"net1": [], "net2": []}
        assert set(self.scatter_column(run_dir, "nrm_prd")) == {0.0}
        nrm_nis = self.scatter_column(run_dir, "nrm_nis")
        assert (min(nrm_nis), max(nrm_nis)) == (0.0, 1.0)


@pytest.fixture(scope="module")
def ce_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ce") / "run"
    return run(small_config(ce_only=True), out)


@pytest.fixture(scope="module")
def single_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("single") / "run"
    return run(small_config(single_network=True), out)


@pytest.mark.parametrize("fixture", ["smoke_run", "ce_run", "single_run"])
def test_summary_is_rebuilt_from_manifest_and_reports(request, fixture):
    run_dir = request.getfixturevalue(fixture)
    run_dir = run_dir[0] if fixture == "smoke_run" else run_dir
    assert oracles.summary_from_files(run_dir) == (run_dir / "summary.json").read_text()


class TestCeOnly:
    def test_post_warmup_phase_is_ce(self, ce_run):
        report2 = json.loads((ce_run / "reports" / "epoch_002.json").read_text())
        assert report2["phase"] == "ce"
        assert report2["selection"] is None

    def test_no_scatter_dumps_at_all(self, ce_run):
        assert list((ce_run / "scatter").iterdir()) == []
        with pytest.raises(NotFoundError):
            dump_scatter(ce_run, 2, "net1")

    def test_final_branches_are_null(self, ce_run):
        summary = load_summary(ce_run)
        assert summary["final_branches"] == {"net1": None, "net2": None}


class TestScatterCadence:
    def test_zero_means_final_epoch_only(self, tmp_path):
        cfg = small_config(total_epochs=3, scatter_every=0)
        run_dir = run(cfg, tmp_path / "r")
        assert not scatter_csv_path(run_dir, 2, "net1").exists()
        assert scatter_csv_path(run_dir, 3, "net1").exists()

    def test_period_two_hits_even_epochs_and_final(self, tmp_path):
        cfg = small_config(total_epochs=5, scatter_every=2)
        run_dir = run(cfg, tmp_path / "r")
        present = sorted(
            int(p.name.split("_")[1]) for p in (run_dir / "scatter").glob("*_net1.csv")
        )
        assert present == [2, 4, 5]


@pytest.fixture
def forks(monkeypatch):
    """Pids of the processes forked during the test, as the parent sees them."""
    pids = []
    real = os.fork

    def recording_fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


# Prints one line before `dstlab run` (left in the stdout buffer when the
# writer forks) and one after; with `fail` every scatter dump raises ENOSPC.
MARKED_RUN = """
import sys
from pathlib import Path
from dstlab import cli

if sys.argv[2] == "fail":
    real_open = Path.open
    def full_disk_open(self, mode="r", *args, **kwargs):
        if self.parent.name == "scatter" and "w" in mode:
            raise OSError(28, "No space left on device", str(self))
        return real_open(self, mode, *args, **kwargs)
    Path.open = full_disk_open
print("before the run")
code = cli.main(["run", sys.argv[1]])
print("after the run", code)
"""


def full_disk_open(name: str):
    """`Path.open` that fails opening run file `name` for writing with ENOSPC."""
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        if self.name == name + ".tmp" and "w" in mode:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
        return real_open(self, mode, *args, **kwargs)

    return open_


class TestScatterWriter:
    """The forked process that writes every run file, and write errors."""

    def test_no_child_left_after_the_run(self, tmp_path, forks):
        run(small_config(), tmp_path / "r")
        assert_reaped(forks)

    def test_no_child_left_when_the_run_raises(self, tmp_path, monkeypatch, forks):
        real = lab.evaluate

        def failing_evaluate(nets, *args):
            if len(list((tmp_path / "r" / "reports").iterdir())) == 2:
                raise RuntimeError("evaluation failed")
            return real(nets, *args)

        monkeypatch.setattr(lab, "evaluate", failing_evaluate)
        cfg = small_config(total_epochs=4)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            run(cfg, tmp_path / "r")
        assert_reaped(forks)
        # The writer wrote epoch 3's dumps before its evaluation failed.
        run_dir = tmp_path / "r"
        assert not (run_dir / "summary.json").exists()
        assert set(run_bytes(run_dir)) == {
            *START_FILES,
            "reports/epoch_001.json", "reports/epoch_002.json",
            *(f"scatter/epoch_{e:03d}_{net}.csv" for e in (2, 3) for net in ("net1", "net2")),
        }
        for path in (run_dir / "scatter").iterdir():
            assert len(path.read_text().splitlines()) == 1 + 60

    def test_training_error_leaves_the_epoch_in_flight_written(self, tmp_path, monkeypatch, forks):
        real = lab.run_epoch

        def failing_epoch(epoch, *args):
            if epoch == 3:  # after one warmup epoch and one selection epoch
                raise RuntimeError("training failed")
            return real(epoch, *args)

        monkeypatch.setattr(lab, "run_epoch", failing_epoch)
        with pytest.raises(RuntimeError, match="training failed"):
            run(small_config(total_epochs=4), tmp_path / "r")
        assert_reaped(forks)
        # Epoch 2 was in flight: its dumps and report are complete, as they
        # would be had the run written them itself.
        run_dir = tmp_path / "r"
        assert set(run_bytes(run_dir)) == {
            *START_FILES,
            "reports/epoch_001.json", "reports/epoch_002.json",
            "scatter/epoch_002_net1.csv", "scatter/epoch_002_net2.csv",
        }
        report = json.loads((run_dir / "reports" / "epoch_002.json").read_text())
        assert set(report["test_accuracy"]) == {"net1", "net2", "ensemble"}

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_failed_fork_closes_every_pipe_and_exits_two(self, tmp_path, monkeypatch, capsys):
        # A fork refused for want of processes, simulated: no process is made.
        def refused_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        real_fork = os.fork
        monkeypatch.setattr(os, "fork", refused_fork)
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(small_config(output_dir=str(out)))))
        before = sorted(os.listdir("/proc/self/fd"))
        assert cli.main(["run", str(config_path)]) == cli.EXIT_RUNTIME
        assert sorted(os.listdir("/proc/self/fd")) == before
        err = capsys.readouterr().err
        assert err.startswith("error: cannot start the epoch writer: ")
        assert os.strerror(errno.EAGAIN) in err and "Traceback" not in err
        assert not [path for path in out.rglob("*") if path.is_file()]
        with pytest.raises(StructuralError, match="cannot start the epoch writer") as info:
            run(small_config(), tmp_path / "r")
        assert isinstance(info.value.__cause__, BlockingIOError)
        # The failed start left the directory empty, so the same config runs
        # into it once a fork succeeds.
        assert list(out.iterdir()) == []
        monkeypatch.setattr(os, "fork", real_fork)
        assert cli.main(["run", str(config_path)]) == 0
        assert (out / "summary.json").is_file()

    @pytest.mark.parametrize("name", ["reports", "scatter", "checkpoints"])
    def test_uncreatable_subdirectory_leaves_the_directory_re_runnable(
        self, tmp_path, monkeypatch, capsys, forks, name
    ):
        # The writer makes the subdirectories; when it cannot make one, the
        # run stops at its first answer and the directory is as it was.
        real_mkdir = Path.mkdir

        def refused_mkdir(self, *args, **kwargs):
            if self.name == name:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", refused_mkdir)
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(small_config(output_dir=str(out)))))
        assert cli.main(["run", str(config_path)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create run directory {out}: ")
        assert os.strerror(errno.EACCES) in err and "Traceback" not in err
        assert_reaped(forks)
        assert list(out.iterdir()) == []
        monkeypatch.setattr(Path, "mkdir", real_mkdir)
        assert cli.main(["run", str(config_path)]) == 0
        assert (out / "summary.json").is_file()

    def test_writer_killed_mid_run_is_a_structural_error(self, tmp_path, monkeypatch, forks):
        real = lab.evaluate
        evaluated = tmp_path / "evaluated"

        def killing_evaluate(*args):
            # Runs in the writer, which records each epoch it evaluates in
            # a file and is killed while it evaluates epoch 2.
            epochs = evaluated.read_text().split() if evaluated.exists() else []
            epochs.append(str(len(epochs) + 1))
            evaluated.write_text(" ".join(epochs))
            if epochs[-1] == "2":
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(lab, "evaluate", killing_evaluate)
        with pytest.raises(StructuralError, match="writer process ended early"):
            run(small_config(total_epochs=4), tmp_path / "r")
        assert evaluated.read_text().split() == ["1", "2"]
        assert_reaped(forks)
        assert not (tmp_path / "r" / "summary.json").exists()

    @pytest.mark.parametrize(
        "failing, scatter_every, reports, dumps",
        [
            ("epoch_002_net2.csv", 1, (1, 2), ["epoch_002_net1.csv"]),
            ("epoch_004_net1.csv", 0, (1, 2, 3, 4), []),
        ],
    )
    def test_failed_dump_still_writes_its_report(
        self, tmp_path, monkeypatch, forks, failing, scatter_every, reports, dumps
    ):
        # The file set the run left when it wrote its reports itself.
        monkeypatch.setattr(Path, "open", full_disk_open(failing))
        run_dir = tmp_path / "r"
        with pytest.raises(StructuralError, match=f"cannot write .*/{failing}: "):
            run(small_config(total_epochs=4, scatter_every=scatter_every), run_dir)
        assert_reaped(forks)
        assert set(run_bytes(run_dir)) == {
            *START_FILES,
            *(f"reports/epoch_{e:03d}.json" for e in reports),
            *(f"scatter/{name}" for name in dumps),
        }

    @pytest.mark.parametrize(
        "name",
        [*START_FILES, "epoch_002.json", "epoch_002_net2.csv", "net2.json", "summary.json"],
    )
    def test_write_error_exits_two_naming_the_file(
        self, tmp_path, monkeypatch, capsys, forks, name
    ):
        # Every run file is written by the writer process.
        monkeypatch.setattr(Path, "open", full_disk_open(name))
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(small_config(output_dir=str(out)))))
        assert cli.main(["run", str(config_path)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and f"/{name}: " in err
        assert "No space left on device" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()
        assert_reaped(forks)

    def test_every_file_is_written_by_the_writer(self, tmp_path, monkeypatch, forks):
        # Each open for writing appends its pid and path to a log, with an
        # os-level append that does not go through `Path.open`.
        log = tmp_path / "writes"
        real_open = Path.open

        def logging_open(self, mode="r", *args, **kwargs):
            if "w" in mode:
                fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
                os.write(fd, f"{os.getpid()} {self}\n".encode())
                os.close(fd)
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", logging_open)
        run_dir = run(small_config(), tmp_path / "r")
        writes = [line.split(" ", 1) for line in log.read_text().splitlines()]
        assert {pid for pid, _ in writes} == {str(forks[0])}
        written = [str(Path(path).relative_to(run_dir)).removesuffix(".tmp") for _, path in writes]
        assert sorted(written) == sorted(run_bytes(run_dir))

    @pytest.mark.parametrize("fails", ["write", "replace"])
    @pytest.mark.parametrize(
        "name, files",
        [
            ("epoch_002_net2.csv", ["reports/epoch_002.json", "scatter/epoch_002_net1.csv"]),
            ("epoch_002.json", ["scatter/epoch_002_net1.csv", "scatter/epoch_002_net2.csv"]),
            (
                "summary.json",
                [
                    *(f"reports/epoch_{e:03d}.json" for e in (2, 3, 4)),
                    *(f"scatter/epoch_{e:03d}_{n}.csv" for e in (2, 3, 4) for n in NET_NAMES),
                    "checkpoints/net1.json",
                    "checkpoints/net2.json",
                ],
            ),
        ],
    )
    def test_failed_write_leaves_no_tmp_file(
        self, tmp_path, monkeypatch, forks, fails, name, files
    ):
        # The tmp file of `name` fails half written, or its rename fails;
        # the run leaves the file set it left before writes were atomic.
        real_open, real_replace = Path.open, os.replace

        def half_written_open(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            if self.name == name + ".tmp":
                def full_disk_write(text):
                    type(fh).write(fh, text[: len(text) // 2])
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))

                fh.write = full_disk_write
            return fh

        def failing_replace(src, dst):
            if Path(dst).name == name:
                raise OSError(errno.EIO, os.strerror(errno.EIO), str(dst))
            return real_replace(src, dst)

        if fails == "write":
            monkeypatch.setattr(Path, "open", half_written_open)
        else:
            monkeypatch.setattr(os, "replace", failing_replace)
        run_dir = tmp_path / "r"
        with pytest.raises(StructuralError, match=f"cannot write .*/{name}: "):
            run(small_config(total_epochs=4), run_dir)
        assert_reaped(forks)
        assert not list(run_dir.rglob("*.tmp"))
        assert set(run_bytes(run_dir)) == {
            *START_FILES, "reports/epoch_001.json", *files
        }

    @pytest.mark.parametrize("dumps", ["ok", "fail"])
    def test_output_after_the_run_appears_once(self, tmp_path, dumps):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(small_config(output_dir=str(tmp_path / "r")))))
        # Block-buffered stdout, so a writer that flushed its copy on exit
        # would print the first line twice.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", MARKED_RUN, str(config_path), dumps],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        code = cli.EXIT_OK if dumps == "ok" else cli.EXIT_RUNTIME
        assert proc.stdout.count("before the run") == 1
        assert proc.stdout.count("after the run") == 1
        assert proc.stdout.splitlines()[-1] == f"after the run {code}"

    def test_csvs_match_in_process_write_scatter(self, tmp_path):
        # The epoch loop without the writer's help profiles both networks in
        # this process; those clouds, formatted here, are the CSVs the run wrote.
        cfg = small_config(total_epochs=5, scatter_every=1)
        written = run_bytes(run(cfg, tmp_path / "r"))
        expected = files_of_run_epoch(cfg)
        assert sum(name.startswith("scatter/") for name in expected) == 2 * (
            cfg.total_epochs - cfg.warmup_epochs
        )
        assert {name: written[name] for name in expected} == expected
        assert set(written) - set(expected) == WRITER_ONLY

    @pytest.mark.parametrize(
        "overrides, fails",
        [({"single_network": True}, ()), ({"ce_only": True}, ()), ({}, (1, 3))],
        ids=["single-network", "ce-only", "net1-fit-fails"],
    )
    def test_run_epoch_without_the_writer_writes_the_same_files(
        self, tmp_path, monkeypatch, overrides, fails
    ):
        # `fails`: which of net1's fits in a process fail (1 is the first),
        # so net2 falls back in those selection epochs. The run fits net1's
        # clouds in the writer, `files_of_run_epoch` in this process.
        cfg = small_config(total_epochs=5, scatter_every=1, **overrides)
        real_divide, fits = selection.divide, []

        def flaky_divide(prof, cfg, source):
            fits.append(source)

            def failing_fit(*args, **kwargs):
                raise GmmFitError(f"forced failure of net1's fit {fits.count('net1')}")

            with monkeypatch.context() as m:
                if source == "net1" and fits.count("net1") in fails:
                    m.setattr(selection, "fit", failing_fit)
                return real_divide(prof, cfg, source)

        for module in (training, lab):
            monkeypatch.setattr(module, "divide", flaky_divide)
        run_dir = run(cfg, tmp_path / "r")
        # This process fits net2's clouds, or net1's when it trains alone.
        in_run = [] if cfg.ce_only else ["net1" if cfg.single_network else "net2"]
        assert fits == in_run * (cfg.total_epochs - cfg.warmup_epochs)
        fits.clear()
        written, expected = run_bytes(run_dir), files_of_run_epoch(cfg)
        assert {name: written[name] for name in expected} == expected
        assert set(written) - set(expected) == WRITER_ONLY
        summary = load_summary(run_dir)
        fallbacks = [cfg.warmup_epochs + n for n in fails]
        assert summary["fallback_epochs"] == {"net1": [], "net2": fallbacks}
        if fails:
            report = json.loads(written["reports/epoch_002.json"])
            assert report["selection"]["net2"] == {
                "fallback": True,
                "reason": "forced failure of net1's fit 1",
                "source": "net1",
            }


# The run files `files_of_run_epoch` does not make.
WRITER_ONLY = {*START_FILES, "summary.json"}


def files_of_run_epoch(cfg) -> dict[str, bytes]:
    """The reports, scatter CSVs and checkpoints of a run of `cfg`, by path
    in the run directory, from `training.run_epoch` without the writer:
    every epoch trained, profiled, divided, dumped and evaluated in this
    process, and each cloud formatted one row at a time by `%.17g`."""
    train, test, _ = lab.build_datasets(cfg)
    streams = RngStreams.from_master(cfg.master_seed)
    workspaces = [
        Workspace(init_network(cfg.layer_sizes(), rng), cfg.momentum, cfg.weight_decay)
        for rng in streams.init
    ]
    nets = dict(zip(NET_NAMES, (ws.params for ws in workspaces)))
    ensemble = NET_NAMES[:1] if cfg.single_network else NET_NAMES
    files = {}
    for epoch in range(1, cfg.total_epochs + 1):
        trained = training.run_epoch(epoch, workspaces, train, cfg, streams)
        selection_reports, profiles = trained.selection, trained.profiles
        assert (selection_reports is None) == (epoch <= cfg.warmup_epochs or cfg.ce_only)
        report = {
            "epoch": epoch,
            "phase": cfg.phase_at(epoch),
            "learning_rate": cfg.learning_rate_at(epoch),
            "selection": selection_reports,
            "test_accuracy": training.evaluate(nets, test.features, test.true_labels, ensemble),
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        files[f"reports/epoch_{epoch:03d}.json"] = text.encode()
        for net, prof in zip(NET_NAMES, profiles):
            name = scatter_csv_path("", epoch, net).name
            files[f"scatter/{name}"] = write_scatter_reference(epoch, net, prof)
    for name, params in nets.items():
        files[f"checkpoints/{name}.json"] = network.save_checkpoint(params)
    return files


class TestOffload:
    """The writer's part of two-network epochs: it fits the clouds of net1
    that the run hands over, net2's divisions, and runs no forward over
    the training set."""

    @pytest.mark.parametrize(
        "overrides, fail_net1, divides",
        [({}, False, [2, 3]), ({"ce_only": True}, False, []), ({}, True, [2, 3])],
        ids=["dst", "ce-only", "net1-fit-fails"],
    )
    def test_a_turn_messages_the_writer_only_when_it_has_work(
        self, tmp_path, monkeypatch, overrides, fail_net1, divides
    ):
        # The epoch of each ("divide", e, cloud) message the run sends: the
        # last warmup epoch hands over net1's cloud for epoch 3, epoch 3 for
        # epoch 4, and the last epoch none. With every fit of net1's cloud
        # failed, net2 has no division but still hands over the next cloud.
        # The cloud is the one `training.profile` returned last, at net2's
        # turn, and the writer fits it as it was then.
        cfg = small_config(total_epochs=4, warmup_epochs=2, **overrides)
        sent, profiled, received = [], [], tmp_path / "received"
        real_send, real_profile = lab._EpochWriter._send, training.profile

        def profile(*args):
            prof = real_profile(*args)
            profiled.append(cloud_fields(prof))
            return prof

        def send(self, message):
            if message[0] != "epoch":
                sent.append((message[:2], cloud_fields(message[2]), profiled[-1]))
            real_send(self, message)

        def failing_fit(*args, **kwargs):
            raise GmmFitError("forced failure of net1's fit")

        real_divide = selection.divide

        def divide(prof, cfg, source):
            log_call(received, *cloud_fields(prof))
            with monkeypatch.context() as m:
                if fail_net1 and source == "net1":
                    m.setattr(selection, "fit", failing_fit)
                return real_divide(prof, cfg, source)

        monkeypatch.setattr(training, "profile", profile)
        monkeypatch.setattr(lab._EpochWriter, "_send", send)
        monkeypatch.setattr(lab, "divide", divide)
        run_dir = run(cfg, tmp_path / "r")
        assert [message for message, _, _ in sent] == [("divide", epoch) for epoch in divides]
        handed = [fields for _, fields, _ in sent]
        assert handed == [fields for _, _, fields in sent]
        assert [fields for _, *fields in logged_calls(received)] == handed
        fallbacks = [3, 4] if fail_net1 else []
        assert load_summary(run_dir)["fallback_epochs"] == {"net1": [], "net2": fallbacks}

    @pytest.mark.parametrize(
        "overrides, fails",
        [({}, ()), ({"single_network": True}, ()), ({}, (1, 3))],
        ids=["two-nets", "single-network", "net1-fit-fails"],
    )
    def test_a_slow_writer_changes_no_byte(self, tmp_path, monkeypatch, overrides, fails):
        # The run hands net1's cloud to the writer, which fits it at once
        # and dumps it an epoch later, while the run steps the parameters
        # that its messages carry and the writer may lag behind. Random
        # delays in the writer's fits, evaluation and dumps move where the
        # two processes cross; no byte may move.
        cfg = small_config(per_class=40, total_epochs=10, **overrides)
        real_divide, fits = lab.divide, []

        def flaky_divide(prof, cfg, source):
            # Only the writer calls it, so each run counts net1's fits from 1.
            fits.append(source)
            if len(fits) in fails:
                return None, {"fallback": True, "reason": "forced", "source": source}
            return real_divide(prof, cfg, source)

        monkeypatch.setattr(lab, "divide", flaky_divide)
        normal = run(cfg, tmp_path / "normal")
        delays = random.Random(11)

        def slowed(real, longest):
            def call(*args):
                time.sleep(delays.uniform(0.0, longest))
                return real(*args)

            return call

        # The writer inherits the patches at the fork.
        monkeypatch.setattr(lab, "divide", slowed(lab.divide, 0.02))
        monkeypatch.setattr(lab, "evaluate", slowed(lab.evaluate, 0.02))
        monkeypatch.setattr(lab, "write_scatter", slowed(lab.write_scatter, 0.01))
        slow = run(cfg, tmp_path / "slow")
        assert run_bytes(slow) == run_bytes(normal)
        fallbacks = [cfg.warmup_epochs + n for n in fails]
        assert load_summary(slow)["fallback_epochs"] == {"net1": [], "net2": fallbacks}

    def test_the_writer_fits_net1_and_runs_no_training_set_forward(
        self, tmp_path, monkeypatch, forks
    ):
        cfg = small_config(total_epochs=5)
        n_train, n_test = cfg.n_classes * cfg.per_class, cfg.n_classes * cfg.test_per_class
        assert n_train != n_test
        divisions, real_division = [], lab._EpochWriter.division

        def division(self, epoch):
            divisions.append(epoch)
            return real_division(self, epoch)

        monkeypatch.setattr(lab._EpochWriter, "division", division)
        log, forwards = tmp_path / "divide", tmp_path / "forwards"
        real_divide = selection.divide
        for module in (training, lab):
            monkeypatch.setattr(
                module, "divide", lambda *a: log_call(log, a[-1]) or real_divide(*a)
            )
        # Every full-set forward, in either process, logs its pid and rows.
        for module in (network, training):
            real_forward = module.full_forward

            def counting_forward(params, x, real=real_forward):
                log_call(forwards, len(x))
                return real(params, x)

            monkeypatch.setattr(module, "full_forward", counting_forward)
        run(cfg, tmp_path / "r")
        dst_epochs = cfg.total_epochs - cfg.warmup_epochs
        assert divisions == list(range(cfg.warmup_epochs + 1, cfg.total_epochs + 1))
        # Net1's clouds, net2's divisions, are fitted in the writer; net2's
        # in the run.
        calls = logged_calls(log)
        assert sorted(source for _, source in calls) == ["net1"] * dst_epochs + ["net2"] * dst_epochs
        assert {pid for pid, source in calls if source == "net1"} == {str(forks[0])}
        assert {pid for pid, source in calls if source == "net2"} == {str(os.getpid())}
        # The writer forwards the test set only, once per net and epoch. The
        # run forwards the training set twice per selection epoch (net2 at
        # the start, net1 at net2's turn) and once at the last warmup epoch.
        rows = sorted((pid, int(n)) for pid, n in logged_calls(forwards))
        assert rows == sorted(
            [(str(forks[0]), n_test)] * 2 * cfg.total_epochs
            + [(str(os.getpid()), n_train)] * (2 * dst_epochs + 1)
        )

    def test_an_error_with_a_division_unread_re_raises_at_once(self, tmp_path, monkeypatch, forks):
        # Net2's first division, for epoch 3, comes with the answer to epoch
        # 2: a 4000-row branch table, more than a pipe holds (64 KB on
        # Linux), so the writer blocks on it until the run reads it at
        # net2's turn. Net1's loop of epoch 3 raises first: the run must
        # re-raise at once, not wait for a writer that waits for it.
        cfg = small_config(
            n_classes=4, per_class=1000, warmup_epochs=2, total_epochs=3, scatter_every=0
        )
        run_dir, sizes = tmp_path / "r", tmp_path / "sizes"
        real_divide, real_train_epoch = lab.divide, training._train_epoch
        loops, raised = [], []

        def divide(*args):
            # Only the writer calls it; it logs the size of its answer.
            division = real_divide(*args)
            log_call(sizes, len(pickle.dumps((None, division), pickle.HIGHEST_PROTOCOL)))
            return division

        def train_epoch(*args):
            loops.append(1)
            if len(loops) == 5:  # net1's loop of epoch 3
                # Once the writer has written epoch 2's report, it answers.
                deadline = time.monotonic() + 60
                report = run_dir / "reports" / "epoch_002.json"
                while not report.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raised.append(time.monotonic())
                raise NumericError("forced non-finite loss in net1's loop")
            real_train_epoch(*args)

        def hung(signum, frame):
            raise TimeoutError("the run still waits for the writer")

        monkeypatch.setattr(lab, "divide", divide)
        monkeypatch.setattr(training, "_train_epoch", train_epoch)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(NumericError, match="forced non-finite loss"):
                run(cfg, run_dir)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - raised[0] < 5
        assert [int(size) > 65536 for _, size in logged_calls(sizes)] == [True]
        assert_reaped(forks)
        assert set(run_bytes(run_dir)) == {
            *START_FILES, "reports/epoch_001.json", "reports/epoch_002.json"
        }

    def test_writer_killed_while_the_run_waits_for_a_division(self, tmp_path, monkeypatch, forks):
        # The writer makes net2's division for epoch 3 only once the run
        # waits for it, and is killed instead.
        waiting = tmp_path / "waiting"
        real_division, real_divide = lab._EpochWriter.division, lab.divide
        run_pid = os.getpid()

        def division(self, epoch):
            if epoch == 3:
                waiting.touch()
            return real_division(self, epoch)

        def dying_divide(prof, cfg, source):
            if os.getpid() != run_pid and len(logged_calls(tmp_path / "divide")) == 1:
                deadline = time.monotonic() + 60
                while not waiting.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os.kill(os.getpid(), signal.SIGKILL)
            log_call(tmp_path / "divide", source)
            return real_divide(prof, cfg, source)

        monkeypatch.setattr(lab._EpochWriter, "division", division)
        monkeypatch.setattr(lab, "divide", dying_divide)
        with pytest.raises(StructuralError, match="writer process ended early"):
            run(small_config(total_epochs=4), tmp_path / "r")
        assert waiting.exists()
        assert_reaped(forks)
        assert not (tmp_path / "r" / "summary.json").exists()

    # Net1's huge but finite logits on the other rows overflow in softmax's
    # max-subtraction, harmlessly.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("publish", [True, False], ids=["published", "computed"])
    def test_non_finite_partner_logit_raises_at_the_same_batch(
        self, tmp_path, monkeypatch, forks, publish
    ):
        # After net1's loop of epoch 3, one hidden unit of net1 overflows on
        # the training row with the largest first feature, and only there:
        # net2's turn, with net1 as its partner, must stop at its first
        # batch, before net2's loop steps anything, whether the run would
        # publish net1's cloud to the writer or trains without the writer
        # (offload=None). Either way it leaves the files of epochs 1-2 that
        # a clean run with the writer writes, byte for byte.
        cfg = small_config(total_epochs=4)
        clean = run_bytes(run(cfg, tmp_path / "clean"))
        train, _, _ = lab.build_datasets(cfg)
        row = int(train.features[:, 0].argmax())
        x0 = train.features[row, 0]
        assert x0 > 0 and np.sort(train.features[:, 0])[-2] < x0 * (1 - 1e-6)
        real_train_epoch, real_run_epoch = training._train_epoch, lab.run_epoch
        real_step = network.Workspace.step
        loops, steps = [], []

        def train_epoch(ws, *args):
            real_train_epoch(ws, *args)
            loops.append(1)
            if len(loops) == 5:  # net1's loop of epoch 3
                # Hidden unit 0 of the [2, 8, 3] net: weights flat[0:2], bias flat[16].
                big = np.finfo(np.float64).max / (x0 * (1 - 1e-9))
                ws.flat[0], ws.flat[1], ws.flat[16] = big, 0.0, 0.0
                steps.clear()

        def step(self, learning_rate):
            steps.append(1)
            real_step(self, learning_rate)

        monkeypatch.setattr(training, "_train_epoch", train_epoch)
        monkeypatch.setattr(network.Workspace, "step", step)
        if not publish:
            # The same epochs without the writer's fits.
            monkeypatch.setattr(lab, "run_epoch", lambda *args: real_run_epoch(*args[:5]))
        with pytest.raises(NumericError, match="finite logits"):
            run(cfg, tmp_path / "r")
        assert len(loops) == 5 and steps == []
        for pid in forks:
            assert_reaped([pid])
        files = run_bytes(tmp_path / "r")
        assert set(files) == {
            *START_FILES, "reports/epoch_001.json", "reports/epoch_002.json",
            "scatter/epoch_002_net1.csv", "scatter/epoch_002_net2.csv",
        }
        assert files == {name: clean[name] for name in files}


def option_values(name: str) -> tuple:
    """The values choice setting `name` declares, so a strategy draws every
    option the config takes."""
    [field] = [f for f in dataclasses.fields(ExperimentConfig) if f.name == name]
    return field.metadata["options"]


def spanning(low, high, *edges, **bounds):
    """Floats anywhere in [low, high] (`bounds` may exclude an end), with
    `edges`, the extremes the range allows, drawn often."""
    return st.one_of(st.sampled_from(edges), st.floats(low, high, **bounds))


@st.composite
def tiny_configs(draw, wide=st.booleans()) -> tuple[ExperimentConfig, dict]:
    """Small configs across every knob a run's branches turn on: set and
    net sizes, noise, the ablations, the dump cadence and the thresholds
    near their edges; and every numeric setting of the optimizer and
    refinement across its whole range, from 1e-300 to 1e300 where the
    range allows. Each comes with values for the module constants a run
    reads, by module (`patched` sets them): the mixture fit's anchors near
    the edges of the unit square and few EM iterations; with `wide`, any
    EM tolerance, blob spread and learning-rate decay, across the same
    ranges."""
    warmup = draw(st.integers(1, 2))
    unit_open = st.floats(0, 1, exclude_min=True, exclude_max=True)
    # Anchor coordinates at and next to both ends of the unit interval.
    edge = st.sampled_from((0.0, 1e-9, 0.5, 1 - 1e-9, 1.0))
    positive = spanning(1e-300, 1e300, 1e-300, 1e300)
    non_negative = spanning(0.0, 1e300, 0.0, 1e-300, 1e300)
    # Most settings so drawn stop the run with a NumericError; without
    # `wide` they keep their defaults, so that finished runs stay common.
    wide_settings = {
        "learning_rate": positive,
        "momentum": spanning(0.0, 1.0, 0.0, math.nextafter(1.0, 0.0), exclude_max=True),
        "weight_decay": non_negative,
        "temperature": positive,
        "alpha": positive,
        "lambda_reg": non_negative,
    }
    is_wide = draw(wide)
    numeric = {name: draw(values) for name, values in wide_settings.items()} if is_wide else {}
    cfg = ExperimentConfig(
        **numeric,
        n_classes=draw(st.integers(2, 6)),
        per_class=draw(st.integers(1, 30)),
        test_per_class=draw(st.integers(1, 5)),
        n_features=draw(st.integers(1, 4)),
        hidden_sizes=draw(st.lists(st.integers(1, 16), min_size=1, max_size=2)),
        noise_kind=draw(st.sampled_from(NOISE_KINDS)),
        noise_rate=draw(st.floats(0, 1)),
        warmup_epochs=warmup,
        total_epochs=warmup + draw(st.integers(1, 3)),
        batch_size=draw(st.integers(2, 16)),
        tau_r=draw(unit_open),
        tau_prd=draw(unit_open),
        ce_only=draw(st.booleans()),
        no_mixup=draw(st.booleans()),
        single_network=draw(st.booleans()),
        disable_branch=draw(st.sampled_from(option_values("disable_branch"))),
        scatter_every=draw(st.integers(0, 2)),
        master_seed=draw(st.integers(0, 1000)),
        data_seed=draw(st.integers(0, 1000)),
    )
    anchors = st.lists(st.tuples(edge, edge), min_size=3, max_size=3, unique=True)
    decay = spanning(0.0, 1.0, 1e-300, 1.0, exclude_min=True)
    constants = {
        selection: {
            "ANCHORS": tuple(draw(anchors)),
            "EM_TOL": draw(non_negative) if is_wide else selection.EM_TOL,
            "EM_MAX_ITER": draw(st.integers(1, 3)),
        },
        data: {"SPREAD": draw(positive) if is_wide else data.SPREAD},
        config: {
            "LR_DECAY_FACTOR": draw(decay) if is_wide else config.LR_DECAY_FACTOR,
            "LR_DECAY_PERIOD": draw(st.integers(1, 6)) if is_wide else config.LR_DECAY_PERIOD,
        },
    }
    return cfg, constants


@contextmanager
def patched(constants: dict):
    """Each module's constants set to the drawn values, as `tiny_configs`
    gives them; a run's writer inherits them at the fork."""
    with ExitStack() as stack:
        for module, values in constants.items():
            stack.enter_context(mock.patch.multiple(module, **values))
        yield


class TestRandomTinyConfigs:
    # Settings near the ends of their ranges overflow inside numpy before
    # the run refuses the non-finite result with a NumericError.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(drawn=tiny_configs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_runs_end_to_end_against_their_invariants(self, drawn):
        cfg, constants = drawn
        with tempfile.TemporaryDirectory() as tmp, patched(constants):
            run_dir = Path(tmp) / "r"
            try:
                run(cfg, run_dir)
            except LabError:
                assert not list(run_dir.rglob("*.tmp"))
                return
            assert {path.name for path in run_dir.iterdir()} == {
                *START_FILES, "summary.json", "reports", "scatter", "checkpoints",
            }
            assert not list(run_dir.rglob("*.tmp"))
            assert oracles.summary_from_files(run_dir) == (run_dir / "summary.json").read_text()
            n_train = load_summary(run_dir)["n_train"]
            consumers = NET_NAMES[:1] if cfg.single_network else NET_NAMES
            # Consumer i trains on its source's cloud; a fallback is a failed fit of it.
            sources = dict(zip(consumers, consumers[1:] + consumers[:1]))
            for epoch in range(1, cfg.total_epochs + 1):
                report = json.loads((run_dir / "reports" / f"epoch_{epoch:03d}.json").read_text())
                entries = report["selection"]
                if entries is None:
                    continue
                assert set(entries) == set(consumers)
                for name in consumers:
                    entry = entries[name]
                    assert entry["source"] == sources[name]
                    if entry["fallback"]:
                        assert set(entry) == {"fallback", "reason", "source"}
                        assert isinstance(entry["reason"], str) and entry["reason"]
                        continue
                    assert sum(entry["branches"][b]["size"] for b in BRANCH_NAMES) == n_train
                    path = scatter_csv_path(run_dir, epoch, entry["source"])
                    assert path.exists() == lab._scatter_due(cfg, epoch, epoch == cfg.total_epochs)
                    if not path.exists():
                        continue
                    with path.open(newline="") as fh:
                        column = [int(row["state"]) for row in csv.DictReader(fh)]
                    assert len(column) == n_train
                    for code, state in enumerate(STATE_NAMES, start=1):
                        counted = sum(entry["branches"][b]["states"][state] for b in BRANCH_NAMES)
                        assert counted == column.count(code)


class TestFaultPartWay:
    """One fault at a drawn epoch k of a random run that would finish."""

    @pytest.mark.parametrize("fault", ["report-write", "run-epoch"])
    @given(drawn=tiny_configs(wide=st.just(False)), data=st.data())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_the_run_raises_it_and_keeps_the_epochs_before(self, fault, drawn, data):
        cfg, constants = drawn
        k = data.draw(st.sampled_from(range(1, cfg.total_epochs + 1)), label="k")
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp) / "r"
            report_k = run_dir / "reports" / f"epoch_{k:03d}.json"
            real_replace, real_run_epoch = os.replace, lab.run_epoch

            def failing_replace(src, dst):
                if Path(dst) == report_k:
                    raise OSError(errno.EIO, "injected")
                real_replace(src, dst)

            def failing_run_epoch(epoch, *args):
                if epoch == k:
                    raise NumericError(f"injected failure at epoch {k}")
                return real_run_epoch(epoch, *args)

            # The writer inherits these patches at the fork.
            if fault == "report-write":
                patch = mock.patch.object(lab.os, "replace", failing_replace)
                expected = StructuralError(f"cannot write {report_k}: [Errno 5] injected")
            else:
                patch = mock.patch.object(lab, "run_epoch", failing_run_epoch)
                expected = NumericError(f"injected failure at epoch {k}")
            with patch, patched(constants), pytest.raises(LabError) as raised:
                run(cfg, run_dir)
            assert (type(raised.value), str(raised.value)) == (type(expected), str(expected))
            assert not list(run_dir.rglob("*.tmp"))
            assert not (run_dir / "summary.json").exists()
            assert not list(run_dir.glob("checkpoints/*"))
            assert sorted(path.name for path in (run_dir / "reports").iterdir()) == [
                f"epoch_{epoch:03d}.json" for epoch in range(1, k)
            ]


class TestDumpScatter:
    def test_missing_epoch(self, smoke_run):
        run_dir, _ = smoke_run
        with pytest.raises(NotFoundError, match="epoch 7"):
            dump_scatter(run_dir, 7, "net1")

    def test_bad_net_name(self, smoke_run):
        run_dir, _ = smoke_run
        with pytest.raises(ConfigError, match="net1 or net2"):
            dump_scatter(run_dir, 2, "net3")

    def test_missing_run_directory(self, tmp_path):
        with pytest.raises(NotFoundError, match="run directory"):
            dump_scatter(tmp_path / "ghost", 2, "net1")


class TestOutputRoot:
    def test_relative_output_dir_lands_under_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(tmp_path / "root"))
        run_dir = run(small_config(output_dir="my-exp"))
        assert run_dir == tmp_path / "root" / "my-exp"
        assert (run_dir / "summary.json").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            (".", "output_dir must not name the output root itself, got '.'"),
            ("a/..", "output_dir must not name the output root itself, got 'a/..'"),
            ("../escaped", "output_dir must stay under the output root, got '../escaped'"),
        ],
    )
    def test_an_override_obeys_the_output_dir_rule(self, tmp_path, monkeypatch, override, message):
        # Unchecked, these made the root itself the run directory, wrote
        # beside the root, or made `a` and then failed on `a/..`.
        base = tmp_path / "base"
        (base / "root" / "earlier").mkdir(parents=True)
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(base / "root"))
        with pytest.raises(ConfigError) as info:
            run(small_config(), override)
        assert str(info.value) == message
        assert [path.name for path in base.iterdir()] == ["root"]
        assert [path.name for path in (base / "root").iterdir()] == ["earlier"]
        assert not list((base / "root" / "earlier").iterdir())

    def test_unset_output_dir_gets_config_digest_name(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(tmp_path / "root"))
        run_dir = run(small_config())
        assert run_dir.parent == tmp_path / "root"
        assert run_dir.name.startswith("run-")
        assert len(run_dir.name) == len("run-") + 12


class TestLoadSummary:
    def test_missing_summary(self, tmp_path):
        with pytest.raises(NotFoundError):
            load_summary(tmp_path / "none")

    def test_wrong_format_rejected(self, tmp_path):
        bogus = tmp_path / "summary.json"
        bogus.write_text(json.dumps({"format": "other"}))
        with pytest.raises(StructuralError, match="not a run summary"):
            load_summary(bogus)


class TestCompare:
    def test_identical_runs_have_zero_deltas(self, tmp_path):
        a = run(small_config(), tmp_path / "a")
        b = run(small_config(), tmp_path / "b")
        deltas = compare(a / "summary.json", b / "summary.json")
        assert deltas
        assert all(entry["delta"] == 0 for entry in deltas.values())
        assert "accuracy.ensemble.final" in deltas

    def test_numeric_shift_is_reported(self, smoke_run):
        run_dir, _ = smoke_run
        base = load_summary(run_dir)
        bumped = json.loads(json.dumps(base))
        bumped["accuracy"]["ensemble"]["best"] = base["accuracy"]["ensemble"]["best"] + 0.12
        deltas = compare(base, bumped)
        assert deltas["accuracy.ensemble.best"]["delta"] == pytest.approx(0.12)

    def test_strings_carry_no_delta(self, smoke_run):
        run_dir, _ = smoke_run
        base = load_summary(run_dir)
        assert "format" not in compare(base, base)

    def test_missing_key_is_structural(self, smoke_run):
        run_dir, _ = smoke_run
        base = load_summary(run_dir)
        broken = json.loads(json.dumps(base))
        del broken["accuracy"]["ensemble"]
        with pytest.raises(StructuralError, match="key mismatch"):
            compare(base, broken)

    def test_a_setting_one_side_lacks_is_a_leaf_without_delta(self, smoke_run, tmp_path, capsys):
        # A summary from before the mixture's anchors, tolerance and
        # iteration cap left the config, against one from after.
        run_dir, _ = smoke_run
        new = load_summary(run_dir)
        old = json.loads(json.dumps(new))
        anchors = [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]
        old["config"].update(gmm_anchors=anchors, gmm_max_iter=100, gmm_tol=20.0)
        (tmp_path / "old.json").write_text(json.dumps(old))
        assert cli.main(["compare", str(tmp_path / "old.json"), str(run_dir)]) == cli.EXIT_OK
        deltas = json.loads(capsys.readouterr().out)
        removed = {path: deltas.pop(path) for path in list(deltas) if path.startswith("config.gmm")}
        assert removed == {
            "config.gmm_anchors": {"a": anchors, "b": None, "delta": None},
            "config.gmm_max_iter": {"a": 100, "b": None, "delta": None},
            "config.gmm_tol": {"a": 20.0, "b": None, "delta": None},
        }
        assert deltas == compare(new, new)
        assert compare(new, old)["config.gmm_tol"] == {"a": None, "b": 20.0, "delta": None}

    def test_a_summary_naming_the_removed_settings_still_compares(self, smoke_run, tmp_path, capsys):
        # A summary from before the blobs' spread, the learning-rate decay
        # and the all-wrong ablation left the config, against one from after.
        run_dir, _ = smoke_run
        new = load_summary(run_dir)
        old = json.loads(json.dumps(new))
        removed = {"all_wrong": False, "lr_decay_factor": 0.2, "lr_decay_period": 80, "spread": 0.5}
        old["config"].update(removed)
        (tmp_path / "old.json").write_text(json.dumps(old))
        assert cli.main(["compare", str(tmp_path / "old.json"), str(run_dir)]) == cli.EXIT_OK
        deltas = json.loads(capsys.readouterr().out)
        assert {key: deltas.pop(f"config.{key}") for key in removed} == {
            key: {"a": value, "b": None, "delta": None} for key, value in removed.items()
        }
        assert deltas == compare(new, new)

    def test_settings_that_differ_but_are_no_numbers_have_rows(self, smoke_run, tmp_path):
        # A list, a string and a boolean: each differing setting is one row
        # without a delta, beside the numeric rows.
        run_dir, cfg = smoke_run
        other = run(small_config(hidden_sizes=[4], noise_kind="asym", no_mixup=True), tmp_path / "b")
        deltas = compare(run_dir / "summary.json", other / "summary.json")
        rows = {path: entry for path, entry in deltas.items() if path.startswith("config.")}
        assert {path: entry for path, entry in rows.items() if entry["delta"] is None} == {
            "config.hidden_sizes": {"a": [8], "b": [4], "delta": None},
            "config.no_mixup": {"a": False, "b": True, "delta": None},
            "config.noise_kind": {"a": "sym-c1", "b": "asym", "delta": None},
        }
        numbers = [key for key, value in config_to_dict(cfg).items() if type(value) in (int, float)]
        assert {path for path, entry in rows.items() if entry["delta"] == 0} == {
            f"config.{key}" for key in numbers
        }
        assert deltas["accuracy.ensemble.final"]["delta"] is not None

    def test_null_versus_number_has_no_arithmetic_delta(self):
        deltas = compare({"x": None}, {"x": 1.0})
        assert deltas["x"] == {"a": None, "b": 1.0, "delta": None}

    def test_null_versus_object_reports_each_leaf_without_delta(self):
        deltas = compare({"x": None, "y": 1}, {"x": {"p": 2.0, "q": {"r": 3}, "s": "t"}, "y": 1})
        assert deltas == {
            "x.p": {"a": None, "b": 2.0, "delta": None},
            "x.q.r": {"a": None, "b": 3, "delta": None},
            "x.s": {"a": None, "b": "t", "delta": None},
            "y": {"a": 1, "b": 1, "delta": 0},
        }
        assert compare({"x": {"p": 2.0}}, {"x": None}) == {
            "x.p": {"a": 2.0, "b": None, "delta": None}
        }

    @pytest.mark.parametrize(
        "fixture, nulls", [("ce_run", ("net1", "net2")), ("single_run", ("net2",))]
    )
    def test_cli_compares_runs_whose_final_branches_are_null(
        self, request, capsys, smoke_run, fixture, nulls
    ):
        # A plain-CE run has no final branches, a single-network run none
        # for net2; against a two-network run each leaf has no delta.
        other = request.getfixturevalue(fixture)
        run_dir, _ = smoke_run
        assert cli.main(["compare", str(other), str(run_dir)]) == cli.EXIT_OK
        deltas = json.loads(capsys.readouterr().out)
        branches = load_summary(run_dir)["final_branches"]
        for net in nulls:
            leaves = {
                f"final_branches.{net}.{branch}.{key}": value
                for branch, stats in branches[net].items()
                for key, value in stats.items()
                if value is not None
            }
            assert leaves
            for path, value in leaves.items():
                assert deltas[path] == {"a": None, "b": value, "delta": None}
        assert "accuracy.ensemble.final" in deltas

    @pytest.mark.parametrize(
        "a, b", [({"a": {"x": 1.0}}, {"a": 1.0}), ({"a": 1.0}, {"a": {"x": 1.0}})]
    )
    def test_dict_against_number_is_a_shape_mismatch(self, a, b):
        with pytest.raises(StructuralError, match="summary shape mismatch at a$"):
            compare(a, b)
