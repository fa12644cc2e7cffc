import copy
import csv
import dataclasses
import errno
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from dstlab import cli, lab, network, selection, training
from dstlab.config import ExperimentConfig, config_from_dict, config_to_dict
from dstlab.data import STATE_NAMES
from dstlab.errors import ConfigError, GmmFitError, NotFoundError, StructuralError
from dstlab.lab import compare, dump_scatter, load_summary, run, scatter_csv_path
from dstlab.lossprofile import minmax_normalize, write_scatter
from dstlab.rng import NET_NAMES
from dstlab.selection import co_divide
from oracles import load_checkpoint


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        n_classes=3,
        per_class=20,
        test_per_class=10,
        n_features=2,
        spread=0.5,
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

    def test_dataset_csv_and_sidecar(self, smoke_run):
        run_dir, _ = smoke_run
        assert (run_dir / "dataset.csv").exists()
        sidecar = json.loads((run_dir / "dataset.csv.json").read_text())
        assert sidecar["n_samples"] == 60

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
            assert params.sizes() == cfg.layer_sizes()

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


class TestEvaluation:
    @pytest.mark.parametrize("single_network", [False, True])
    def test_one_test_set_forward_per_net_and_epoch(
        self, tmp_path, monkeypatch, forks, single_network
    ):
        cfg = small_config(total_epochs=3, single_network=single_network)
        n_test = cfg.n_classes * cfg.test_per_class
        assert n_test not in (cfg.n_classes * cfg.per_class, cfg.batch_size)
        # The epoch writer process evaluates: each test-set forward appends
        # the pid that made it to this file.
        test_rows = tmp_path / "test_rows"
        real_forward = training.forward_cached

        def counting_forward(params, x):
            if len(x) == n_test:
                with test_rows.open("a") as log:
                    log.write(f"{os.getpid()}\n")
            return real_forward(params, x)

        monkeypatch.setattr(training, "forward_cached", counting_forward)
        run(cfg, tmp_path / "r")
        pids = test_rows.read_text().split()
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
        fits = []
        real_fit = selection.fit
        monkeypatch.setattr(selection, "fit", lambda *a, **k: fits.append(1) or real_fit(*a, **k))
        once = run(cfg, tmp_path / "once")
        selection_epochs = cfg.total_epochs - cfg.warmup_epochs
        assert len(fits) == selection_epochs

        def fit_twice(profiles, cfg):
            # The former path: co-divide the profile with itself, keep the
            # division from net1's losses and net1's fit error.
            (prof,) = profiles
            divisions, fit_errors = co_divide([prof, prof], cfg)
            errors = {k: v for k, v in fit_errors.items() if k == "net1"}
            return [divisions[1]], errors

        monkeypatch.setattr(training, "co_divide", fit_twice)
        twice = run(cfg, tmp_path / "twice")
        assert len(fits) == 3 * selection_epochs
        assert run_bytes(once) == run_bytes(twice)


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
        # Training runs in the run's process, evaluation in the writer's,
        # which appends its thread count per epoch to a file.
        trained = []
        evaluated = tmp_path / "evaluated"
        real_eval = lab.evaluate

        def spying(real):
            def train(*args):
                trained.append(network.blas_threads())
                return real(*args)

            return train

        def spying_evaluate(*args):
            with evaluated.open("a") as log:
                log.write(f"{network.blas_threads()}\n")
            return real_eval(*args)

        for name in ("plain_ce_epoch", "run_dst_epoch"):
            monkeypatch.setattr(lab, name, spying(getattr(lab, name)))
        monkeypatch.setattr(lab, "evaluate", spying_evaluate)
        cfg = small_config()
        run(cfg, tmp_path / "r")
        assert trained == [1] * (2 * cfg.warmup_epochs + cfg.total_epochs - cfg.warmup_epochs)
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
    def test_failed_fits_fall_back_and_the_run_finishes(self, tmp_path, monkeypatch):
        cfg = small_config(total_epochs=6, warmup_epochs=1)
        # Epoch 3 loses both fits, epoch 6 (the last) only net1's, whose
        # division trains net2.
        fail = {(3, "net1"), (3, "net2"), (6, "net1")}
        calls = []
        real_fit = selection.fit

        def flaky_fit(*args, **kwargs):
            # Each selection epoch fits net1's losses, then net2's.
            k = len(calls)
            epoch, source = cfg.warmup_epochs + 1 + k // 2, ("net1", "net2")[k % 2]
            calls.append((epoch, source))
            if (epoch, source) in fail:
                raise GmmFitError(f"forced failure: epoch {epoch} {source}")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(selection, "fit", flaky_fit)
        run_dir = run(cfg, tmp_path / "r")
        assert len(calls) == 2 * (cfg.total_epochs - cfg.warmup_epochs)

        summary = load_summary(run_dir)
        assert summary["fallback_epochs"] == {"net1": [3], "net2": [3, 6]}
        assert summary["final_branches"]["net2"] is None
        assert summary["final_branches"]["net1"]["labeled"]["size"] >= 0
        for name in ("net1", "net2"):
            load_checkpoint(run_dir / "checkpoints" / f"{name}.json")

        for epoch in range(cfg.warmup_epochs + 1, cfg.total_epochs + 1):
            report = json.loads((run_dir / "reports" / f"epoch_{epoch:03d}.json").read_text())
            selection_report = report["selection"]
            failed = sorted(src for e, src in fail if e == epoch)
            assert selection_report["fit_errors"] == {
                src: f"forced failure: epoch {epoch} {src}" for src in failed
            }
            # A failed fit of one net's losses sends the other net to plain CE.
            for consumer, source in (("net1", "net2"), ("net2", "net1")):
                if source in failed:
                    assert selection_report[consumer] == {"fallback": True}
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
        for report in reports:
            assert report["selection"]["fit_errors"] == {
                name: "need at least 6 points to fit, got 2" for name in NET_NAMES
            }
            assert all(report["selection"][name] == {"fallback": True} for name in NET_NAMES)
        self.assert_scatter_rows(run_dir, 2)

    def test_six_samples_divide_every_selection_epoch(self, tmp_path):
        run_dir, summary, reports = self.run_smallest(tmp_path, per_class=3)
        assert (summary["n_train"], summary["n_test"]) == (6, 2)
        assert summary["fallback_epochs"] == {"net1": [], "net2": []}
        for report in reports:
            assert report["selection"]["fit_errors"] == {}
            for name in NET_NAMES:
                assert report["selection"][name]["fallback"] is False
                assert report["selection"][name]["n_samples"] == 6
        self.assert_scatter_rows(run_dir, 6)

class TestFlatLossCloud:
    """Runs whose loss profiles are forced flat on one or both axes."""

    @staticmethod
    def flat_run(tmp_path, monkeypatch, both_axes: bool):
        real = training.profile

        def flat_profile(params, ds):
            prof = real(params, ds)
            l_nis = np.full_like(prof.l_nis, 0.7) if both_axes else prof.l_nis
            l_prd = np.full_like(prof.l_prd, 0.3)
            return dataclasses.replace(
                prof,
                l_nis=l_nis,
                l_prd=l_prd,
                nrm_nis=minmax_normalize(l_nis),
                nrm_prd=minmax_normalize(l_prd),
            )

        monkeypatch.setattr(training, "profile", flat_profile)
        cfg = small_config(total_epochs=4, warmup_epochs=2)
        return cfg, run(cfg, tmp_path / "r")

    @staticmethod
    def selection_reports(cfg, run_dir, fit_errors):
        for epoch in range(cfg.warmup_epochs + 1, cfg.total_epochs + 1):
            report = json.loads((run_dir / "reports" / f"epoch_{epoch:03d}.json").read_text())
            assert report["selection"]["fit_errors"] == fit_errors
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
        fit_errors = {"net1": reason, "net2": reason}
        for sel in self.selection_reports(cfg, run_dir, fit_errors):
            for name in ("net1", "net2"):
                assert sel[name] == {"fallback": True}
        summary = load_summary(run_dir)
        dst_epochs = list(range(cfg.warmup_epochs + 1, cfg.total_epochs + 1))
        assert summary["fallback_epochs"] == {"net1": dst_epochs, "net2": dst_epochs}
        assert summary["final_branches"] == {"net1": None, "net2": None}
        for column in ("nrm_nis", "nrm_prd"):
            assert set(self.scatter_column(run_dir, column)) == {0.0}

    def test_flat_prediction_axis_still_divides(self, tmp_path, monkeypatch):
        cfg, run_dir = self.flat_run(tmp_path, monkeypatch, both_axes=False)
        summary = load_summary(run_dir)
        for sel in self.selection_reports(cfg, run_dir, {}):
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
from dstlab import cli, lab

if sys.argv[2] == "fail":
    def write_scatter(path, *args):
        raise OSError(28, "No space left on device", str(path))
    lab.write_scatter = write_scatter
print("before the run")
code = cli.main(["run", sys.argv[1]])
print("after the run", code)
"""


class TestScatterWriter:
    """The forked process that writes the scatter CSVs, and write errors."""

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
            "dataset.csv", "dataset.csv.json", "manifest.json",
            "reports/epoch_001.json", "reports/epoch_002.json",
            *(f"scatter/epoch_{e:03d}_{net}.csv" for e in (2, 3) for net in ("net1", "net2")),
        }
        for path in (run_dir / "scatter").iterdir():
            assert len(path.read_text().splitlines()) == 1 + 60

    def test_training_error_leaves_the_epoch_in_flight_written(self, tmp_path, monkeypatch, forks):
        real = lab.run_dst_epoch
        calls = []

        def failing_dst_epoch(*args):
            calls.append(1)
            if len(calls) == 2:  # epoch 3, after one warmup epoch
                raise RuntimeError("training failed")
            return real(*args)

        monkeypatch.setattr(lab, "run_dst_epoch", failing_dst_epoch)
        with pytest.raises(RuntimeError, match="training failed"):
            run(small_config(total_epochs=4), tmp_path / "r")
        assert_reaped(forks)
        # Epoch 2 was in flight: its dumps and report are complete, as they
        # would be had the run written them itself.
        run_dir = tmp_path / "r"
        assert set(run_bytes(run_dir)) == {
            "dataset.csv", "dataset.csv.json", "manifest.json",
            "reports/epoch_001.json", "reports/epoch_002.json",
            "scatter/epoch_002_net1.csv", "scatter/epoch_002_net2.csv",
        }
        report = json.loads((run_dir / "reports" / "epoch_002.json").read_text())
        assert set(report["test_accuracy"]) == {"net1", "net2", "ensemble"}

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
        real = lab.write_scatter

        def full_disk_write_scatter(path, *args):
            if path.name == failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return real(path, *args)

        monkeypatch.setattr(lab, "write_scatter", full_disk_write_scatter)
        run_dir = tmp_path / "r"
        with pytest.raises(StructuralError, match=f"cannot write .*/{failing}: "):
            run(small_config(total_epochs=4, scatter_every=scatter_every), run_dir)
        assert_reaped(forks)
        assert set(run_bytes(run_dir)) == {
            "dataset.csv", "dataset.csv.json", "manifest.json",
            *(f"reports/epoch_{e:03d}.json" for e in reports),
            *(f"scatter/{name}" for name in dumps),
        }

    @pytest.mark.parametrize(
        "name",
        ["dataset.csv", "manifest.json", "epoch_002.json", "epoch_002_net2.csv", "net2.json",
         "summary.json"],
    )
    def test_write_error_exits_two_naming_the_file(
        self, tmp_path, monkeypatch, capsys, forks, name
    ):
        # The scatter CSV fails in the writer process, the rest in the run's.
        real_open = Path.open

        def full_disk_open(self, mode="r", *args, **kwargs):
            if self.name == name and "w" in mode:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
            return real_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", full_disk_open)
        out = tmp_path / "out"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(small_config(output_dir=str(out)))))
        assert cli.main(["run", str(config_path)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and f"/{name}: " in err
        assert "No space left on device" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()
        assert_reaped(forks)

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

    def test_csvs_match_in_process_write_scatter(self, tmp_path, monkeypatch):
        cfg = small_config(total_epochs=5, scatter_every=1)
        clouds = []
        real = lab.run_dst_epoch

        def recording_dst_epoch(*args):
            selection, profiles = real(*args)
            clouds.append(copy.deepcopy(profiles))
            return selection, profiles

        monkeypatch.setattr(lab, "run_dst_epoch", recording_dst_epoch)
        run_dir = run(cfg, tmp_path / "r")
        expected = {}
        for epoch, profiles in enumerate(clouds, start=cfg.warmup_epochs + 1):
            for net, prof in zip(NET_NAMES, profiles):
                path = tmp_path / f"epoch_{epoch}_{net}.csv"
                write_scatter(path, epoch, net, prof)
                expected[scatter_csv_path(run_dir, epoch, net).name] = path.read_bytes()
        assert len(expected) == 2 * (cfg.total_epochs - cfg.warmup_epochs)
        written = {p.name: p.read_bytes() for p in (run_dir / "scatter").iterdir()}
        assert written == expected


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

    def test_null_versus_number_has_no_arithmetic_delta(self):
        deltas = compare({"x": None}, {"x": 1.0})
        assert deltas["x"] == {"a": None, "b": 1.0, "delta": None}
