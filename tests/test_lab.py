import csv
import json

import pytest

from dstlab import lab, selection, training
from dstlab.config import ExperimentConfig, config_from_dict
from dstlab.errors import ConfigError, NotFoundError, StructuralError
from dstlab.lab import compare, dump_scatter, load_summary, run, scatter_csv_path
from dstlab.network import load_checkpoint
from dstlab.selection import CoDivision, co_divide


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
    def test_one_test_set_forward_per_net_and_epoch(self, tmp_path, monkeypatch, single_network):
        cfg = small_config(total_epochs=3, single_network=single_network)
        n_test = cfg.n_classes * cfg.test_per_class
        assert n_test not in (cfg.n_classes * cfg.per_class, cfg.batch_size)
        test_rows = []
        real_forward = training.forward_cached

        def counting_forward(params, x):
            if len(x) == n_test:
                test_rows.append(len(x))
            return real_forward(params, x)

        monkeypatch.setattr(training, "forward_cached", counting_forward)
        run(cfg, tmp_path / "r")
        assert len(test_rows) == 2 * cfg.total_epochs

    @pytest.mark.parametrize("single_network", [False, True])
    def test_reports_match_the_per_net_reference(self, tmp_path, monkeypatch, single_network):
        cfg = small_config(total_epochs=3, single_network=single_network)
        fast = run(cfg, tmp_path / "fast")

        def reference(nets, features, labels, ensemble):
            # The former evaluation: four forwards, net1 alone in single mode.
            members = [nets["net1"]] if single_network else [nets["net1"], nets["net2"]]
            return {
                "net1": training.accuracy(nets["net1"], features, labels),
                "net2": training.accuracy(nets["net2"], features, labels),
                "ensemble": training.ensemble_accuracy(members, features, labels),
            }

        monkeypatch.setattr(lab, "evaluate", reference)
        slow = run(cfg, tmp_path / "slow")
        assert run_bytes(fast) == run_bytes(slow)


class TestSingleNetworkDivision:
    def test_one_fit_per_selection_epoch_and_same_run(self, tmp_path, monkeypatch):
        cfg = small_config(total_epochs=4, single_network=True)
        fits = []
        real_fit = selection.fit
        monkeypatch.setattr(selection, "fit", lambda *a, **k: fits.append(1) or real_fit(*a, **k))
        once = run(cfg, tmp_path / "once")
        selection_epochs = cfg.total_epochs - cfg.warmup_epochs
        assert len(fits) == selection_epochs

        def fit_twice(prof, **options):
            # The former path: co-divide the profile with itself, keep net1's.
            both = co_divide(prof, prof, **options)
            errors = {k: v for k, v in both.fit_errors.items() if k == "net1"}
            return CoDivision(for_net1=both.for_net2, for_net2=None, fit_errors=errors)

        monkeypatch.setattr(training, "self_divide", fit_twice)
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
