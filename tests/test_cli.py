import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dstlab.cli import main
from dstlab.config import ExperimentConfig, config_to_dict
from dstlab.lab import SUMMARY_FORMAT

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, **overrides):
    base = dict(
        n_classes=3,
        per_class=20,
        test_per_class=10,
        hidden_sizes=[8],
        total_epochs=2,
        warmup_epochs=1,
        batch_size=8,
        noise_rate=0.2,
    )
    cfg = ExperimentConfig(**{**base, **overrides})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


def refuse_read(self, *args, **kwargs):
    """`Path.read_text` or `Path.iterdir` stand-in: root reads a chmod 000
    file or directory, so the refusal is raised by hand."""
    raise PermissionError(13, "Permission denied", str(self))


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["run", str(cfg_path)]) == 0
    return tmp_path / "out"


class TestRun:
    def test_prints_run_directory(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert main(["run", str(cfg_path)]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path / "out")

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_config_without_read_permission_exits_one(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_config(tmp_path)
        monkeypatch.setattr(Path, "read_text", refuse_read)
        assert main(["run", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config") and "Permission denied" in err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"per_clas": 20}))
        assert main(["run", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["gmm_anchors", "gmm_tol", "gmm_max_iter"])
    def test_a_former_mixture_setting_is_an_unknown_key(self, tmp_path, capsys, monkeypatch, key):
        # The fit's anchors and stop rule are constants of `selection` now.
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(tmp_path / "root"))
        path = tmp_path / "old.json"
        path.write_text(json.dumps({key: 1}))
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: unknown config keys: {key}\n"
        assert captured.out == ""
        assert not (tmp_path / "root").exists()

    @pytest.mark.parametrize("key", ["spread", "lr_decay_factor", "lr_decay_period", "all_wrong"])
    def test_a_removed_setting_is_an_unknown_key(self, tmp_path, capsys, monkeypatch, key):
        # The blobs' spread and the learning-rate decay are constants of
        # `data` and `config` now, and the all-wrong ablation is gone.
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(tmp_path / "root"))
        path = tmp_path / "old.json"
        path.write_text(json.dumps({key: 1}))
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: unknown config keys: {key}\n"
        assert captured.out == ""
        assert not (tmp_path / "root").exists()

    def test_ill_typed_config_exits_one_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hidden_sizes": ["a"]}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: hidden_sizes") and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [{"momentum": 1.5}, {"weight_decay": -0.1}])
    def test_optimizer_range_exits_one_before_any_run_file(
        self, tmp_path, capsys, monkeypatch, overrides
    ):
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(tmp_path / "root"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"output_dir": "out", **overrides}))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {next(iter(overrides))}")
        assert not (tmp_path / "root").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"master_seed": -1},
            {"data_seed": -3},
            {"warmup_epochs": 0},
            {"weight_decay": -1},
            {"alpha": 0},
        ],
    )
    def test_late_failing_range_exits_one_before_any_run_file(
        self, tmp_path, capsys, monkeypatch, overrides
    ):
        # Negative seeds once ended in a numpy traceback after the run
        # directory was made. Past the config, a zero warmup would too; a
        # negative weight decay and a zero alpha would stop the run
        # a few epochs in, after warmup had written its reports.
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(tmp_path / "root"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(overrides))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {next(iter(overrides))}") and "Traceback" not in err
        assert not (tmp_path / "root").exists()

    def test_output_dir_naming_the_output_root_exits_one(self, tmp_path, capsys, monkeypatch):
        root = tmp_path / "root"
        root.mkdir()
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(root))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"output_dir": "."}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: output_dir must not name the output root itself, got '.'\n"
        assert not list(root.iterdir())

    def test_output_dir_climbing_out_of_the_output_root_exits_one(
        self, tmp_path, capsys, monkeypatch
    ):
        # "../x" would put the whole run in base/x, beside the root.
        base = tmp_path / "base"
        (base / "root").mkdir(parents=True)
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(base / "root"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"output_dir": "../x"}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: output_dir must stay under the output root, got '../x'\n"
        assert [child.name for child in base.iterdir()] == ["root"]
        assert not list((base / "root").iterdir())

    @pytest.mark.parametrize("output_dir", ["a\u0000b", "a\ud800b"], ids=["nul", "surrogate"])
    def test_output_dir_the_file_system_cannot_name_exits_one(
        self, tmp_path, capsys, monkeypatch, output_dir
    ):
        # A NUL byte, or a lone surrogate that the file system encoding
        # cannot encode: mkdir would raise ValueError or UnicodeEncodeError.
        root = tmp_path / "root"
        root.mkdir()
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(root))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"output_dir": output_dir}))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"config error: output_dir must be a path the file system can name, got {output_dir!r}\n"
        )
        assert "Traceback" not in err
        assert not list(root.iterdir())

    def test_non_finite_number_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": NaN}')
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: alpha must be finite")

    def test_directory_as_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"noise_kind": "\xe9"}')
        assert main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_output_dir_naming_a_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("x")
        cfg_path = write_config(tmp_path, output_dir=str(out))
        assert main(["run", str(cfg_path)]) == 2
        assert "cannot create run directory" in capsys.readouterr().err
        assert out.read_text() == "x"

    def test_occupied_output_dir_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("x")
        cfg_path = write_config(tmp_path, output_dir=str(out))
        assert main(["run", str(cfg_path)]) == 2
        assert "non-empty" in capsys.readouterr().err

    def test_unlistable_output_dir_exits_two(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        cfg_path = write_config(tmp_path, output_dir=str(out))
        monkeypatch.setattr(Path, "iterdir", refuse_read)
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create run directory {out}: ")
        assert "Permission denied" in err and "Traceback" not in err


class TestDumpScatter:
    def test_prints_existing_path(self, finished_run, capsys):
        assert main(["dump-scatter", str(finished_run), "2", "net1"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("epoch_002_net1.csv")

    def test_missing_epoch_exits_two(self, finished_run, capsys):
        assert main(["dump-scatter", str(finished_run), "9", "net1"]) == 2
        assert "no scatter dump" in capsys.readouterr().err

    def test_bad_net_exits_one(self, finished_run, capsys):
        assert main(["dump-scatter", str(finished_run), "2", "banana"]) == 1
        assert "net1 or net2" in capsys.readouterr().err


class TestCompare:
    def test_identical_summaries_print_zero_deltas(self, finished_run, capsys):
        assert main(["compare", str(finished_run), str(finished_run)]) == 0
        deltas = json.loads(capsys.readouterr().out)
        assert all(entry["delta"] == 0 for entry in deltas.values())

    def test_missing_summary_exits_two(self, finished_run, tmp_path, capsys):
        assert main(["compare", str(finished_run), str(tmp_path / "ghost")]) == 2
        assert "summary not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [b"{not json", b"\xff\xfe", b"[1, 2]"], ids=["not-json", "not-utf8", "list"]
    )
    def test_unreadable_summary_exits_two(self, finished_run, tmp_path, capsys, content):
        path = tmp_path / "summary.json"
        path.write_bytes(content)
        assert main(["compare", str(finished_run), str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    def test_summaries_of_different_shapes_exit_two(self, tmp_path, capsys):
        for name, accuracy in (("a.json", {"final": 0.9}), ("b.json", 0.9)):
            summary = {"format": SUMMARY_FORMAT, "accuracy": accuracy}
            (tmp_path / name).write_text(json.dumps(summary), encoding="utf-8")
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
        err = capsys.readouterr().err
        assert err == "error: summary shape mismatch at accuracy\n"

    def test_summary_that_is_a_directory_exits_two(self, tmp_path, capsys):
        (tmp_path / "A" / "summary.json").mkdir(parents=True)
        (tmp_path / "B").mkdir()
        assert main(["compare", str(tmp_path / "A"), str(tmp_path / "B")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read summary") and "Traceback" not in err

    def test_summary_without_read_permission_exits_two(self, finished_run, monkeypatch, capsys):
        monkeypatch.setattr(Path, "read_text", refuse_read)
        assert main(["compare", str(finished_run), str(finished_run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read summary") and "Permission denied" in err


class TestPythonDashM:
    """`python -m dstlab` in a fresh interpreter that finds the package on
    PYTHONPATH, as in a checkout without an install."""

    @staticmethod
    def dstlab(tmp_path, *args):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        return subprocess.run(
            [sys.executable, "-m", "dstlab", *args],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_run_prints_the_run_directory(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, total_epochs=4, warmup_epochs=2, output_dir=str(out))
        done = self.dstlab(tmp_path, "run", str(cfg_path))
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{out}\n"
        assert (out / "summary.json").is_file()

    def test_unknown_key_exits_one_without_traceback(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"per_clas": 20}))
        done = self.dstlab(tmp_path, "run", str(path))
        assert done.returncode == 1
        assert done.stderr.startswith("config error:") and "Traceback" not in done.stderr
        assert done.stdout == ""


class TestParser:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "usage" in capsys.readouterr().err

    def test_epoch_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit):
            main(["dump-scatter", "somewhere", "two", "net1"])
