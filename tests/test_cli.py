import json

import pytest

from dstlab.cli import main
from dstlab.config import ExperimentConfig, config_to_dict


def write_config(tmp_path, **overrides):
    cfg = ExperimentConfig(
        n_classes=3,
        per_class=20,
        test_per_class=10,
        hidden_sizes=[8],
        total_epochs=2,
        warmup_epochs=1,
        batch_size=8,
        noise_rate=0.2,
        **overrides,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


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

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"per_clas": 20}))
        assert main(["run", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

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
            {"gmm_max_iter": 0},
            {"gmm_tol": -1},
            {"gmm_anchors": [[0, 0], [0, 0], [1, 0]]},
        ],
    )
    def test_late_failing_range_exits_one_before_any_run_file(
        self, tmp_path, capsys, monkeypatch, overrides
    ):
        # Negative seeds once ended in a numpy traceback after the run
        # directory was made; the mixture settings failed at the first
        # selection epoch, after warmup had written its reports.
        monkeypatch.setenv("DSTLAB_OUTPUT_ROOT", str(tmp_path / "root"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(overrides))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {next(iter(overrides))}") and "Traceback" not in err
        assert not (tmp_path / "root").exists()

    def test_non_finite_number_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"gmm_tol": NaN}')
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: gmm_tol must be finite")

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


class TestParser:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "usage" in capsys.readouterr().err

    def test_epoch_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit):
            main(["dump-scatter", "somewhere", "two", "net1"])
