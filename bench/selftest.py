"""Seconds-long self-test of the benchmark's tracing, metrics and checks.

Run from the repository root: python3 bench/selftest.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
import unittest  # noqa: E402

import checks  # noqa: E402
from run import WORK_ROOT, unit_of, workload_config  # noqa: E402
from tracing import Span, Tracer, layer_metrics  # noqa: E402


class TracerTest(unittest.TestCase):
    def setUp(self):
        # A two-module package where `pkg.b` imports a function of `pkg.a` by name.
        a = types.ModuleType("pkg.a")
        exec("def leaf(x):\n    return x + 1\n\ndef _hidden():\n    return 0\n", a.__dict__)
        b = types.ModuleType("pkg.b")
        b.leaf = a.leaf
        exec("def outer(x):\n    return leaf(x) * 2\n\ndef boom():\n    raise ValueError\n", b.__dict__)
        self.modules = {"pkg": types.ModuleType("pkg"), "pkg.a": a, "pkg.b": b}
        sys.modules.update(self.modules)

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_spans_nest_and_imported_names_are_wrapped(self):
        tracer = Tracer()
        self.assertEqual(tracer.install("pkg"), 3)  # leaf, outer, boom; not _hidden
        self.assertEqual(self.modules["pkg.b"].outer(1), 4)
        names = [(s.name, s.parent) for s in tracer.spans]
        self.assertEqual(names, [("b.outer", -1), ("a.leaf", 0)])
        self.assertTrue(tracer.spans[0].start <= tracer.spans[1].start)
        self.assertTrue(tracer.spans[1].end <= tracer.spans[0].end)

    def test_a_raising_call_is_recorded_and_reraised(self):
        tracer = Tracer()
        tracer.install("pkg")
        with self.assertRaises(ValueError):
            self.modules["pkg.b"].boom()
        self.assertTrue(tracer.spans[0].raised)
        self.assertEqual(tracer._stack, [])


def span(name, parent, start, end, **kw):
    return Span(name, parent, float(start), float(end), **kw)


class LayerMetricsTest(unittest.TestCase):
    def test_totals_counts_and_size_split(self):
        spans = [
            span("lab.run", -1, 0, 100),
            span("lab.build_datasets", 0, 0, 1),
            span("training.plain_ce_epoch", 0, 1, 5),
            span("network.forward_cached", 2, 1, 2, note=128),
            span("network.sgd_step", 2, 2, 3),
            span("training.run_dst_epoch", 0, 5, 25),
            span("gmm.fit", 5, 5, 7, note=9),
            span("gmm.fit", 5, 7, 8, raised=True),
            span("training.ensemble_probs", 5, 8, 9),
            span("network.forward_cached", 8, 8, 9, note=4000),
            span("training.accuracy", 0, 25, 27),
            span("training.ensemble_accuracy", 0, 27, 30),
            span("training.ensemble_probs", 11, 27, 30),
            span("lossprofile.write_scatter", 0, 30, 31),
        ]
        m = layer_metrics(spans, warmup_epochs=2, batch_size=128)
        self.assertEqual(m["lab.warmup_epoch_ms"], 2000.0)
        self.assertEqual(m["lab.dst_epoch_ms"], 20000.0)
        self.assertEqual(m["lab.eval_s"], 5.0)
        # self time 100 - (1+4+20+2+3+1) = 69, plus the scatter write
        self.assertEqual(m["lab.artifacts_s"], 70.0)
        self.assertEqual(m["training.ensemble_probs_s"], 1.0)  # not the eval call
        self.assertEqual(m["network.forward_calls"], 2)
        self.assertEqual(m["network.forward_batch_us"], 1e6)
        self.assertEqual(m["network.forward_full_us"], 1e6)
        self.assertEqual((m["gmm.fits"], m["gmm.em_iterations"], m["selection.fit_failures"]), (2, 9, 1))
        self.assertEqual(m["training.batches"], 1)
        self.assertEqual(m["data.build_s"], 1.0)

    def test_units_and_seeded_configs(self):
        self.assertEqual(unit_of("lab.dst_epoch_ms"), "ms")
        self.assertEqual(unit_of("network.forward_full_us"), "us")
        self.assertEqual(unit_of("gmm.fits"), "count")
        self.assertEqual(unit_of("peak_rss_mb"), "MB")
        self.assertEqual(workload_config("ceiling", 0), workload_config("ceiling", 5))
        self.assertNotEqual(workload_config("ceiling", 0), workload_config("ceiling", 1))
        self.assertEqual(workload_config("cli-default", 1), {"master_seed": 1, "data_seed": 7})


class ChecksTest(unittest.TestCase):
    """Checks on a real, tiny dstlab run, then on tampered copies of it."""

    @classmethod
    def setUpClass(cls):
        from dstlab import lab
        from dstlab.config import config_from_dict

        WORK_ROOT.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT))
        cfg = config_from_dict(
            {"per_class": 60, "test_per_class": 30, "total_epochs": 8, "warmup_epochs": 4, "scatter_every": 2}
        )
        cls.run_dir = lab.run(cfg, cls.tmp / "run")
        _, test, _ = lab.build_datasets(cfg)
        cls.test_set = (test.features, test.true_labels)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    def copy(self):
        target = Path(tempfile.mkdtemp(dir=self.tmp)) / "run"
        shutil.copytree(self.run_dir, target)
        return target

    def test_untouched_run_passes(self):
        self.assertEqual(checks.run_problems(self.run_dir, self.test_set, {}), [])
        self.assertEqual(len(list((self.run_dir / "scatter").iterdir())), 4)  # epochs 6 and 8

    def test_floors_apply(self):
        problems = checks.run_problems(self.run_dir, self.test_set, {"final_accuracy": 1.01})
        self.assertTrue(any("below 1.01" in p for p in problems))

    def test_wrong_summary_accuracy_fails(self):
        run_dir = self.copy()
        path = run_dir / "summary.json"
        summary = json.loads(path.read_text())
        summary["accuracy"]["ensemble"]["final"] -= 1.0 / len(self.test_set[1])
        path.write_text(json.dumps(summary))
        problems = checks.run_problems(run_dir, self.test_set, {})
        self.assertTrue(any("from checkpoints" in p for p in problems))

    def test_tampered_normalization_fails(self):
        run_dir = self.copy()
        path = sorted((run_dir / "scatter").iterdir())[0]
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[5] = repr(float(cells[5]) + 1e-9)
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        problems = checks.run_problems(run_dir, self.test_set, {})
        self.assertEqual(len(problems), 1)
        self.assertIn("min-max", problems[0])

    def test_missing_scatter_file_fails(self):
        run_dir = self.copy()
        sorted((run_dir / "scatter").iterdir())[-1].unlink()
        problems = checks.run_problems(run_dir, self.test_set, {})
        self.assertTrue(any("scatter files" in p for p in problems))

    def test_precision_must_beat_the_clean_share(self):
        run_dir = self.copy()
        path = run_dir / "dataset.csv"
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[2] = row[1]  # every label clean: no selection can beat that
        path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        problems = checks.run_problems(run_dir, self.test_set, {})
        self.assertEqual(sum("clean share" in p for p in problems), 2)


if __name__ == "__main__":
    unittest.main()
