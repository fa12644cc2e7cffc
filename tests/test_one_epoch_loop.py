"""Epochs are trained in one place: `training.run_epoch`.

An AST scan: every call of `_train_epoch` (the per-network batch loop) and
every read of a `shuffle` attribute (the batch-order streams,
`RngStreams.shuffle`, or a generator's `shuffle` method) in the package is
reported with its module. Only `training` may make one, so no second epoch
loop, with its own batch orders, can grow back beside `run_epoch`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dstlab").glob("*.py"))

ALLOWED = {"training"}


def epoch_loop_uses(source: str) -> list[tuple[str, int]]:
    """`(what, line)` for every `_train_epoch` call and `shuffle` read."""
    found: list[tuple[str, int]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "_train_epoch":
                found.append(("_train_epoch", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "shuffle":
            found.append(("shuffle", node.lineno))
    return sorted(found, key=lambda use: use[1])


def misplaced(module: str, source: str) -> list[str]:
    """`module: what (line n)` for every use outside `ALLOWED` modules."""
    if module in ALLOWED:
        return []
    return [f"{module}: {what} (line {line})" for what, line in epoch_loop_uses(source)]


class TestScanner:
    def test_calls_and_stream_reads_count(self):
        source = (
            "def f(ws, streams, rng):\n"
            "    order = streams.shuffle[0].permutation(4)\n"
            "    training._train_epoch(ws, 0.1, ds, 2, order)\n"
            "    _train_epoch(ws, 0.1, ds, 2, order)\n"
            "    rng.shuffle(order)\n"
        )
        assert epoch_loop_uses(source) == [
            ("shuffle", 2), ("_train_epoch", 3), ("_train_epoch", 4), ("shuffle", 5)
        ]

    def test_definitions_keywords_and_other_streams_do_not_count(self):
        source = (
            "def _train_epoch(ws):\n    pass\n"
            "class S:\n    shuffle: tuple\n"
            "make(shuffle=1)\nstreams.mixup[0].permutation(4)\n"
        )
        assert epoch_loop_uses(source) == []

    def test_training_passes_and_others_fail(self):
        source = "order = streams.shuffle[1].permutation(8)\n"
        assert misplaced("training", source) == []
        assert misplaced("lab", source) == ["lab: shuffle (line 1)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_epochs_are_trained_only_in_training(path):
    assert misplaced(path.stem, path.read_text(encoding="utf-8")) == []
