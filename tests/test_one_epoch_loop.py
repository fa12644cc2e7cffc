"""Epochs are trained in one place, `training.run_epoch`, samples are
divided in one place, `selection.divide`, labels and predictions are
judged right or wrong in one place, `data.audit_states`, and the schedule
is read in one module, `training`.

Four AST scans. The first reports every call of `_train_epoch` (the
per-network batch loop) and every read of a `shuffle` attribute (the
batch-order streams, `RngStreams.shuffle`, or a generator's `shuffle`
method) in the package with its module. Only `training` may make one, so
no second epoch loop, with its own batch orders, can grow back beside
`run_epoch`.

The second reports every call of `fit`, `assign_roles` or `partition`
(the mixture fit, role matching and branch codes) with its module and
enclosing function. Only `selection.divide` may make one, so a new
selection rule joins that one path from loss cloud to branch table and
report instead of growing a second.

The third reports every comparison that reads a `true_labels` attribute
with its module and enclosing function. Only `data.audit_states` may make
one, so every report reads a sample's correctness from its agreement
state instead of judging it again.

The fourth reports every call of `phase_at` or `learning_rate_at` (the
schedule methods of `ExperimentConfig`) with its module. Only `training`
may make one: `run_epoch` returns the phase and learning rate it trained
with, and every other module, the epoch writer included, records those
values instead of deriving them again. `config` defines the methods,
which is no call.
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


DIVIDERS = {"fit", "assign_roles", "partition"}


def nodes_in_functions(source: str):
    """`(node, enclosing function or None)` for every node of `source`, in
    source order."""

    def visit(node: ast.AST, function: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            yield child, function
            yield from visit(child, function)

    yield from visit(ast.parse(source), None)


def calls_of(names: set[str], source: str) -> list[tuple[str, str | None, int]]:
    """`(callee, enclosing function or None, line)` for every call of a
    name in `names`, bare or as an attribute."""
    found: list[tuple[str, str | None, int]] = []
    for node, function in nodes_in_functions(source):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((name, function, node.lineno))
    return found


def division_calls(source: str) -> list[tuple[str, str | None, int]]:
    """`calls_of` the names in `DIVIDERS`."""
    return calls_of(DIVIDERS, source)


def misplaced_divisions(module: str, source: str) -> list[str]:
    """`module.function: callee (line n)` for every call outside `selection.divide`."""
    return [
        f"{module}.{function or '<module>'}: {callee} (line {line})"
        for callee, function, line in division_calls(source)
        if (module, function) != ("selection", "divide")
    ]


class TestDivisionScanner:
    def test_bare_and_attribute_calls_count_with_their_function(self):
        source = (
            "def f(points, model):\n    gmm.fit(points)\n    roles = assign_roles(model)\n"
            "    def inner(w):\n        return selection.partition(w, w, cfg)\n"
            "fit(points)\n"
        )
        assert division_calls(source) == [
            ("fit", "f", 2), ("assign_roles", "f", 3), ("partition", "inner", 5),
            ("fit", None, 6),
        ]

    def test_definitions_and_other_names_do_not_count(self):
        source = (
            "def fit(points):\n    pass\n"
            "def partition(w_r, w_prd, cfg):\n    return refit(w_r)\n"
            "model = GmmModel(fit=1)\nroles = assign_roles\n"
        )
        assert division_calls(source) == []

    def test_selection_divide_passes_and_others_fail(self):
        source = "def divide(prof):\n    model = fit(points)\n"
        assert misplaced_divisions("selection", source) == []
        assert misplaced_divisions("training", source) == ["training.divide: fit (line 2)"]
        assert misplaced_divisions("selection", source.replace("divide", "co_divide")) == [
            "selection.co_divide: fit (line 2)"
        ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_samples_are_divided_only_in_selection_divide(path):
    assert misplaced_divisions(path.stem, path.read_text(encoding="utf-8")) == []


def truth_comparisons(source: str) -> list[tuple[str | None, int]]:
    """`(enclosing function or None, line)` for every comparison that reads
    a `true_labels` attribute anywhere in its operands."""
    return [
        (function, node.lineno)
        for node, function in nodes_in_functions(source)
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Attribute) and n.attr == "true_labels" for n in ast.walk(node))
    ]


def misplaced_truths(module: str, source: str) -> list[str]:
    """`module.function: true_labels (line n)` for every comparison outside
    `data.audit_states`."""
    return [
        f"{module}.{function or '<module>'}: true_labels (line {line})"
        for function, line in truth_comparisons(source)
        if (module, function) != ("data", "audit_states")
    ]


class TestTruthScanner:
    def test_comparisons_reading_true_labels_count_with_their_function(self):
        source = (
            "def f(ds, p):\n    ok = ds.noisy_labels == ds.true_labels\n"
            "    hit = p[0] != self.ds.true_labels[0]\n"
            "    def inner(y):\n        return y < ds.true_labels.max()\n"
            "x = (ds.true_labels == 1).mean()\n"
        )
        assert truth_comparisons(source) == [("f", 2), ("f", 3), ("inner", 5), (None, 6)]

    def test_other_reads_and_comparisons_do_not_count(self):
        source = (
            "truth = ds.true_labels\nevaluate(params, test.true_labels)\n"
            "ok = noisy == truth\nmake(true_labels=a == b)\nds.true_labels.copy()\n"
        )
        assert truth_comparisons(source) == []

    def test_audit_states_passes_and_others_fail(self):
        source = "def audit_states(ds, p):\n    return p == ds.true_labels\n"
        assert misplaced_truths("data", source) == []
        assert misplaced_truths("selection", source) == [
            "selection.audit_states: true_labels (line 2)"
        ]
        assert misplaced_truths("data", source.replace("audit_states", "branch_report")) == [
            "data.branch_report: true_labels (line 2)"
        ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_correctness_is_judged_only_in_audit_states(path):
    assert misplaced_truths(path.stem, path.read_text(encoding="utf-8")) == []


SCHEDULE = {"phase_at", "learning_rate_at"}


def schedule_calls(source: str) -> list[tuple[str, int]]:
    """`(callee, line)` for every call of a name in `SCHEDULE`, bare or as
    an attribute."""
    return [(callee, line) for callee, _, line in calls_of(SCHEDULE, source)]


def misplaced_schedule_reads(module: str, source: str) -> list[str]:
    """`module: callee (line n)` for every call outside `training`."""
    if module == "training":
        return []
    return [f"{module}: {callee} (line {line})" for callee, line in schedule_calls(source)]


class TestScheduleScanner:
    def test_bare_and_attribute_calls_count(self):
        source = (
            "def f(cfg, epoch):\n    phase = cfg.phase_at(epoch)\n"
            "    lr = self.cfg.learning_rate_at(epoch + 1)\n"
            "    return phase_at(epoch)\n"
        )
        assert schedule_calls(source) == [
            ("phase_at", 2), ("learning_rate_at", 3), ("phase_at", 4)
        ]

    def test_definitions_and_references_do_not_count(self):
        source = (
            "class C:\n    def phase_at(self, epoch):\n        return 'dst'\n"
            "    def learning_rate_at(self, epoch):\n        return 0.1\n"
            "rate = cfg.learning_rate_at\nmake(phase_at=1)\ncfg.phase\n"
        )
        assert schedule_calls(source) == []

    def test_training_passes_and_others_fail(self):
        source = 'report = {"phase": cfg.phase_at(epoch)}\n'
        assert misplaced_schedule_reads("training", source) == []
        assert misplaced_schedule_reads("lab", source) == ["lab: phase_at (line 1)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_schedule_is_read_only_in_training(path):
    assert misplaced_schedule_reads(path.stem, path.read_text(encoding="utf-8")) == []
