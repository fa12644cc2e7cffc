"""Range checks live in the config: no other module raises `ConfigError`.

An AST scan: every `raise ConfigError` or `raise ConfigError(...)` in the
package is reported with its module and enclosing function. `config.py`
checks every setting once, before any run file exists; `lab.dump_scatter`
checks the net name given on the command line. A check anywhere else
restates one of those, or checks a value the program built itself.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dstlab").glob("*.py"))

# (module, enclosing function) pairs allowed to raise; None allows the whole module.
ALLOWED = {("config", None), ("lab", "dump_scatter")}


def config_error_raises(source: str) -> list[tuple[str | None, int]]:
    """`(enclosing function or None, line)` for every `raise ConfigError`."""
    found: list[tuple[str | None, int]] = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                    found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def misplaced(module: str, source: str) -> list[str]:
    """`module.function (line n)` for every raise outside `ALLOWED`."""
    if (module, None) in ALLOWED:
        return []
    return [
        f"{module}.{function or '<module>'} (line {line})"
        for function, line in config_error_raises(source)
        if (module, function) not in ALLOWED
    ]


class TestScanner:
    def test_calls_and_bare_names_count(self):
        source = (
            "def f(x):\n    if x:\n        raise ConfigError('bad')\n"
            "    raise ConfigError\n"
        )
        assert config_error_raises(source) == [("f", 3), ("f", 4)]

    def test_other_errors_and_module_level_raises(self):
        source = "raise ConfigError('top')\ndef g():\n    raise ValueError('x')\n"
        assert config_error_raises(source) == [(None, 1)]

    def test_nested_functions_report_the_innermost(self):
        source = "def outer():\n    def inner():\n        raise ConfigError('x')\n"
        assert config_error_raises(source) == [("inner", 3)]

    def test_allowed_places_pass_and_others_fail(self):
        source = "def dump_scatter(net):\n    raise ConfigError(net)\n"
        assert misplaced("lab", source) == []
        assert misplaced("config", source) == []
        assert misplaced("data", source) == ["data.dump_scatter (line 2)"]
        assert misplaced("lab", source.replace("dump_scatter", "run")) == ["lab.run (line 2)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_config_error_only_raised_by_the_config_and_dump_scatter(path):
    assert misplaced(path.stem, path.read_text(encoding="utf-8")) == []
