"""Run files are written in one place: `lab._write`, in the writer process.

An AST scan: every `open(...)`, `x.open(...)`, `x.write_text(...)` and
`x.write_bytes(...)` call in the package is reported with its module and
enclosing function. Only `lab._write` may make one: it writes each run
file through a tmp file and a rename, and the epoch writer is its only
caller. Other modules format a file's bytes and return them; reads use
`read_text`.
The writer's pipe ends are file descriptors, wrapped with `os.fdopen`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dstlab").glob("*.py"))

OPENERS = {"open", "write_text", "write_bytes"}

# (module, enclosing function) pairs allowed to open a file.
ALLOWED = {("lab", "_write")}


def file_opens(source: str) -> list[tuple[str | None, int]]:
    """`(enclosing function or None, line)` for every opening call."""
    found: list[tuple[str | None, int]] = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and func.attr in OPENERS
                ):
                    found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def misplaced(module: str, source: str) -> list[str]:
    """`module.function (line n)` for every opening call outside `ALLOWED`."""
    return [
        f"{module}.{function or '<module>'} (line {line})"
        for function, line in file_opens(source)
        if (module, function) not in ALLOWED
    ]


class TestScanner:
    def test_builtin_open_and_path_methods_count(self):
        source = (
            "def f(path):\n    with open(path, 'w') as fh:\n        fh.write('x')\n"
            "    path.open('w')\n    path.write_text('x')\n    path.write_bytes(b'x')\n"
        )
        assert file_opens(source) == [("f", 2), ("f", 4), ("f", 5), ("f", 6)]

    def test_reads_and_fd_wrappers_do_not_count(self):
        source = (
            "def g(path, fd):\n    path.read_text()\n    path.read_bytes()\n"
            "    os.fdopen(fd, 'wb')\n    fh.write('x')\nopen_path = 1\n"
        )
        assert file_opens(source) == []

    def test_module_level_and_nested_functions(self):
        source = "open('x', 'w')\ndef outer():\n    def inner(p):\n        p.open('w')\n"
        assert file_opens(source) == [(None, 1), ("inner", 4)]

    def test_allowed_place_passes_and_others_fail(self):
        source = "def _write(path, text):\n    path.open('w')\n"
        assert misplaced("lab", source) == []
        assert misplaced("data", source) == ["data._write (line 2)"]
        assert misplaced("lab", source.replace("_write", "run")) == ["lab.run (line 2)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_files_are_opened_only_by_lab_write(path):
    assert misplaced(path.stem, path.read_text(encoding="utf-8")) == []
