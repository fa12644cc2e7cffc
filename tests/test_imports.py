"""No module of the package or of the tests imports a name it never uses.

An AST scan: a name an import binds counts as used when the module reads
it anywhere (alone, or as the root of an attribute chain) or lists it in
`__all__`. `from __future__` imports are compiler directives, not names.

And `import dstlab` loads no process-pool module, which would slow set-up.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted([*(ROOT / "src" / "dstlab").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """`name (line n)` for every imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


class TestScanner:
    def test_reads_count_and_attribute_roots_count(self):
        source = "import os.path\nfrom json import dumps, loads\nos.path.join(dumps(1))\n"
        assert unused_imports(source) == ["loads (line 2)"]

    def test_aliases_are_the_bound_names(self):
        source = "import numpy as np\nfrom hypothesis import strategies as st\nst.integers()\n"
        assert unused_imports(source) == ["np (line 1)"]

    def test_all_and_future_count_as_used(self):
        source = (
            "from __future__ import annotations\nfrom .lab import run, compare\n"
            '__all__ = ["run"]\n'
        )
        assert unused_imports(source) == ["compare (line 2)"]

    def test_reads_inside_functions_and_annotations_count(self):
        source = (
            "from pathlib import Path\nimport csv\n"
            "def f(p: Path) -> None:\n    csv.writer(p)\n"
        )
        assert unused_imports(source) == []


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_import_loads_no_process_pool_modules():
    # The epoch writer forks over os.pipe; `multiprocessing.connection`
    # adds about 7 ms to `import dstlab`, `concurrent.futures` about 12 ms.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import dstlab; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
