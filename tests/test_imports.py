"""Every name a module imports is used in that module.

Parses the package's modules and the test modules with ``ast``; a name
bound by ``import`` or ``from ... import`` must appear as a name somewhere
else in the same file. ``__future__`` imports and the package
``__init__.py`` (whose imports are re-exports) are exempt.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(
    os.path.join(d, f)
    for d in (os.path.join(ROOT, "src", "hexreg"), os.path.join(ROOT, "tests"))
    for f in os.listdir(d)
    if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_finds_an_unused_import():
    src = "import os\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert unused_imports(src) == ["os (line 1)", "e (line 2)"]


def test_future_import_is_exempt():
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert not unused, f"{os.path.relpath(path, ROOT)} imports unused names: {unused}"
