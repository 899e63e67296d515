"""Every name a module imports is used in that module, and every function
and class the package defines is used by the package.

Parses the package's modules and the test modules with ``ast``; a name
bound by ``import`` or ``from ... import`` must appear as a name somewhere
else in the same file. ``__future__`` imports and the package
``__init__.py`` (whose imports are re-exports) are exempt. A top-level
function or class of a package module must be referenced, as a name or an
attribute, somewhere in the package, so no code ships that only the tests
reach. Likewise every field of a package dataclass must be read as an
attribute somewhere in the package; a field that shares its name with an
attribute read elsewhere passes unseen. And every method of a package
class, dunders aside, must be referenced as an attribute somewhere in the
package. The same blind spot holds: a method named like an attribute used
elsewhere, such as numpy's ``sum`` or ``copy``, passes unseen. Only the
trainer imports ``autodiff``: every loss is a tape-free kernel. And
``autodiff`` imports no module of the package, so the tape cannot raise
the package's errors: faults are named by the trainer. ``losses`` has no
``raise`` statement and imports nothing from ``errors``: a loss kernel is
only a formula, and the config sections and the trainer own its checks.
Every leaf exception class of ``errors`` (one no other class there derives
from) is named by some ``raise`` statement in the package, so a class whose
last raise goes does not stay behind.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hexreg")
SOURCES = sorted(
    os.path.join(d, f)
    for d in (PACKAGE, os.path.join(ROOT, "tests"))
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


def unreferenced_definitions(sources: dict) -> list[str]:
    """``file:name`` of each top-level function or class, outside
    ``__init__.py``, that no module in ``sources`` (file name -> text)
    references."""
    trees = {f: ast.parse(text) for f, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{f}:{node.name}"
            for f, tree in sorted(trees.items()) if f != "__init__.py"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in used]


def test_finds_an_unreferenced_definition():
    sources = {"a.py": "def f():\n    return g()\ndef g(): pass\nclass C: pass\n",
               "b.py": "import a\na.C\ndef h(): pass\n",
               "__init__.py": "def i(): pass\n"}
    assert unreferenced_definitions(sources) == ["a.py:f", "b.py:h"]


def package_sources() -> dict:
    sources = {}
    for f in os.listdir(PACKAGE):
        if f.endswith(".py"):
            with open(os.path.join(PACKAGE, f), encoding="utf-8") as fh:
                sources[f] = fh.read()
    return sources


def test_package_defines_nothing_only_tests_reach():
    unused = unreferenced_definitions(package_sources())
    assert not unused, f"defined in src/hexreg but used nowhere there: {unused}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               for d in node.decorator_list)


def unread_fields(sources: dict) -> list[str]:
    """``Class.field`` of each dataclass field in ``sources`` (file name ->
    text) that no module reads as an attribute."""
    trees = [ast.parse(text) for text in sources.values()]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{cls.name}.{stmt.target.id}"
                  for tree in trees for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                  for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in read)


def test_finds_an_unread_field():
    sources = {"a.py": "@dataclass\nclass P:\n    x: int\n    y: int = 0\n"
                       "class Q:\n    z: int\n",
               "b.py": "@dataclass(frozen=True)\nclass R:\n    w: int\n"
                       "def f(p, r):\n    p.y = 1\n    return p.x + r.w\n"}
    assert unread_fields(sources) == ["P.y"]


def test_every_dataclass_field_is_read():
    unread = unread_fields(package_sources())
    assert not unread, f"dataclass fields in src/hexreg that nothing reads: {unread}"


def unreferenced_methods(sources: dict) -> list[str]:
    """``Class.method`` of each non-dunder method of a class in ``sources``
    (file name -> text) that no module references as an attribute."""
    trees = [ast.parse(text) for text in sources.values()]
    used = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return sorted(f"{cls.name}.{fn.name}"
                  for tree in trees for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)
                  and not (fn.name.startswith("__") and fn.name.endswith("__"))
                  and fn.name not in used)


def test_finds_an_unreferenced_method():
    sources = {"a.py": "class A:\n    def __init__(self):\n        self.f()\n"
                       "    def f(self): pass\n    def g(self): pass\n"
                       "    @property\n    def h(self): pass\n",
               "b.py": "def use(a):\n    return a.h\n"
                       "class B:\n    def g(self): pass\n    def j(self): pass\n"}
    assert unreferenced_methods(sources) == ["A.g", "B.g", "B.j"]


def test_every_method_is_referenced():
    unused = unreferenced_methods(package_sources())
    assert not unused, f"methods in src/hexreg that nothing there calls: {unused}"


def imported_modules(source: str) -> set:
    """The dotted names a source imports, without a leading ``hexreg.``:
    ``from .a import b`` gives a and a.b, ``from . import a`` gives a."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return {name.removeprefix("hexreg.") for name in names if name}


def test_finds_each_form_of_import():
    src = ("from . import autodiff\nfrom .errors import NonFinite\n"
           "import hexreg.linalg\nfrom hexreg import rng\n")
    assert imported_modules(src) == {"autodiff", "errors", "errors.NonFinite",
                                     "linalg", "hexreg", "rng"}


def test_only_the_trainer_imports_autodiff():
    importers = sorted(f for f, text in package_sources().items()
                       if any(name.split(".")[0] == "autodiff"
                              for name in imported_modules(text)))
    assert importers == ["trainer.py"]


def package_imports(source: str) -> list:
    """The import statements of source that name a module of the package:
    relative ones, and those of ``hexreg`` or a submodule of it."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "hexreg")
            or isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "hexreg" for alias in node.names)]


def test_finds_each_package_import():
    src = ("import numpy as np\nfrom . import errors\nfrom .linalg import x\n"
           "import hexreg.rng\nfrom hexreg import data\nfrom dataclasses import field\n")
    assert package_imports(src) == ["from . import errors", "from .linalg import x",
                                    "import hexreg.rng", "from hexreg import data"]


def test_the_tape_imports_no_package_module():
    assert package_imports(package_sources()["autodiff.py"]) == []


def raise_lines(source: str) -> list:
    """The line of each ``raise`` statement in source, in order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise))


def error_imports(source: str) -> list:
    """What source imports from the package's ``errors`` module, sorted."""
    return sorted(name for name in imported_modules(source)
                  if name.split(".")[0] == "errors")


def test_finds_each_raise_and_each_errors_import():
    src = ("from .errors import NonFinite\nfrom hexreg import errors\n"
           "def f(x):\n    try:\n        return 1 / x\n    except ZeroDivisionError:\n"
           "        raise\n    raise NonFinite(x)\n")
    assert raise_lines(src) == [7, 8]
    assert error_imports(src) == ["errors", "errors.NonFinite"]
    assert error_imports("import hexreg.errors as e\nfrom . import rng\n") == ["errors"]


def test_the_loss_kernels_raise_nothing_and_import_no_error():
    source = package_sources()["losses.py"]
    assert raise_lines(source) == []
    assert error_imports(source) == []


def unraised_errors(sources: dict) -> list[str]:
    """Each leaf exception class of ``errors.py`` in ``sources`` (file name
    -> text), one that no class there derives from, that no ``raise``
    statement in ``sources`` names, as a name or an attribute."""
    classes = [node for node in ast.parse(sources["errors.py"]).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for cls in classes for base in cls.bases if isinstance(base, ast.Name)}
    raised = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(n.id if isinstance(n, ast.Name) else n.attr
                              for n in ast.walk(node.exc)
                              if isinstance(n, (ast.Name, ast.Attribute)))
    return sorted(cls.name for cls in classes if cls.name not in bases | raised)


def test_finds_an_unraised_error():
    sources = {"errors.py": "class E(Exception): pass\nclass A(E): pass\n"
                            "class B(E): pass\nclass C(A): pass\nclass D(E): pass\n",
               "m.py": "from . import errors\nfrom .errors import B, D\n"
                       "def f(x):\n    if x:\n        raise B(x)\n"
                       "    try:\n        raise errors.C\n    except D:\n        return D()\n"}
    assert unraised_errors(sources) == ["D"]


def test_every_leaf_error_is_raised():
    unraised = unraised_errors(package_sources())
    assert not unraised, f"error classes in src/hexreg/errors.py that nothing raises: {unraised}"
