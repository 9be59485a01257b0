"""Every name a klpriv module or a test module imports is referenced in that module,
and every private module-level name of klpriv is referenced somewhere in klpriv."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "klpriv"
# the package's __init__ imports names to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain such as np.linalg.eigh starts with the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private functions, classes and assigned names at the top level of the
    modules in ``sources`` (file name -> source) that no module of ``sources`` reads."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}:{line} {name}" for module, line, name in defined if name not in used]


def test_the_scan_finds_an_unreferenced_private_name():
    sources = {
        "a.py": ("from . import b\n_LIMIT = 1\n_unread = 2\n\ndef _helper():\n"
                 "    return _LIMIT + b._by_attribute()\n\nclass _Orphan:\n    pass\n\n"
                 "def public():\n    return _helper(), b._imported\n"),
        "b.py": ("__all__ = []\n\ndef _by_attribute():\n    return 0\n\n"
                 "def _dead():\n    return _by_attribute()\n\n_imported, _spare = 1, 2\n"),
    }
    assert _unreferenced_private_names(sources) == [
        "a.py:3 _unread", "a.py:8 _Orphan", "b.py:6 _dead", "b.py:9 _spare"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_names(sources) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import inf, pi\n\ndef f(x: np.ndarray):\n    return pi\n")
    assert _unused_imports(source) == ["os (line 2)", "inf (line 4)"]


def test_modules_found():
    assert "estimator.py" in MODULES and len(MODULES) >= 7
    assert {"conftest.py", "test_imports.py"} <= set(TEST_MODULES) and len(TEST_MODULES) >= 10


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert _unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_no_unused_import_in_tests(module):
    assert _unused_imports((TESTS / module).read_text()) == []
