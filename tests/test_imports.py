"""Every name a klpriv module or a test module imports is referenced in that module,
every private module-level name of klpriv is referenced somewhere in klpriv, and
the public functions and classes that nothing in klpriv reads are the ones the
README lists."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "klpriv"
# the package's __init__ imports names to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))
README = TESTS.parent / "README.md"
# the number words a README count may use, at their values
_COUNTS = ("No", "One", "Two", "Three", "Four", "Five", "Six", "Seven", "Eight", "Nine", "Ten")


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


def _read_names(trees) -> set[str]:
    """Every name that one of the module ``trees`` loads or reads as an attribute."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private functions, classes and assigned names at the top level of the
    modules in ``sources`` (file name -> source) that no module of ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []
    for module, tree in trees.items():
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
    used = _read_names(trees.values())
    return [f"{module}:{line} {name}" for module, line, name in defined if name not in used]


def _unread_public_names(sources: dict[str, str]) -> list[str]:
    """Sorted public functions and classes at the top level of the modules in
    ``sources`` that no module of ``sources`` reads; a re-export is no read."""
    trees = [ast.parse(source) for source in sources.values()]
    used = _read_names(trees)
    return sorted(node.name for tree in trees for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in used)


def _readme_uncalled_names(readme: str) -> list[str]:
    """Sorted names of the README's list of public names with no caller in the
    package; the list must be as long as its lead sentence says."""
    lead, rest = readme.split(" public names have no caller inside the package.", 1)
    count = lead.rsplit("\n", 1)[-1]
    names = re.findall(r"^- `(\w+)`", rest.split("\n\n", 2)[1], flags=re.M)
    assert len(names) == _COUNTS.index(count), f"{count} names announced, {len(names)} listed"
    return sorted(names)



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


def test_the_scan_finds_an_unread_public_name():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("from . import b\nfrom .b import called\nLIMIT = 1\n\n"
                 "def exported():\n    return called() + b.by_attribute(Hint)\n\n"
                 "class Hint:\n    pass\n\nclass Orphan:\n    pass\n\n"
                 "def _private():\n    pass\n"),
        "b.py": ("def called():\n    return 0\n\ndef by_attribute(x: 'Hint'):\n"
                 "    return 1\n\ndef unread():\n    return called()\n"),
    }
    assert _unread_public_names(sources) == ["Orphan", "exported", "unread"]
    readme = ("Intro.\n\nTwo public names have no caller inside the package. They\n"
              "stay:\n\n- `unread` is kept.\n- `Orphan` too,\n  on purpose.\n\n"
              "- `not_listed` follows the list.\n")
    assert _readme_uncalled_names(readme) == ["Orphan", "unread"]
    with pytest.raises(AssertionError, match="Three names announced, 2 listed"):
        _readme_uncalled_names(readme.replace("Two", "Three"))


def test_the_readme_lists_every_unread_public_name():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unread_public_names(sources) == _readme_uncalled_names(README.read_text())


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
