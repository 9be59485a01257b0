"""Every name a klpriv module or a test module imports is referenced in that module."""

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
