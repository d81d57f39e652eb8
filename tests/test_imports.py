"""Every module of the package, bar the package's own __init__, uses each
name it imports."""
import ast
import os

import pytest

import tropchow

PACKAGE_DIR = os.path.dirname(os.path.abspath(tropchow.__file__))
MODULES = sorted(name for name in os.listdir(PACKAGE_DIR)
                 if name.endswith(".py") and name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
        assert _unused_imports(fh.read()) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b, c as d\n"
              "def f(x: b) -> None:\n    return os.sep\n")
    assert _unused_imports(source) == [(3, "d")]
