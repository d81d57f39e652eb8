"""Every module of the package, bar the package's own __init__, and every
test module uses each name it imports, every top-level function and class
of the package is referenced outside its own definition, no module divides
with /, and no function assigns a local it never reads."""
import ast
import os
from collections import Counter

import pytest

import tropchow

PACKAGE_DIR = os.path.dirname(os.path.abspath(tropchow.__file__))
MODULES = sorted(name for name in os.listdir(PACKAGE_DIR)
                 if name.endswith(".py") and name != "__init__.py")
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
TEST_MODULES = sorted(name for name in os.listdir(TESTS_DIR)
                      if name.endswith(".py"))
BENCH_DIR = os.path.join(os.path.dirname(TESTS_DIR), "bench")


def _read(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        return fh.read()


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
    assert _unused_imports(_read(PACKAGE_DIR, module)) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_test_module_uses_every_import(module):
    assert _unused_imports(_read(TESTS_DIR, module)) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b, c as d\n"
              "def f(x: b) -> None:\n    return os.sep\n")
    assert _unused_imports(source) == [(3, "d")]


def _references(node, strings=False):
    """Names, attribute names and imported names in an ast node; with
    strings, string constants too (the bench wraps functions by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif (strings and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str)):
            out.add(sub.value)
    return out


def _unreferenced(modules, bench):
    """(module, name) of every top-level function or class of the package
    sources (module -> source) that no top-level statement of the package
    references, bar its own definition, and no bench source (a list)
    references as a name or a string."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    refs = {id(node): _references(node)
            for tree in trees.values() for node in tree.body}
    # how many top-level statements of the package reference each name
    count = Counter(name for names in refs.values() for name in names)
    used = set().union(*(_references(ast.parse(source), strings=True)
                         for source in bench))
    return sorted(
        (module, node.name) for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
        and count[node.name] == (node.name in refs[id(node)]))


def test_every_definition_is_referenced():
    modules = {name: _read(PACKAGE_DIR, name)
               for name in os.listdir(PACKAGE_DIR) if name.endswith(".py")}
    bench = [_read(BENCH_DIR, name)
             for name in os.listdir(BENCH_DIR) if name.endswith(".py")]
    assert _unreferenced(modules, bench) == []


def test_unreferenced_definition_is_found():
    modules = {"a.py": ("def used():\n    return 1\n"
                        "def recursive(n):\n    return recursive(n - 1)\n"
                        "class Named:\n    pass\n"
                        "def wrapped():\n    pass\n"
                        "def unused():\n    return used()\n"),
               "b.py": "from a import used\n"}
    bench = ["x = a.Named\n", "Target(a, 'wrapped')\n"]
    assert _unreferenced(modules, bench) == [("a.py", "recursive"),
                                             ("a.py", "unused")]


def _true_divisions(source: str):
    """Line of every / and /= in a source: on int operands either one
    turns an exact value into a float."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div))


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_has_no_true_division(module):
    assert _true_divisions(_read(PACKAGE_DIR, module)) == []


def test_true_division_is_found():
    source = ("x = 7 // 2\ny = x / 2\n"
              "def f(z):\n    z /= 3\n    z //= 2\n    return '/'\n")
    assert _true_divisions(source) == [2, 4]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """The nodes of a function's body outside the scopes nested in it."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _dead_locals(source: str):
    """(line, name) of every plain `name = ...` in a function that the
    function, nested scopes included, never reads. Tuple-unpacking
    targets, names starting with _ and global or nonlocal names are
    exempt."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        read |= {name for node in _own_nodes(func)
                 if isinstance(node, (ast.Global, ast.Nonlocal))
                 for name in node.names}
        out += [(node.lineno, target.id) for node in _own_nodes(func)
                if isinstance(node, ast.Assign) for target in node.targets
                if isinstance(target, ast.Name)
                and not target.id.startswith("_") and target.id not in read]
    return sorted(out)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_has_no_dead_locals(module):
    assert _dead_locals(_read(PACKAGE_DIR, module)) == []


def test_dead_local_is_found():
    source = ("top = 1\n"
              "def f(pair):\n"
              "    global top\n"
              "    top = 2\n"
              "    a, b = pair\n"
              "    _skip = 3\n"
              "    dead = 4\n"
              "    kept = seen = 5\n"
              "    def g():\n"
              "        inner = kept\n"
              "        return seen\n"
              "    return g\n"
              "class C:\n"
              "    attr = 6\n"
              "    def m(self):\n"
              "        self.x = 7\n"
              "        lost = 8\n")
    assert _dead_locals(source) == [(7, "dead"), (10, "inner"), (17, "lost")]
