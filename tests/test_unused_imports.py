"""No module of the package imports a name that it never reads, and no
module-level private name goes unread.

The repository runs no linter, so this walks each module's syntax tree with
the standard library alone. An import marked ``# noqa: F401`` on its own line
is kept on purpose, and a name listed in ``__all__`` is a re-export. A private
name (a ``_x`` def, class or assignment at module level) must be read in
``src/`` or ``benchmarks/``: loaded, taken as an attribute or imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "auctionmetrics"


def unused_imports(source):
    """(line, name) of each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    # "import a.b" binds the name "a"
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp  # noqa: F401\n"
              "import numpy as np\n"
              "from math import (\n"
              "    inf,\n"
              "    pi,  # noqa: F401\n"
              "    tau,\n"
              ")\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "x: np.ndarray = inf\n")
    assert unused_imports(source) == [(2, "os"), (8, "tau")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_names(source):
    """(line, name) of each private def, class or assignment at module level."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.lineno, t.id) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def names_read(source):
    """Every name ``source`` loads, takes as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unread_private_names(modules, readers):
    """(module, line, name) of each private name of ``modules`` (name -> source)
    that none of the ``readers`` sources reads."""
    read = set().union(*map(names_read, readers))
    return sorted((module, line, name) for module, source in modules.items()
                  for line, name in private_names(source) if name not in read)


def test_the_check_finds_an_unread_private_name():
    planted = ("import numpy as np\n"
               "_CAP = 4\n"
               "_unused_cap: int = 8\n"
               "_left, (_right, kept) = 1, (2, 3)\n"
               "def _helper(x):\n"
               "    return np.sqrt(x) + _CAP\n"
               "def _orphan():\n"
               "    return _left\n"
               "class _Box:\n"
               "    pass\n"
               "def public():\n"
               "    return _helper(1)\n")
    reader = "from planted import _Box\nimport planted\nplanted._right\n"
    assert unread_private_names({"planted": planted}, [planted, reader]) == [
        ("planted", 3, "_unused_cap"), ("planted", 7, "_orphan")]


def test_every_private_name_of_the_package_is_read():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    readers = [*modules.values(),
               *(path.read_text(encoding="utf-8")
                 for path in sorted((ROOT / "benchmarks").glob("*.py")))]
    assert unread_private_names(modules, readers) == []
