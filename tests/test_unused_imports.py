"""No module of the package imports a name that it never reads.

The repository runs no linter, so this walks each module's syntax tree with
the standard library alone. An import marked ``# noqa: F401`` on its own line
is kept on purpose, and a name listed in ``__all__`` is a re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "auctionmetrics"


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
