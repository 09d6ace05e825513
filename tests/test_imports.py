"""Every name a module of ``mntag`` imports is used there.

No linter runs on this code, so a name left imported after the code
that used it is deleted would stay unnoticed; this check, on the
standard library's ``ast`` alone, catches it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mntag"


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports but never reads, in import order.

    A name listed in ``__all__`` counts as read (it is re-exported), and
    ``from __future__`` imports are not names.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_unused_import_check_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from typing import Iterator, Sequence\n"
        "from . import trees\n"
        "from .tags import Role\n"
        "__all__ = ['Role']\n"
        "def f(x: Sequence) -> None:\n"
        "    return trees.flatten(x)\n"
    )
    assert unused_imports(source) == ["os", "regex", "Iterator"]
