"""Every name a module of ``mntag`` imports is used there, and every
private module-level name is read by some module.

No linter runs on this code, so a name left imported, or a private
helper left defined, after the code that used it is deleted would stay
unnoticed; these checks, on the standard library's ``ast`` alone, catch
it.
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name (one leading
    underscore: a function, a class or an assignment target) that no
    module of ``sources`` (module name -> source) reads, in definition
    order.

    A read is a loaded name, an attribute or a ``from`` import of that
    name in any module; which module a read refers to is not resolved.
    """
    defined: list[str] = []
    read: set[str] = set()
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
            defined += [f"{module}.{n}" for n in names if n[:1] == "_" and n[:2] != "__"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return [name for name in defined if name.partition(".")[2] not in read]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text("utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_private_name_check_sees_each_kind_of_definition():
    sources = {
        "a": (
            "_read = 1\n"
            "_unread = 2\n"
            "_X, _Y = 3, 4\n"
            "_annotated: int = 5\n"
            "__dunder__ = 6\n"
            "public = 7\n"
            "def _f():\n"
            "    return _read + _Y\n"
            "class _C:\n"
            "    _inner = 8\n"
            "def _imported():\n"
            "    _local = 9\n"
            "async def _coroutine():\n"
            "    pass\n"
        ),
        "b": "from a import _imported\nimport a\nprint(a._C)\n",
    }
    assert unread_private_names(sources) == [
        "a._unread", "a._X", "a._annotated", "a._f", "a._coroutine",
    ]
