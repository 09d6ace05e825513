"""Every name a module of ``mntag`` imports is used there, every
private module-level name is read by some module, the modules below
the taggers import only the layers under them, and each ``mn`` command
loads only the modules it runs.

No linter runs on this code, so a name left imported, or a private
helper left defined, after the code that used it is deleted would stay
unnoticed; these checks, on the standard library's ``ast`` alone, catch
it.  The checks of what loads run in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mntag
from conftest import DATA

SRC = Path(__file__).resolve().parent.parent / "src" / "mntag"

#: The modules ``mn graft`` and ``mn flatten`` never run.
TAGGING_STACK = {"mntag.lexicon", "mntag.matcher", "mntag.rulegen", "mntag.taggers"}


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports but never reads, in import order.

    A name listed in a literal ``__all__`` counts as read (it is
    re-exported); a computed ``__all__`` re-exports no imported name.
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
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
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
    # A computed ``__all__`` names nothing the check could read.
    assert unused_imports("import os\n_NAMES = ['os']\n__all__ = list(_NAMES)\n") == ["os"]


def defined_names(tree: ast.Module) -> list[str]:
    """The names ``tree`` defines at module level (a function, a class or
    an assignment target), in definition order."""
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


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
        defined += [
            f"{module}.{n}" for n in defined_names(tree) if n[:1] == "_" and n[:2] != "__"
        ]
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


def run_on_import(tree: ast.Module):
    """The nodes of ``tree`` that run when the module is imported: all
    but those inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def package_imports(source: str, on_import: bool = False) -> set[str]:
    """The ``mntag`` modules ``source`` imports, relatively or by the
    package's name; with ``on_import``, only those imported when the
    module itself is, not inside a function."""
    tree = ast.parse(source)
    found: set[str] = set()
    for node in run_on_import(tree) if on_import else ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {
                a.name.split(".")[1] for a in node.names if a.name.startswith("mntag.")
            }
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "mntag" and not module.startswith("mntag."):
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.partition(".")[0])
            else:
                found |= {a.name for a in node.names}
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [("grafting", {"standoff", "tags", "trees"}), ("standoff", {"trees"})],
)
def test_module_imports_only_the_layers_under_it(module, allowed):
    # Graft reads standoff records onto trees; it needs none of the
    # tagging stack (taggers, matcher, rulegen, lexicon).
    assert package_imports((SRC / f"{module}.py").read_text("utf-8")) <= allowed


def test_package_import_check_sees_each_kind_of_import():
    source = (
        "import os\n"
        "import mntag.lexicon\n"
        "from mntag import matcher\n"
        "from mntag.rulegen import preprocess\n"
        "from . import taggers, tags\n"
        "from .trees import Span\n"
        "from typing import Sequence\n"
    )
    assert package_imports(source) == {"lexicon", "matcher", "rulegen", "taggers", "tags", "trees"}
    nested = (
        "try:\n"
        "    from . import trees\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    from .tags import Role\n"
        "def f():\n"
        "    from . import taggers\n"
        "    def g():\n"
        "        import mntag.matcher\n"
    )
    assert package_imports(nested) == {"matcher", "taggers", "tags", "trees"}
    assert package_imports(nested, on_import=True) == {"tags", "trees"}


@pytest.mark.parametrize(
    "module, allowed",
    [("__init__", set()), ("cli", {"grafting", "standoff", "tags", "trees"})],
)
def test_module_imports_on_load_only_what_every_command_runs(module, allowed):
    # ``import mntag`` loads no module: a public name loads its own on
    # first use.  ``cli`` loads the graft layer; each handler imports the
    # tagging stack it runs.
    source = (SRC / f"{module}.py").read_text("utf-8")
    assert package_imports(source, on_import=True) <= allowed


def run_fresh(code: str, *args) -> str:
    """The standard output of ``code`` run with ``args`` in a fresh
    interpreter that imports ``mntag`` from where this one does."""
    root = str(Path(mntag.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


_COMMAND = """
import sys
from mntag.cli import main
assert main(sys.argv[1:]) == 0
print(*sorted(m for m in sys.modules if m.startswith("mntag.")))
"""


@pytest.mark.parametrize("command", ["graft", "flatten", "tag"])
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    out = tmp_path / "out"
    argv = {
        "graft": [
            "graft", "--trees", DATA / "corpus_trees.ptb", "--standoff",
            DATA / "golden_standoff.tsv", "--out", out, "--report", tmp_path / "report",
        ],
        "flatten": ["flatten", "--in", DATA / "corpus_trees.ptb", "--out", out],
        # The control: a command that runs the tagging stack loads it.
        "tag": [
            "tag", "--mode", "structure", "--lexicon", SRC / "data" / "seed_lexicon.txt",
            "--in", DATA / "corpus_trees.ptb", "--out", out,
        ],
    }[command]
    loaded = set(run_fresh(_COMMAND, *argv).split())
    assert "mntag.cli" in loaded and out.exists()
    if command == "tag":
        assert TAGGING_STACK <= loaded
    else:
        assert not TAGGING_STACK & loaded


_PUBLIC_API = """
import importlib, json, sys
import mntag
loaded = sorted(m for m in sys.modules if m.startswith("mntag."))
mntag.GraftConfig
graft_loads = sorted(m for m in sys.modules if m.startswith("mntag."))
homes = json.loads(sys.argv[1])
star = {}
exec("from mntag import *", star)
try:
    mntag.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "loaded": loaded,
    "graft_loads": graft_loads,
    "star": sorted(name for name in star if name != "__builtins__"),
    "not_home": [
        name for name, home in homes.items()
        if star[name] is not getattr(importlib.import_module("mntag." + home), name)
    ],
    "missing": missing,
}))
"""


def test_public_names_load_their_module_on_first_use():
    names = mntag.__all__
    assert len(names) == len(set(names)) == 43
    definers: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for name in defined_names(ast.parse(path.read_text("utf-8"))):
            definers.setdefault(name, []).append(path.stem)
    assert all(len(definers.get(name, [])) == 1 for name in names)
    homes = {name: definers[name][0] for name in names}
    result = json.loads(run_fresh(_PUBLIC_API, json.dumps(homes)))
    assert result["loaded"] == []
    assert result["graft_loads"] == ["mntag.grafting", "mntag.standoff", "mntag.tags", "mntag.trees"]
    assert result["star"] == sorted(names)
    assert result["not_home"] == []
    assert "no_such_name" in result["missing"]
