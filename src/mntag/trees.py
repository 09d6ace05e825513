"""Constituency parse trees and Penn-Treebank-style S-expression I/O.

Trees are immutable values.  A leaf holds a surface token; internal
nodes hold ordered children.  Two leaf shapes occur in practice:

* preterminals like ``(DT A)``, where the label is a category and the
  token is the word, and
* bare word leaves, written as a lone atom inside a node, where label
  and token coincide.  ``(VB hand over)`` parses to a VB node over the
  bare word leaves ``hand`` and ``over``; marker daughters inserted by
  tree rewriting use the same shape.

``flatten`` removes the intermediate VP and NP shells that verb- and
noun-phrase recursion introduces, which puts complements next to their
heads as sisters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

# A node label is non-empty and holds none of these.
LABEL_BAD = re.compile(r"[\s()]")
_PTB_TOKEN = re.compile(r"\(|\)|[^()\s]+")

_ESCAPES = (("(", "-LRB-"), (")", "-RRB-"))


class PTBParseError(ValueError):
    """Malformed S-expression input; ``offset`` is the character position
    where reading stopped and ``line`` the 1-based line of the fault."""

    def __init__(self, message: str, offset: int, line: int):
        super().__init__(f"line {line}: {message} at offset {offset}")
        self.offset = offset
        self.line = line


def escape_token(token: str) -> str:
    for raw, esc in _ESCAPES:
        token = token.replace(raw, esc)
    return token


def unescape_token(atom: str) -> str:
    for raw, esc in _ESCAPES:
        atom = atom.replace(esc, raw)
    return atom


@dataclass(frozen=True)
class ParseTree:
    """A labeled ordered tree; leaves carry tokens, internal nodes do not."""

    label: str
    children: tuple["ParseTree", ...] = ()
    token: str | None = None

    def __post_init__(self) -> None:
        if not self.label or LABEL_BAD.search(self.label):
            raise ValueError(f"bad node label {self.label!r}")
        if self.children:
            if self.token is not None:
                raise ValueError("internal node cannot carry a token")
            object.__setattr__(self, "children", tuple(self.children))
        elif self.token is None:
            raise ValueError(f"leaf {self.label!r} must carry a token")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @cached_property
    def atoms(self) -> frozenset[str]:
        """Every label and token in the tree; computed once, as the tree
        never changes."""
        atoms: set[str] = set()
        stack = [self]
        while stack:
            n = stack.pop()
            atoms.add(n.label)
            if n.token is not None:
                atoms.add(n.token)
            stack.extend(n.children)
        return frozenset(atoms)

    def leaves(self) -> list["ParseTree"]:
        return [n for n in iter_nodes(self) if n.is_leaf]

    def tokens(self) -> list[str]:
        """Left-to-right yield of the tree."""
        return [leaf.token for leaf in self.leaves()]  # type: ignore[misc]


def leaf(label: str, token: str | None = None) -> ParseTree:
    """Convenience leaf constructor; one argument makes a bare word leaf."""
    return ParseTree(label, (), token if token is not None else label)


def node(label: str, children) -> ParseTree:
    return ParseTree(label, tuple(children), None)


def iter_nodes(tree: ParseTree) -> Iterator[ParseTree]:
    """All nodes in preorder (document order)."""
    stack = [tree]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


@dataclass(frozen=True)
class Span:
    """Token index range, 0-based and end-exclusive; never empty."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"bad span ({self.start}, {self.end})")

    def covers(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


def node_span(tree: ParseTree, target: ParseTree) -> Span:
    """Span of ``target``, located in ``tree`` by object identity; a node
    object that occurs at several places is taken at its first."""
    start = 0
    for n in iter_nodes(tree):
        if n is target:
            return Span(start, start + len(n.leaves()))
        if n.is_leaf:
            start += 1
    raise ValueError("node does not belong to this tree")


def base_category(label: str) -> str:
    """Label prefix before the first ``-`` suffix segment.

    Labels that are themselves escape forms (``-LRB-``) are returned
    unchanged.
    """
    if label.startswith("-"):
        return label
    return label.split("-", 1)[0]


def _splices_out(child: ParseTree, parent_label: str) -> bool:
    if child.is_leaf:
        return False
    child_base = base_category(child.label)
    parent_base = base_category(parent_label)
    if child_base == "VP":
        return parent_base in ("VP", "S")
    if child_base == "NP":
        return parent_base in ("PP", "NP")
    return False


def flatten(tree: ParseTree) -> ParseTree:
    """Splice out VP-under-VP/S and NP-under-PP/NP nodes, to fixpoint.

    A spliced node's children take its place in the parent, preserving
    order, so the yield never changes and the node count never grows.
    """
    if tree.is_leaf:
        return tree
    children = [flatten(c) for c in tree.children]
    changed = True
    while changed:
        changed = False
        for i, child in enumerate(children):
            if _splices_out(child, tree.label):
                children[i : i + 1] = list(child.children)
                changed = True
                break
    return ParseTree(tree.label, tuple(children), None)


def _atom_leaf(atom: str) -> ParseTree:
    # Bare atom as a child: label keeps the escaped spelling.
    return ParseTree(atom, (), unescape_token(atom))


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def read_ptb(text: str) -> list[ParseTree]:
    """Parse a sequence of balanced S-expressions into trees.

    Whitespace between tokens is not significant; ``-LRB-``/``-RRB-``
    atoms decode to literal parentheses in tokens.
    """
    trees: list[ParseTree] = []
    # Each frame: [label or None, mixed list of ParseTree|str, open offset]
    stack: list[list] = []
    for m in _PTB_TOKEN.finditer(text):
        tok, offset = m.group(), m.start()
        if tok == "(":
            stack.append([None, [], offset])
        elif tok == ")":
            if not stack:
                raise PTBParseError("unbalanced ')'", offset, _line(text, offset))
            label, items, open_offset = stack.pop()
            if label is None or not items:
                raise PTBParseError("empty node", open_offset, _line(text, open_offset))
            if len(items) == 1 and isinstance(items[0], str):
                subtree = ParseTree(label, (), unescape_token(items[0]))
            else:
                children = tuple(
                    item if isinstance(item, ParseTree) else _atom_leaf(item) for item in items
                )
                subtree = ParseTree(label, children, None)
            if stack:
                stack[-1][1].append(subtree)
            else:
                trees.append(subtree)
        else:
            if not stack:
                raise PTBParseError(
                    f"unexpected atom {tok!r} outside a tree", offset, _line(text, offset)
                )
            if stack[-1][0] is None:
                stack[-1][0] = tok
            else:
                stack[-1][1].append(tok)
    if stack:
        # The fault is the tree that never closes, so name its line.
        raise PTBParseError("unbalanced '('", len(text), _line(text, stack[0][2]))
    return trees


# Punctuation preterminals keep their classic parenthesized form even
# though label and token coincide.
_PUNCT_LABELS = frozenset([".", ",", ":", "``", "''", "#", "$", "-LRB-", "-RRB-"])


def _write(tree: ParseTree, allow_bare: bool) -> str:
    if tree.is_leaf:
        escaped = escape_token(tree.token)  # type: ignore[arg-type]
        if tree.label == escaped and allow_bare and tree.label not in _PUNCT_LABELS:
            return escaped
        return f"({tree.label} {escaped})"
    # A lone bare atom would read back as a preterminal, so bare word
    # leaves print unparenthesized only beside siblings.
    bare_ok = len(tree.children) > 1
    inner = " ".join(_write(c, bare_ok) for c in tree.children)
    return f"({tree.label} {inner})"


def write_ptb(tree: ParseTree) -> str:
    """Single-line S-expression; inverse of ``read_ptb`` on values."""
    return _write(tree, False)


def read_ptb_file(path) -> list[ParseTree]:
    with open(path, encoding="utf-8") as fh:
        return read_ptb(fh.read())
