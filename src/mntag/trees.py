"""Constituency parse trees and Penn-Treebank-style S-expression I/O.

Trees are immutable values.  ``ParseTree`` is a slotted class that
refuses every attribute write after construction, so building a node
costs one call and its checks.  Since no node can change, trees may
share nodes: ``flatten``, ``rulegen.preprocess``, the structure
tagger's marker fold, the matcher's ``augment`` and graft build each
node through ``rebuilt``, which returns the input node wherever nothing
changed, so their output shares every unchanged subtree with their
input.  A leaf holds a surface token; internal nodes hold ordered
children.  Two leaf shapes occur in practice:

* preterminals like ``(DT A)``, where the label is a category and the
  token is the word, and
* bare word leaves, written as a lone atom inside a node, where label
  and token coincide.  ``(VB hand over)`` parses to a VB node over the
  bare word leaves ``hand`` and ``over``; marker daughters inserted by
  tree rewriting use the same shape (``insert_leaf``).

``read_ptb`` takes a one-word node such as ``(DT the)`` as one token,
and a bracket with the label after it, ``(NP``, as another.  Within one
call it builds each distinct token once, so equal leaves are one shared
node and equal labels one shared string.  Shared leaves pay where leaf
spellings repeat, as they do in treebanks of natural sentences; a file
in which no spelling repeats reads a little slower for the lookup.
Labels repeat in any treebank.  The text is tokenized a few KiB at a
time, so the reader's peak stays close to the trees it returns.

``flatten`` removes the intermediate VP and NP shells that verb- and
noun-phrase recursion introduces, which puts complements next to their
heads as sisters.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from functools import cached_property
from operator import is_
from typing import Iterator, Sequence

# A node label is non-empty and holds none of these.
LABEL_BAD = re.compile(r"[\s()]")
# A token is a one-word node such as ``(DT the)``, whatever its spacing,
# a ``(`` with the label after it, a bracket, or an atom.
_PTB_TOKEN = re.compile(r"\(\s*[^()\s]+\s+[^()\s]+\s*\)|\(\s*[^()\s]+|\(|\)|[^()\s]+")

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


class ParseTree:
    """A labeled ordered tree; leaves carry tokens, internal nodes do not.

    An immutable value: equality, hashing and ``repr`` go by label,
    children and token, as for a frozen dataclass of those three fields.
    """

    # ``__dict__`` holds only the cached ``atoms``.
    __slots__ = ("label", "children", "token", "__dict__")

    label: str
    children: tuple["ParseTree", ...]
    token: str | None

    def __init__(
        self, label: str, children: tuple["ParseTree", ...] = (), token: str | None = None
    ) -> None:
        if not label or LABEL_BAD.search(label):
            raise ValueError(f"bad node label {label!r}")
        if children:
            if token is not None:
                raise ValueError("internal node cannot carry a token")
            if children.__class__ is not tuple:
                children = tuple(children)
        elif token is None:
            raise ValueError(f"leaf {label!r} must carry a token")
        else:
            children = ()
        _set_label(self, label)
        _set_children(self, children)
        _set_token(self, token)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.children, self.token) == (
            other.label,
            other.children,
            other.token,
        )

    def __hash__(self) -> int:
        return hash((self.label, self.children, self.token))

    def __repr__(self) -> str:
        return (
            f"ParseTree(label={self.label!r}, children={self.children!r},"
            f" token={self.token!r})"
        )

    def __reduce__(self):
        return ParseTree, (self.label, self.children, self.token)

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
        leaves, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack += node.children[::-1]
            else:
                leaves.append(node)
        return leaves

    def tokens(self) -> list[str]:
        """Left-to-right yield of the tree."""
        return [leaf.token for leaf in self.leaves()]  # type: ignore[misc]


# ``__setattr__`` refuses every write, so ``__init__`` writes through the
# slot descriptors.
_set_label = ParseTree.label.__set__  # type: ignore[attr-defined]
_set_children = ParseTree.children.__set__  # type: ignore[attr-defined]
_set_token = ParseTree.token.__set__  # type: ignore[attr-defined]


def insert_leaf(node: ParseTree, index: int, label: str) -> ParseTree:
    """``node`` with a bare leaf ``label`` inserted at daughter ``index``,
    or last when ``index`` is past the end.  A preterminal first becomes
    a node over its word as a bare word leaf, so the new leaf can sit
    beside the word."""
    kids = list(node.children) or [ParseTree(node.token, (), node.token)]  # type: ignore[arg-type]
    kids.insert(index, ParseTree(label, (), label))
    return ParseTree(node.label, tuple(kids), None)


def rebuilt(node: ParseTree, children: Sequence[ParseTree], label: str | None = None) -> ParseTree:
    """``node`` with ``children`` and ``label`` (None keeps its own): the
    node itself when both are its own, each child the very same object;
    else a new node, which keeps a leaf's token."""
    if label is None:
        label = node.label
    kids = node.children
    if label == node.label and len(children) == len(kids) and all(map(is_, children, kids)):
        return node
    return ParseTree(label, tuple(children), node.token)


def iter_nodes(tree: ParseTree) -> Iterator[ParseTree]:
    """All nodes in preorder (document order)."""
    stack = [tree]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


class Span:
    """Token index range, 0-based and end-exclusive; never empty.

    An immutable value, slotted like ``ParseTree``: equality, hashing and
    ``repr`` go by start and end, as for a frozen dataclass of the two.
    """

    __slots__ = ("start", "end")

    start: int
    end: int

    def __init__(self, start: int, end: int) -> None:
        if start < 0 or start >= end:
            raise ValueError(f"bad span ({start}, {end})")
        _set_start(self, start)
        _set_end(self, end)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"Span(start={self.start!r}, end={self.end!r})"

    def __reduce__(self):
        return Span, (self.start, self.end)

    def covers(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


_set_start = Span.start.__set__  # type: ignore[attr-defined]
_set_end = Span.end.__set__  # type: ignore[attr-defined]


def base_category(label: str) -> str:
    """Label prefix before the first ``-`` suffix segment.

    Labels that are themselves escape forms (``-LRB-``) are returned
    unchanged.
    """
    if label.startswith("-"):
        return label
    return label.split("-", 1)[0]


def has_label_segment(label: str, segment: str) -> bool:
    """Whether ``segment``, one or more whole ``-`` segments, is in ``label``."""
    return f"-{segment}-" in f"-{label}-"


def add_suffix(label: str, suffix: str) -> str:
    """``label`` with ``-suffix`` appended, unless it already has that segment."""
    return label if has_label_segment(label, suffix) else f"{label}-{suffix}"


#: Parent base category -> the base category of the daughters it splices.
#: Each spliced category splices itself, so a flattened daughter holds
#: nothing its parent would splice, and one pass reaches the fixpoint.
_SPLICED = {"VP": "VP", "S": "VP", "PP": "NP", "NP": "NP"}


def flatten(tree: ParseTree) -> ParseTree:
    """Splice out VP-under-VP/S and NP-under-PP/NP nodes, to fixpoint.

    A spliced node's children take its place in the parent, preserving
    order, so the yield never changes and the node count never grows.
    A subtree with nothing to splice is returned as it is, not copied.
    """
    kids = tree.children
    if not kids:
        return tree
    spliced = _SPLICED.get(base_category(tree.label))
    children: list[ParseTree] = []
    for child in kids:
        if child.children:
            child = flatten(child)
            if spliced is not None and base_category(child.label) == spliced:
                children.extend(child.children)
                continue
        children.append(child)
    return rebuilt(tree, children)


def _new_leaf(built: dict[str, ParseTree | str], tok: str) -> ParseTree:
    """The leaf token ``tok`` spells, built and kept in ``built``: a
    one-word node, or a bare atom whose label keeps the escaped spelling."""
    if tok[0] == "(":
        label, atom = tok[1:-1].split()
    else:
        label = atom = tok
    label = built.setdefault("(" + label, label)
    leaf = built[tok] = ParseTree(label, (), unescape_token(atom) if "-" in atom else atom)
    return leaf


def _new_label(built: dict[str, ParseTree | str], tok: str) -> str:
    """The label a ``(LABEL`` token opens a node with, kept in ``built``
    under the token and under ``(`` and the label, so that labels spelled
    alike are one string whatever the spacing."""
    label = tok[1:].lstrip()
    label = built[tok] = built.setdefault("(" + label, label)
    return label


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


#: Characters of text tokenized at a time; a chunk ends just before a
#: ``(``, which only ever starts a token, so no cut splits one.
_CHUNK = 1 << 12


def read_ptb(text: str) -> list[ParseTree]:
    """Parse a sequence of balanced S-expressions into trees.

    Whitespace between tokens is not significant; ``-LRB-``/``-RRB-``
    atoms decode to literal parentheses in tokens.  A node's first item
    is its label, and must be an atom.  Within one call each distinct
    token is built once: leaves spelled alike are one node, and labels
    spelled alike are one string.  The text is tokenized a chunk at a
    time, so the tokens of the whole text are never held at once.
    """
    trees: list[ParseTree] = []
    stack: list[tuple] = []  # the enclosing open nodes' (label, children)
    # The innermost open node's label, and its children (None outside a
    # tree).  The label is None after a bare ``(``, and False once an atom
    # follows a child there: a label read late, refused when the node closes.
    label: str | bool | None = None
    items: list[ParseTree] | None = None
    built: dict[str, ParseTree | str] = {}  # token -> its leaf or label; "(" + label -> label
    pos, size, base = 0, len(text), 0
    while pos < size:
        cut = text.find("(", pos + _CHUNK)
        if cut < 0:
            cut = size
        tokens = _PTB_TOKEN.findall(text, pos, cut)
        for k, tok in enumerate(tokens, base):
            if tok == ")":
                if items is None:
                    raise _fault(text, k, "unbalanced ')'")
                if label.__class__ is not str or not items:
                    message = "missing label" if label is False else "empty node"
                    raise _fault(text, k, message, at_open=True)
                subtree = ParseTree(label, tuple(items), None)
                if stack:
                    label, items = stack.pop()
                    items.append(subtree)
                else:
                    trees.append(subtree)
                    items = None
            elif tok[0] != "(":  # a bare atom
                if items is None:
                    raise _fault(text, k, f"unexpected atom {tok!r} outside a tree")
                if label is None:
                    label = False
                items.append(built.get(tok) or _new_leaf(built, tok))
            elif tok[-1] == ")":  # a one-word node
                leaf = built.get(tok) or _new_leaf(built, tok)
                if items is None:
                    trees.append(leaf)
                else:
                    items.append(leaf)
            else:  # ``(LABEL``, or a bare ``(``
                if items is not None:
                    stack.append((label, items))
                label = (built.get(tok) or _new_label(built, tok)) if len(tok) > 1 else None
                items = []
        base += len(tokens)
        pos = cut
    if items is not None:
        raise _fault(text, None, "unbalanced '('")
    return trees


def _fault(text: str, stop: int | None, message: str, at_open: bool = False) -> PTBParseError:
    """The error at token ``stop`` of ``text``, or at its end for None.

    The offset is the token's, or with ``at_open`` that of the ``(``
    opening the node the token closes; at the end it is the text's
    length, and the line that of the tree that never closes.  It comes
    from scanning the text again, so ``read_ptb`` pays for offsets only
    when it fails.
    """
    opens: list[int] = []  # offsets of the ``(`` still open
    for k, m in enumerate(_PTB_TOKEN.finditer(text)):
        if k == stop:
            offset = opens[-1] if at_open else m.start()
            return PTBParseError(message, offset, _line(text, offset))
        tok = m.group()
        if tok == ")":
            opens.pop()
        elif tok[0] == "(" and tok[-1] != ")":  # ``(`` or ``(LABEL``
            opens.append(m.start())
    return PTBParseError(message, len(text), _line(text, opens[0]))


# Punctuation preterminals keep their classic parenthesized form even
# though label and token coincide.
_PUNCT_LABELS = frozenset([".", ",", ":", "``", "''", "#", "$", "-LRB-", "-RRB-"])


def write_leaf(label: str, token: str, allow_bare: bool) -> str:
    """A leaf's text: its escaped token alone where ``allow_bare`` and the
    label is that token, else ``(label token)``."""
    if "(" in token or ")" in token:
        token = escape_token(token)
    if label == token and allow_bare and label not in _PUNCT_LABELS:
        return token
    return f"({label} {token})"


def write_subtree(tree: ParseTree, allow_bare: bool) -> str:
    """``tree``'s text.  A lone bare atom would read back as a preterminal,
    so a bare word leaf is allowed only beside siblings."""
    kids = tree.children
    if not kids:
        return write_leaf(tree.label, tree.token, allow_bare)  # type: ignore[arg-type]
    ok = len(kids) > 1
    # A leaf daughter goes to ``write_leaf`` straight: one call, not two.
    parts = [write_subtree(c, ok) if c.children else write_leaf(c.label, c.token, ok) for c in kids]
    return f"({tree.label} {' '.join(parts)})"


def write_ptb(tree: ParseTree) -> str:
    """Single-line S-expression; inverse of ``read_ptb`` on values."""
    return write_subtree(tree, False)


def read_ptb_file(path) -> list[ParseTree]:
    with open(path, encoding="utf-8") as fh:
        return read_ptb(fh.read())
