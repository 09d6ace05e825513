"""Constituency parse trees and Penn-Treebank-style S-expression I/O.

Trees are immutable values.  ``Value``, the base of ``ParseTree``,
``Span`` and ``standoff.StandoffAnnotation``, spells once how such a
value behaves: it is slotted, refuses every attribute write after
construction, and compares, hashes, prints, copies and pickles by its
fields, as a frozen dataclass of them would.  Building a node costs one
call and its checks.  Since no node can change, trees may share nodes:
``flatten``, ``rulegen.preprocess``, the structure tagger's marker fold
and the matcher's ``augment`` build each node through ``rebuilt``,
which returns the input node wherever nothing changed, and ``build``
keeps each node its lists hold and leave unchanged, so each output
shares every unchanged subtree with its input.  A leaf holds a surface
token; internal nodes hold ordered children.  Two leaf shapes occur in
practice:

* preterminals like ``(DT A)``, where the label is a category and the
  token is the word, and
* bare word leaves, written as a lone atom inside a node, where label
  and token coincide.  ``(VB hand over)`` parses to a VB node over the
  bare word leaves ``hand`` and ``over``; marker daughters inserted by
  tree rewriting use the same shape (``insert_leaf``).

There is one PTB reader, ``read_preorder``, and one PTB writer,
``write_preorder``, both over preorder lists.  The reader yields each
tree as soon as its last ``)`` closes, as a ``Preorder`` record: four flat
lists over the nodes in preorder, which is the order in which the
tokens meet them, with the leaf nodes but no internal node built.
``Preorder.of`` numbers a tree into the same lists, with every node;
the layout has no other maker.  Every tree command of ``mn`` reads
these records one at a time, and ``mn graft`` grafts them as they are.
One builder, ``build``, makes trees of such lists, bottom-up in one
loop with no recursion.  It keeps a node the lists hold only where the
lists leave it unchanged, so it builds the tree the writer writes from
the same lists: ``read_ptb`` builds each record's internal nodes, and
graft renders its one output record either way.  The writer writes
such lists in one loop with no recursion: ``write_ptb`` writes a tree's
``Preorder.of`` lists, and graft its output's, so the only-child rule
for bare leaves and the punctuation exception are each spelled once.
How deep a tree may be is a rule of the text, spelled once in
``MAX_DEPTH``: the reader refuses to read a tree nested deeper, and the
writer to write one, so every tree text ``mn`` writes reads back.
The reader takes a one-word node such as ``(DT the)`` as one token, and
a bracket with the label after it, ``(NP``, as another.  Within one
call it builds each distinct token once, so equal leaves are one shared
node and equal labels one shared string.  Shared leaves pay where leaf spellings repeat, as they do in
treebanks of natural sentences; a file in which no spelling repeats
reads a little slower for the lookup.  Labels repeat in any treebank.
The text is tokenized a few KiB at a time, so the reader's peak stays
close to what its caller keeps.

``flatten`` removes the intermediate VP and NP shells that verb- and
noun-phrase recursion introduces, which puts complements next to their
heads as sisters.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from functools import cached_property
from operator import attrgetter, is_
from typing import Callable, Iterator, Sequence

# A node label is non-empty and holds none of these.
LABEL_BAD = re.compile(r"[\s()]")
# A leaf token is non-empty and holds no whitespace; the writer escapes
# its parentheses.
_TOKEN_BAD = re.compile(r"\s")
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


class Value:
    """An immutable value of the fields its subclass names in ``__slots__``.

    Equality, hashing, ``repr``, copying and pickling go by the fields in
    slot order, as for a frozen dataclass of them; an instance equals only
    an instance of its own class.  Equality and ``repr`` work from a
    stack, not by recursion, so trees nested to any depth compare and
    print.  Hashing and pickling recurse: on a tree ``MAX_DEPTH`` levels
    deep, pickling fails under about 230 frames of caller stack and
    hashing under about 490, of Python's default limit of 1000.
    Every attribute write or delete raises ``FrozenInstanceError``, so a
    subclass's ``__init__`` checks its arguments and writes each field
    through ``_setters``, its slots' setters in field order.  A
    ``__dict__`` slot is not a field; it holds what a ``cached_property``
    keeps.
    """

    __slots__ = ()

    __match_args__: tuple[str, ...]  # the field names, in slot order
    _values: Callable[["Value"], tuple]  # an instance's field values, in order
    _setters: tuple[Callable[["Value", object], None], ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        if len(fields) < 2:  # ``attrgetter`` of one name returns no tuple
            raise TypeError(f"{cls.__qualname__}: a Value has two or more fields")
        cls.__match_args__ = fields
        cls._values = attrgetter(*fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        xs, ys = self._values(self), self._values(other)
        if tuple not in map(type, xs):
            return xs == ys
        # A tuple field, such as a tree's children, may nest values to any
        # depth: they are compared from a stack, not by recursion.
        stack = [(xs, ys)]
        while stack:
            xs, ys = stack.pop()
            if len(xs) != len(ys):
                return False
            for x, y in zip(xs, ys):
                if x is y:
                    continue
                if isinstance(x, Value) and x.__class__ is y.__class__:
                    stack.append((x._values(x), y._values(y)))
                elif x.__class__ is tuple is y.__class__:
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        # Written from a stack, as equality is compared: each entry is text
        # to write, or a value whose ``repr`` is wanted.
        out: list[str] = []
        stack: list[tuple[bool, object]] = [(False, self)]
        while stack:
            is_text, x = stack.pop()
            if is_text:
                out.append(x)
            elif isinstance(x, Value):
                fields = zip(x.__match_args__, x._values(x))
                stack.append((True, ")"))
                for k, (name, v) in reversed(list(enumerate(fields))):
                    stack += [(False, v), (True, f"{', ' if k else ''}{name}=")]
                out.append(f"{x.__class__.__qualname__}(")
            elif x.__class__ is tuple:
                stack.append((True, ",)" if len(x) == 1 else ")"))
                for k in reversed(range(len(x))):
                    stack += [(False, x[k]), (True, ", " if k else "")]
                out.append("(")
            else:
                out.append(repr(x))
        return "".join(out)

    def __reduce__(self):
        return self.__class__, self._values(self)


class ParseTree(Value):
    """A labeled ordered tree; leaves carry tokens, internal nodes do not.

    A ``Value`` of its label, children and token.  A label is non-empty
    and holds no whitespace or parenthesis, and a token is non-empty and
    holds no whitespace, so that ``write_ptb`` writes every tree that is
    no deeper than ``MAX_DEPTH`` as text that reads back, an escape
    spelling in a token as the parenthesis it stands for.
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
        elif not token or _TOKEN_BAD.search(token):
            # Written, it would read back as no leaf or as several.
            raise ValueError(f"bad leaf token {token!r}")
        else:
            children = ()
        set_label, set_children, set_token = self._setters
        set_label(self, label)
        set_children(self, children)
        set_token(self, token)

    def __deepcopy__(self, memo) -> "ParseTree":
        # Immutable all the way down, so a copy would be an equal value;
        # the tree itself is one, at any depth.
        return self

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


class Preorder(Value):
    """One tree as flat lists indexed by node number, the nodes numbered
    in preorder (document order).  A ``Value`` of these lists, which no
    holder changes:

    * ``labels``: each node's label;
    * ``nodes``: each leaf's node; an internal node's entry is None, or
      the node itself in a record made from a tree;
    * ``parent``: the parent's number, -1 at the root;
    * ``after``: the number after the node's subtree, which is its next
      sibling's when it has one; a node is a leaf exactly when that is
      its own number plus one.

    Two makers write these lists, both here: ``read_preorder`` from text,
    and ``Preorder.of`` from a tree.  Unlike other values it does not
    hash, as lists do not: ``hash`` raises ``TypeError`` naming the class.
    """

    __slots__ = ("labels", "nodes", "parent", "after")
    __hash__ = None  # type: ignore[assignment]

    labels: list[str]
    nodes: list[ParseTree | None]
    parent: list[int]
    after: list[int]

    def __init__(self, labels, nodes, parent, after) -> None:
        for setter, value in zip(self._setters, (labels, nodes, parent, after)):
            setter(self, value)

    @classmethod
    def of(cls, tree: ParseTree) -> "Preorder":
        """``tree``'s record, which holds every node of the tree in ``nodes``."""
        lists: tuple[list, ...] = ([], [], [], [])
        _number(tree, -1, *lists)
        return cls(*lists)

    def tree(self) -> ParseTree:
        """The tree, through ``build``; it holds every node the record holds."""
        return build(self.labels, self.nodes, self.after)


def _number(node, up, labels, nodes, parent, after) -> None:
    """Number ``node`` and its subtree in preorder under parent ``up``.

    A module-level function, not a closure: a recursive closure is a
    reference cycle.  Leaf daughters, about half of all nodes, are
    numbered inline to save a call each; a leaf reaches this only as the
    root.
    """
    n = len(nodes)
    labels.append(node.label)
    nodes.append(node)
    parent.append(up)
    after.append(0)
    for child in node.children:
        if child.children:
            _number(child, n, labels, nodes, parent, after)
        else:
            k = len(nodes)
            labels.append(child.label)
            nodes.append(child)
            parent.append(n)
            after.append(k + 1)
    after[n] = len(nodes)


def build(labels, nodes, after) -> ParseTree:
    """The tree of lists indexed by node number, as in ``Preorder``, built
    bottom-up in one loop.  ``nodes[n]`` is kept when it is labeled
    ``labels[n]`` and nothing under it was built; else node ``n`` is new:
    a leaf with the held leaf's token, or a node labeled ``labels[n]``
    over its children, found along ``after``.  So the tree is the one the
    lists spell, as ``write_preorder`` writes it, and it shares every
    subtree they leave unchanged."""
    built = nodes.copy()
    low = len(built)  # the least number built: a subtree that ends at or before it is unchanged
    for n in range(len(built) - 1, -1, -1):
        node, stop = built[n], after[n]
        if node is not None and stop <= low and node.label == labels[n]:
            continue
        kids, k = [], n + 1
        while k < stop:
            kids.append(built[k])
            k = after[k]
        # Only a leaf has no children, and the lists hold every leaf.
        built[n] = ParseTree(labels[n], tuple(kids), None if kids else node.token)
        low = n
    return built[0]  # type: ignore[return-value]


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


class Span(Value):
    """Token index range, 0-based and end-exclusive; never empty.

    A ``Value`` of its start and end.
    """

    __slots__ = ("start", "end")

    start: int
    end: int

    def __init__(self, start: int, end: int) -> None:
        if start < 0 or start >= end:
            raise ValueError(f"bad span ({start}, {end})")
        set_start, set_end = self._setters
        set_start(self, start)
        set_end(self, end)

    def covers(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


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


#: The most internal nodes on a tree's path from root to leaf, a rule of
#: the PTB text: ``read_preorder`` refuses to read a tree nested deeper,
#: and ``write_preorder`` to write one, so no written tree fails to read
#: back.  These walks recurse once a level and would spend Python's
#: recursion limit on a deeper tree: ``_number`` (so ``Preorder.of``,
#: ``write_ptb`` and graft of a tree), ``flatten``, ``rulegen.preprocess``,
#: ``rulegen._word_count``, the marker fold's ``taggers._fold``,
#: ``matcher._replace_at``, and ``Value`` hashing and pickling.  On a
#: tree this deep ``rulegen.preprocess`` fails under about 490 frames of
#: caller stack, as hashing does, and pickling sooner (see ``Value``).
MAX_DEPTH = 256

#: Characters of text tokenized at a time; a chunk ends just before a
#: ``(``, which only ever starts a token, so no cut splits one.
_CHUNK = 1 << 12


def read_preorder(text: str) -> Iterator[Preorder]:
    """Parse a sequence of balanced S-expressions, yielding each tree's
    ``Preorder`` record as its last ``)`` closes; the reader behind
    ``read_ptb``.

    A fault, such as a tree nested past ``MAX_DEPTH``, raises
    ``PTBParseError`` after the trees before it are yielded.  Within one
    call each distinct leaf token is built once, so leaves spelled alike
    are one node, and labels spelled alike are one string.  The text is
    tokenized a chunk at a time, so its tokens are never held at once.
    """
    # The innermost open node's number, -1 outside a tree; the nodes open
    # around it are its ancestors along ``parent``, ``depth`` of them with it.
    top, depth = -1, 0
    # The open tree's lists.  An open node's label is None after a bare
    # ``(``, and False once an atom follows there: a label read late,
    # refused when the node closes.
    labels: list = []
    nodes: list[ParseTree | None] = []
    parent: list[int] = []
    after: list[int] = []
    built: dict[str, ParseTree | str] = {}  # token -> its leaf or label; "(" + label -> label
    pos, size, base = 0, len(text), 0
    while pos < size:
        cut = text.find("(", pos + _CHUNK)
        if cut < 0:
            cut = size
        tokens = _PTB_TOKEN.findall(text, pos, cut)
        for k, tok in enumerate(tokens, base):
            if tok == ")":
                if top < 0:
                    raise _fault(text, k, "unbalanced ')'")
                label, count = labels[top], len(labels)
                if label.__class__ is not str or count == top + 1:
                    message = "missing label" if label is False else "empty node"
                    raise _fault(text, k, message, at_open=True)
                after[top] = count
                top = parent[top]
                depth -= 1
                if top >= 0:
                    continue
            elif tok[0] == "(" and tok[-1] != ")":  # ``(LABEL``, or a bare ``(``
                depth += 1
                if depth > MAX_DEPTH:
                    raise _fault(text, k, f"tree nested more than {MAX_DEPTH} levels deep")
                parent.append(top)
                top = len(labels)
                labels.append((built.get(tok) or _new_label(built, tok)) if len(tok) > 1 else None)
                nodes.append(None)
                after.append(0)
                continue
            else:  # a leaf: a bare atom, or a one-word node
                if tok[0] != "(":
                    if top < 0:
                        raise _fault(text, k, f"unexpected atom {tok!r} outside a tree")
                    if labels[top] is None:
                        labels[top] = False
                leaf = built.get(tok) or _new_leaf(built, tok)
                parent.append(top)
                after.append(len(labels) + 1)
                labels.append(leaf.label)
                nodes.append(leaf)
                if top >= 0:
                    continue
            yield Preorder(labels, nodes, parent, after)
            labels, nodes, parent, after = [], [], [], []
        base += len(tokens)
        pos = cut
    if top >= 0:
        raise _fault(text, None, "unbalanced '('")


def read_ptb(text: str) -> list[ParseTree]:
    """Parse a sequence of balanced S-expressions into trees.

    Whitespace between tokens is not significant; ``-LRB-``/``-RRB-``
    atoms decode to literal parentheses in tokens.  A node's first item
    is its label, and must be an atom.  Each tree is built from its
    ``read_preorder`` record, so trees read in one call share equal
    leaves and labels.
    """
    return [record.tree() for record in read_preorder(text)]


def _fault(text: str, stop: int | None, message: str, at_open: bool = False) -> PTBParseError:
    """The error at token ``stop`` of ``text``, or at its end for None.

    The offset is the token's, or with ``at_open`` that of the ``(``
    opening the node the token closes; at the end it is the text's
    length, and the line that of the tree that never closes.  It comes
    from scanning the text again, so the reader pays for offsets only
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


def write_preorder(labels, nodes, after) -> str:
    """The text of the tree these ``Preorder`` lists hold, written in one
    loop over its nodes in preorder: a space before every node but the
    root, and an open node's ``)`` when its ``after`` is reached.  A lone
    bare atom would read back as a preterminal, so a leaf is written bare
    only beside siblings; it is an only child exactly when the node before
    it ends just after it.  A tree nested past ``MAX_DEPTH`` raises
    ``ValueError``, as the reader would."""
    size = len(after)
    if size == 1:
        return write_leaf(labels[0], nodes[0].token, False)
    parts = ["(", labels[0]]
    open_ends = [size]  # the ``after`` of each open node, innermost last
    for k in range(1, size):
        while open_ends[-1] == k:
            open_ends.pop()
            parts.append(")")
        a = after[k]
        if a == k + 1:
            parts.append(" " + write_leaf(labels[k], nodes[k].token, after[k - 1] != a))
        else:
            parts.append(" (" + labels[k])
            open_ends.append(a)
            if len(open_ends) > MAX_DEPTH:
                raise ValueError(f"tree nested more than {MAX_DEPTH} levels deep")
    parts.append(")" * len(open_ends))
    return "".join(parts)


def write_ptb(tree: ParseTree) -> str:
    """Single-line S-expression; inverse of ``read_ptb`` on values."""
    record = Preorder.of(tree)
    return write_preorder(record.labels, record.nodes, record.after)
