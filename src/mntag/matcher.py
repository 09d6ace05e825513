"""Tree pattern matching and rewriting.

Patterns pair a node test with relation clauses::

    VB=trigger !< /^Trig/ < VoicePassive < required $.. (S < (VB=target !< AUX))

* A node test is an atom, an alternation ``NP|ADJP``, or an anchored
  prefix regex ``/^Trig/``; ``=name`` captures the matched node.
* ``<`` requires an immediate daughter satisfying the operand.  An atom
  operand matches a daughter by label or by token, and a childless
  preterminal also satisfies a plain atom naming its own token (the
  node dominates that word).
* ``!<`` is the negation of ``<``; captures are not allowed inside.
* ``$..`` requires a following sister.
* Operands may be parenthesized sub-patterns, nested at most
  ``MAX_NESTING`` groups deep.

A plain atom tests label or token alike.  Lexicon words reach rules
only as plain atoms bound into parsed templates, never as pattern text,
and the lexicon rejects a word that rule text cannot spell as exactly
one plain atom (``is_plain_word``).

Actions follow the pattern, one per line::

    insert (TargReq) >2 target      # payload becomes the 2nd daughter
    augment target TargReq          # append "-TargReq" to the label

A match's actions run in descending order of their capture's path, and
one capture's actions in rule order.  An insert under the node at path
P moves only the nodes below P, whose paths extend P and so sort after
it: every action still to run finds its capture at its matched path.

``match`` makes one walk over the tree and hands each node's parent and
path down to the solver, so every capture comes with its path (child
indexes from the root, ``Match.paths``) and actions locate captures by
path, never by node identity; a tree that holds one node object at two
places matches like an equal tree without sharing.  A ``Match`` is its
rule, the tree it was found in and those paths; it resolves the nodes
it names (``root``, ``captures``) through the paths only when asked.

``apply`` rewrites to fixpoint, recomputing matches after every change
and charging each change against a rewrite budget, so a rule that keeps
re-enabling itself is reported instead of looping forever.

Before it walks, ``match`` checks the rule's required atom tests
(``PatternRule.needs``: the root test and the tests reached through
``<`` and ``$..``, never through ``!<``; regexes never count) against
the tree's labels and tokens (``ParseTree.atoms``, computed once per
tree).  A plain atom matches only a node whose label or token equals
it, and a ``<`` atom satisfied by a preterminal's own token needs that
token too, so when some required test has no atom in the tree the rule
cannot match, and ``match`` returns ``[]`` at the cost of one set test.
Most generated rules name only words the sentence lacks.  A test's
alternatives are a set, so a generated word test over thousands of
forms costs one hash lookup per atom, here and in ``NodeTest.matches``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Callable, Iterator

from .trees import ParseTree, add_suffix, insert_leaf, rebuilt

#: Child indexes leading from a tree's root to one of its nodes.
TreePath = tuple[int, ...]

_LEX = re.compile(r"!<|\$\.\.|[()]|/\^[^/\s]*/(?:=\w+)?|<|[^()<>\s]+")


class PatternSyntaxError(ValueError):
    """Bad rule source; ``column`` points into the pattern text."""

    def __init__(self, message: str, column: int | None = None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


#: Rewrites one ``apply`` call may make before it gives up on the rule.
MAX_REWRITES = 100


class RewriteBudgetError(RuntimeError):
    """A rule kept rewriting past its budget; it likely re-enables itself."""


class Relation(Enum):
    CHILD = "<"
    NOT_CHILD = "!<"
    FOLLOWING_SISTER = "$.."


@dataclass(frozen=True)
class NodeTest:
    """An atom test (its alternatives, a set: order is never observable)
    or an anchored prefix regex on the label."""

    alternatives: frozenset[str] | None = None
    regex: str | None = None

    def matches(self, node: ParseTree) -> bool:
        if self.regex is not None:
            return _compiled(self.regex).match(node.label) is not None
        assert self.alternatives is not None
        return node.label in self.alternatives or node.token in self.alternatives


_compiled = cache(re.compile)


@dataclass(frozen=True)
class Pattern:
    test: NodeTest
    capture: str | None = None
    clauses: tuple["Clause", ...] = ()

    def capture_names(self) -> list[str]:
        names = [self.capture] if self.capture else []
        for clause in self.clauses:
            names.extend(clause.operand.capture_names())
        return names

    def is_plain_atom(self) -> bool:
        """Capture-less, clause-less atom test (alternations included)."""
        return self.capture is None and not self.clauses and self.test.alternatives is not None


@dataclass(frozen=True)
class Clause:
    relation: Relation
    operand: Pattern


class ActionKind(Enum):
    INSERT = "insert"
    AUGMENT = "augment"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    capture: str
    label: str  # insert: the new leaf's label and token; augment: the suffix
    position: int | None = None  # insert, 1-based


def _required_tests(pattern: Pattern) -> Iterator[NodeTest]:
    """Atom tests some node must pass for ``pattern`` to match: the root
    test and those reached through ``<`` and ``$..``, never ``!<``."""
    if pattern.test.alternatives is not None:
        yield pattern.test
    for clause in pattern.clauses:
        if clause.relation is not Relation.NOT_CHILD:
            yield from _required_tests(clause.operand)


@dataclass(frozen=True)
class PatternRule:
    name: str
    pattern: Pattern
    actions: tuple[Action, ...]
    source: str = field(default="", compare=False)

    #: The alternatives of every atom test the pattern requires
    #: (``_required_tests``); some node must carry one atom of each.
    needs: tuple[frozenset[str], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        needs = tuple(t.alternatives for t in _required_tests(self.pattern))
        object.__setattr__(self, "needs", needs)
        names = self.pattern.capture_names()
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise PatternSyntaxError(f"duplicate capture names {sorted(dupes)}")
        bound = set(names)
        for action in self.actions:
            if action.capture not in bound:
                raise PatternSyntaxError(f"action references unbound capture {action.capture!r}")


# ---------------------------------------------------------------------------
# Parsing


#: The most parenthesized groups a pattern may nest, a rule of the rule
#: text: parsing, ``PatternRule`` construction, ``rulegen._atoms`` and
#: ``rulegen._bind``, matching (``_solve``, three frames a group), and
#: comparing, hashing and printing a pattern (the dataclass ``__eq__``,
#: ``__hash__`` and ``__repr__``) recurse once a group or more, and each
#: runs at this bound under 300 frames of caller stack.  Comparing and
#: printing go deepest: on Python 3.11 they fail there from 100 groups.
#: It is not the trees' depth rule: ``$..`` nests groups along sisters,
#: so a group need not descend the tree.
MAX_NESTING = 64


class _Tokens:
    def __init__(self, text: str):
        self.items = [(m.group(), m.start()) for m in _LEX.finditer(text)]
        self.pos = 0
        self.depth = 0  # the groups open around the next token

    def peek(self) -> tuple[str, int] | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> tuple[str, int]:
        item = self.peek()
        if item is None:
            raise PatternSyntaxError("unexpected end of pattern")
        self.pos += 1
        return item


def _parse_test(token: str, column: int) -> tuple[NodeTest, str | None]:
    if token.startswith("/"):
        body, _, capture = token.rpartition("/")
        body = body[1:]
        name = capture[1:] if capture.startswith("=") else None
        if not body.startswith("^"):
            raise PatternSyntaxError(f"only anchored prefix regexes are supported: /{body}/", column)
        try:
            _compiled(body)
        except re.error as exc:
            raise PatternSyntaxError(f"bad regex /{body}/: {exc}", column) from None
        return NodeTest(regex=body), name
    name = None
    if "=" in token:
        token, _, name = token.rpartition("=")
        if not name.isidentifier():
            raise PatternSyntaxError(f"bad capture name {name!r}", column)
    alts = token.split("|")
    if not all(alts):
        raise PatternSyntaxError(f"bad label test {token!r}", column)
    return NodeTest(alternatives=frozenset(alts)), name


def _parse_operand(toks: _Tokens) -> Pattern:
    token, column = toks.next()
    if token == "(":
        if toks.depth == MAX_NESTING:
            raise PatternSyntaxError(f"pattern nested more than {MAX_NESTING} groups deep", column)
        toks.depth += 1
        inner = _parse_pattern_expr(toks, in_group=True)
        toks.next()  # a group's expression ends only at its ``)`` or the text's end
        toks.depth -= 1
        return inner
    if token in (")", "<", "!<", "$.."):
        raise PatternSyntaxError(f"expected a node test, got {token!r}", column)
    test, name = _parse_test(token, column)
    return Pattern(test, name)


def _parse_pattern_expr(toks: _Tokens, in_group: bool = False) -> Pattern:
    head = _parse_operand(toks)
    clauses = list(head.clauses)
    while True:
        item = toks.peek()
        if item is None or item[0] == ")":
            break
        token, column = item
        relation = {r.value: r for r in Relation}.get(token)
        if relation is None:
            # Inside parentheses a bare operand is shorthand for
            # immediate dominance: "(DT the)" means DT < the.
            if in_group:
                relation = Relation.CHILD
            else:
                toks.next()
                raise PatternSyntaxError(f"expected a relation operator, got {token!r}", column)
        else:
            toks.next()
        operand = _parse_operand(toks)
        if relation is Relation.NOT_CHILD and operand.capture_names():
            raise PatternSyntaxError("captures are not allowed under !<", column)
        clauses.append(Clause(relation, operand))
    return Pattern(head.test, head.capture, tuple(clauses))


def _parse_pattern_text(text: str) -> Pattern:
    toks = _Tokens(text)
    pattern = _parse_pattern_expr(toks)
    extra = toks.peek()
    if extra is not None:
        raise PatternSyntaxError(f"trailing {extra[0]!r}", extra[1])
    return pattern


_INSERT_RE = re.compile(r"insert\s+\(([^\s()]+)\)\s+>([0-9]+)\s+(\w+)\s*$")
_AUGMENT_RE = re.compile(r"augment\s+(\w+)\s+(\S+)\s*$")


def _parse_action(line: str) -> Action:
    m = _INSERT_RE.match(line)
    if m:
        label, position, capture = m.group(1), int(m.group(2)), m.group(3)
        if position < 1:
            raise PatternSyntaxError(f"insert position must be >= 1: {line!r}")
        return Action(ActionKind.INSERT, capture, label, position)
    m = _AUGMENT_RE.match(line)
    if m:
        return Action(ActionKind.AUGMENT, m.group(1), m.group(2))
    raise PatternSyntaxError(f"unparseable action line {line!r}")


def parse_pattern(src: str, name: str = "rule") -> PatternRule:
    """Parse one rule record: optional ``rule NAME`` header, pattern
    line(s), then action lines."""
    pattern_parts: list[str] = []
    actions: list[Action] = []
    for raw in src.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("rule ") and not pattern_parts and not actions:
            name = line[5:].strip()
        elif line.startswith(("insert ", "augment ")):
            actions.append(_parse_action(line))
        elif actions:
            raise PatternSyntaxError(f"pattern text after actions: {line!r}")
        else:
            pattern_parts.append(line)
    if not pattern_parts:
        raise PatternSyntaxError("rule has no pattern")
    pattern = _parse_pattern_text(" ".join(pattern_parts))
    return PatternRule(name, pattern, tuple(actions), source=src.strip())


def read_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Blank-line-separated records, ``#`` comment lines dropped, each as
    (number of its first line, its right-stripped lines).  Lexicon, rule
    and template files share this layout."""
    record: list[str] = []
    for n, line in enumerate(text.splitlines() + [""], 1):
        if line := line.rstrip():
            if line[0] != "#":
                if not record:
                    first = n
                record.append(line)
        elif record:
            yield first, record
            record = []


def parse_rules(
    text: str, check: Callable[[PatternRule], None] | None = None
) -> list[PatternRule]:
    """Parse a rule file: ``read_records`` records, one rule each.  A
    syntax error is reported with its rule's line, and a
    ``PatternSyntaxError`` from ``check``, called on each rule, with the
    rule's line and name."""
    rules = []
    for lineno, lines in read_records(text):
        where = f"line {lineno}"
        try:
            rule = parse_pattern("\n".join(lines), name=f"rule{len(rules) + 1}")
            where += f": rule {rule.name}"
            if check is not None:
                check(rule)
        except PatternSyntaxError as exc:
            raise PatternSyntaxError(f"{where}: {exc}") from None
        rules.append(rule)
    return rules


#: What ``_LEX`` reads as one atom token that ``_parse_test`` takes as
#: itself: no regex or ``$..`` at the start, no capture or alternation.
_PLAIN_WORD = re.compile(r"(?!/|\$\.\.)[^()<>\s=|]+")


def is_plain_word(word: str) -> bool:
    """True when rule text spells ``word`` as one plain atom testing exactly it."""
    return word.isalpha() or _PLAIN_WORD.fullmatch(word) is not None


def serialize_rules(rules) -> str:
    return "\n\n".join(r.source for r in rules) + "\n"


# ---------------------------------------------------------------------------
# Matching


@dataclass(eq=False, slots=True)
class Match:
    """One binding environment of ``rule`` in ``tree``: the path of the
    node that passed the pattern's root test, and each capture name's
    path.  ``root`` and ``captures`` look the nodes up through them."""

    rule: PatternRule
    tree: ParseTree
    root_path: TreePath
    paths: dict[str, TreePath]

    @property
    def root(self) -> ParseTree:
        return _node_at(self.tree, self.root_path)

    @property
    def captures(self) -> dict[str, ParseTree]:
        return {name: _node_at(self.tree, path) for name, path in self.paths.items()}

    def __repr__(self) -> str:
        names = ", ".join(f"{k}={v.label}" for k, v in self.captures.items())
        return f"Match({self.root.label}; {names})"


# Module-level names for the relations ``_solve`` tests at every node it
# tries: reading an enum member off its class is a descriptor call.
_NOT_CHILD, _FOLLOWING_SISTER = Relation.NOT_CHILD, Relation.FOLLOWING_SISTER


def _atom_self_token(operand: Pattern, node: ParseTree) -> bool:
    return (
        operand.is_plain_atom()
        and node.is_leaf
        and node.token in operand.test.alternatives  # type: ignore[operator]
    )


def _solve(
    pattern: Pattern, node: ParseTree, parent: ParseTree | None, path: TreePath
) -> list[dict]:
    """Every environment (capture name -> path) binding ``pattern`` at
    ``node``, each once, whose parent (None at the root) and path the
    caller knows."""
    if not pattern.test.matches(node):
        return []
    envs = [{pattern.capture: path} if pattern.capture else {}]
    for clause in pattern.clauses:
        if clause.relation is _FOLLOWING_SISTER:
            subs = _solve_among(clause.operand, parent, path[:-1], path[-1] + 1) if parent else []
        elif _atom_self_token(clause.operand, node):
            subs = [{}]
        else:
            subs = _solve_among(clause.operand, node, path, 0)
        if clause.relation is _NOT_CHILD:
            if subs:
                return []
            continue
        envs = [env | sub for env in envs for sub in subs]
        if not envs:
            return []
    return envs


def _solve_among(
    operand: Pattern, owner: ParseTree, owner_path: TreePath, first: int
) -> list[dict]:
    """``_solve`` at each daughter of ``owner`` from index ``first`` on,
    each environment once.  Only an uncaptured operand binds one
    environment at two daughters: the empty one when it captures
    nothing, or one whose captures all lie beyond its ``$..``."""
    kids = owner.children
    envs = [
        env
        for k in range(first, len(kids))
        for env in _solve(operand, kids[k], owner, owner_path + (k,))
    ]
    if operand.capture is None and len(envs) > 1:
        # An operand's environments all bind its captures in one order.
        envs = list({tuple(env.values()): env for env in envs}.values())
    return envs


def match(rule: PatternRule, tree: ParseTree) -> list[Match]:
    """All distinct binding environments, in document order of the node
    matching the pattern's root test.

    A rule with a required atom test that no label or token of the tree
    passes returns ``[]`` without a walk."""
    atoms = tree.atoms
    for alternatives in rule.needs:
        if atoms.isdisjoint(alternatives):
            return []
    return _walk(rule, tree)


def _walk(rule: PatternRule, tree: ParseTree) -> list[Match]:
    """``match`` by trying the pattern at every node that passes its
    root test, in preorder."""
    pattern = rule.pattern
    alternatives = pattern.test.alternatives
    regex = None if alternatives is not None else _compiled(pattern.test.regex).match
    out: list[Match] = []
    stack: list[tuple[ParseTree, ParseTree | None, TreePath]] = [(tree, None, ())]
    pop, push = stack.pop, stack.append
    while stack:
        node, parent, path = pop()
        # ``NodeTest.matches``, inlined: most nodes fail the root test.
        if (
            regex(node.label)
            if regex is not None
            else node.label in alternatives or node.token in alternatives
        ):
            for env in _solve(pattern, node, parent, path):
                out.append(Match(rule, tree, path, env))
        kids = node.children
        k = len(kids)
        while k:
            k -= 1
            push((kids[k], node, path + (k,)))
    return out


# ---------------------------------------------------------------------------
# Rewriting


def _node_at(tree: ParseTree, path: TreePath) -> ParseTree:
    for i in path:
        tree = tree.children[i]
    return tree


def _replace_at(tree: ParseTree, path: TreePath, new: ParseTree) -> ParseTree:
    if not path:
        return new
    i = path[0]
    children = list(tree.children)
    children[i] = _replace_at(children[i], path[1:], new)
    return ParseTree(tree.label, tuple(children), None)


def _apply_one(node: ParseTree, action: Action) -> ParseTree | None:
    """``node`` after ``action``, or None when the action changes nothing."""
    if action.kind is ActionKind.AUGMENT:
        new = rebuilt(node, node.children, add_suffix(node.label, action.label))
        return None if new is node else new
    assert action.position is not None
    return insert_leaf(node, action.position - 1, action.label)


def _apply_actions(m: Match) -> ParseTree | None:
    """``m.tree`` after the rule's actions, run in the order the module
    docstring gives, or None when none changes it."""
    paths = m.paths
    tree = m.tree
    for action in sorted(m.rule.actions, key=lambda a: paths[a.capture], reverse=True):
        path = paths[action.capture]
        node = _apply_one(_node_at(tree, path), action)
        if node is not None:
            tree = _replace_at(tree, path, node)
    return None if tree is m.tree else tree


def apply(
    rule: PatternRule,
    tree: ParseTree,
    on_rewrite: Callable[[Match, ParseTree], None] | None = None,
) -> ParseTree:
    """Apply a rule to fixpoint: rewrite the first match that changes
    the tree, recompute matches, repeat.

    ``on_rewrite`` is called with the match and the tree it was found in
    just before each change.  Raises RewriteBudgetError after
    ``MAX_REWRITES`` changes.  The budget is per call, so for a
    generated rule it covers all the triggers of its (template,
    modality) group in the tree.
    """
    rewrites = 0
    while True:
        for m in match(rule, tree):
            new_tree = _apply_actions(m)
            if new_tree is not None:
                break
        else:
            return tree
        if rewrites >= MAX_REWRITES:
            raise RewriteBudgetError(
                f"rule {rule.name!r} exceeded its rewrite budget of {MAX_REWRITES}"
            )
        rewrites += 1
        if on_rewrite is not None:
            on_rewrite(m, tree)
        tree = new_tree
