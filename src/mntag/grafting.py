"""Graft standoff annotations onto parse trees.

Each annotation's token span is classified against the tree:

* Exact: some constituent covers exactly the span.  The tag is grafted
  as a ``-`` label suffix on every node of the same-span ancestor
  chain, so a tag on a word inside unary shells reaches the highest
  constituent with that yield; a label that already has the tag as a
  segment keeps it once (``trees.add_suffix``).
* Adjacent daughters: the span covers a contiguous proper subsequence
  of one node's daughters.  A new node labeled with the tag is
  inserted to dominate exactly those daughters.
* Already tagged: a previous semantic suffix is overlaid by the new
  one; a node never carries two.
* Crossing brackets: the span straddles constituents; the tree is left
  alone.

The working copy (``_Shadow``) holds no object per node.  One preorder
pass numbers the input nodes and fills flat lists indexed by that
number: each node's parent, the leaf positions where it starts and
ends, the number after its subtree, and the input node itself.  An
inserted node is numbered after the input nodes, and only the two
nodes an insert touches get a child list of their own.  Graft records
attach to node numbers through a dict.

The classification has one implementation, the working copy's
``same_span_chain`` and ``adjacent_daughters``; ``graft`` acts on it and
``classify_span`` reports it.  Spans in a tree nest or are disjoint, so
every node covering a span is an ancestor of the span's first leaf:
both, like the clause lookup for negation composition, are answered on
that leaf's path to the root.

Annotations are processed family by family (named entities before
modality/negation by default) and within a family in ascending
precedence, so the highest-precedence tag lands last in its node's
records and wins conflicts.  A word tagged as both trigger and target
keeps the target tag regardless of arrival order; only MN labels are
tags, so an NE label spelled like a trigger stands like any NE label.

After grafting, a Negation trigger adjacent to a modality trigger in
the same minimal clause composes NOT into that modality's target
labels; then each raw Negation target on words that carry other tags
leaves its nodes as uncomposable nested modality.  This is the structure
tagger's composition made again by tree position, and it is kept for
the nested modality the tagger leaves raw (see ``taggers``): of the
25 golden test sentences it composes differently only at sentence 2,
"could not reach semi-final" (``VB-TargNOTAble reach``), and sentence
17, "did not want to succeed" (``VB-TargNOTWant succeed``).  Each
negation finds the triggers and targets its clause covers by bisecting
the sentence's records, sorted by span start, so it examines only the
records inside its clause: a sentence of many clauses costs each
negation no more than its own clause does.

Output marks the nodes that carry a record (every inserted node carries
its insert's) and their ancestors.  The output tree builds only marked
nodes anew, through ``trees.rebuilt``, so it shares every subtree graft
did not change with the input, and a regraft that changes nothing
returns the input itself.  ``mn graft`` needs only text: with
``as_text`` graft writes ``write_ptb``'s text of that tree from the
working copy, the marked nodes by the same child walks and every
unmarked subtree by ``trees``' writer, and builds no node.  The tree
stays for library callers and the benchmark's loop, which need trees.

The working copy holds no reference cycle: its lists hold numbers and
input nodes, and a graft record names the nodes it was put on by
number.  So refcounting frees each sentence's copy as soon as ``graft``
or ``classify_span`` returns or raises, and ``mn`` can run with the
cycle collector paused (see ``cli``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .standoff import MN_FAMILY, NE_FAMILY, StandoffAnnotation
from .tags import TAG_SPELLINGS, MNTag, Modality, Role, compose_negation, parse_tag
from .tags import specificity_rank
from .trees import ParseTree, Span, add_suffix, base_category, rebuilt, write_leaf, write_ptb
from .trees import write_subtree

OUTCOMES = (
    "grafted-exact",
    "grafted-inserted",
    "overlaid",
    "crossing-skipped",
    "composed",
    "dropped-uncomposable",
)


@dataclass(frozen=True)
class GraftConfig:
    """Families are grafted in ``family_order``, each once."""

    family_order: tuple[str, ...] = (NE_FAMILY, MN_FAMILY)

    def __post_init__(self) -> None:
        if len(set(self.family_order)) != len(self.family_order):
            raise ValueError(f"family order {','.join(self.family_order)} names a family twice")


@dataclass
class GraftReport:
    counts: dict[str, int] = field(default_factory=lambda: {k: 0 for k in OUTCOMES})

    def bump(self, outcome: str) -> None:
        self.counts[outcome] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def merge(self, other: "GraftReport") -> None:
        for k, v in other.counts.items():
            self.counts[k] += v

    def format(self) -> str:
        return "".join(f"{k}: {self.counts[k]}\n" for k in OUTCOMES)


class SpanCase(Enum):
    EXACT = "Exact"
    ADJACENT_DAUGHTERS = "AdjacentDaughters"
    CROSSING = "Crossing"


def classify_span(tree: ParseTree, span: Span) -> tuple[SpanCase, ParseTree | None]:
    """Classify a span; for Exact the topmost same-span node is returned.

    This is the classification ``graft`` acts on, made by the same calls
    on a fresh working copy of the tree; there is no second copy of it.
    """
    shadow = _Shadow(tree)
    if span.end > shadow.size:
        raise ValueError(f"span {span} outside sentence of {shadow.size} tokens")
    chain = shadow.same_span_chain(span)
    if chain:
        return SpanCase.EXACT, shadow.source[chain[0]]
    if shadow.adjacent_daughters(span) is not None:
        return SpanCase.ADJACENT_DAUGHTERS, None
    return SpanCase.CROSSING, None


class _Shadow:
    """Working copy of a tree as lists indexed by node number: the input
    nodes in preorder, then inserted nodes in the order they were made.
    It holds no reference cycle (see the module docstring)."""

    def __init__(self, tree: ParseTree):
        self.source: list[ParseTree | None] = []  # the input node; None for an inserted one
        self.parent: list[int] = []  # -1 at the root
        self.start: list[int] = []  # the node's span: leaves before it,
        self.end: list[int] = []  # and leaves before it or under it
        # Input nodes only: the number after the node's subtree, which is
        # its next sibling's when it has one.
        self.after: list[int] = []
        self.leaves: list[int] = []  # the leaves' numbers, left to right
        self.kids: dict[int, list[int]] = {}  # the children of the nodes an insert touched
        self.labels: dict[int, str] = {}  # the inserted nodes' labels
        _fill(tree, -1, self.source, self.parent, self.start, self.end, self.after, self.leaves)
        self.size = len(self.leaves)

    def children(self, n: int) -> list[int]:
        kids = self.kids.get(n)
        if kids is not None:
            return kids
        after = self.after
        kids, k, stop = [], n + 1, after[n]
        while k < stop:
            kids.append(k)
            k = after[k]
        return kids

    def label(self, n: int) -> str:
        source = self.source[n]
        return self.labels[n] if source is None else source.label

    def _spine(self, span: Span) -> list[int]:
        """Ancestors of the span's first leaf, leaf included, that start at
        ``span.start`` and end at or before ``span.end``; bottom first."""
        s, e = span.start, span.end
        start, end, parent = self.start, self.end, self.parent
        spine = []
        n = self.leaves[s]
        while n >= 0 and start[n] == s and end[n] <= e:
            spine.append(n)
            n = parent[n]
        return spine

    def same_span_chain(self, span: Span) -> list[int]:
        """Nodes whose span equals ``span``, topmost first."""
        e, end = span.end, self.end
        return [n for n in reversed(self._spine(span)) if end[n] == e]

    def adjacent_daughters(self, span: Span) -> tuple[int, int, int] | None:
        """``(parent, i, j)`` when daughters ``i..j`` of ``parent`` cover
        exactly ``span`` and are not all of its daughters, else None."""
        top = self._spine(span)[-1]
        parent = self.parent[top]
        if parent < 0:
            return None
        # ``parent`` is off the spine, so it starts before the span or
        # ends after it: daughters i..j are never all of its daughters.
        kids, end = self.children(parent), self.end
        i = j = kids.index(top)
        while j < len(kids) and end[kids[j]] < span.end:
            j += 1
        if j < len(kids) and end[kids[j]] == span.end:
            return parent, i, j
        return None

    def insert(self, parent: int, i: int, j: int, label: str) -> int:
        """Put a node labeled ``label`` over daughters ``i..j`` of
        ``parent``; only it and ``parent`` get child lists of their own."""
        kids = self.children(parent)
        grabbed = kids[i : j + 1]
        new = len(self.source)
        self.source.append(None)
        self.parent.append(parent)
        self.start.append(self.start[grabbed[0]])
        self.end.append(self.end[grabbed[-1]])
        self.labels[new] = label
        self.kids[new] = grabbed
        self.kids[parent] = kids[:i] + [new] + kids[j + 1 :]
        for k in grabbed:
            self.parent[k] = new
        return new

    def minimal_clause(self, span: Span) -> Span:
        """Span of the smallest ``S`` covering ``span``, else the root's."""
        parent, end = self.parent, self.end
        n = self.leaves[span.start]
        while parent[n] >= 0 and not (
            end[n] >= span.end and base_category(self.label(n)) == "S"
        ):
            n = parent[n]
        return Span(self.start[n], end[n])


def _fill(node, up, source, parent, start, end, after, leaves) -> None:
    """Number ``node`` and its subtree in preorder under parent ``up``.

    A module-level function, not a closure: a recursive closure is a
    reference cycle.  Leaf daughters, about half of all nodes, are
    numbered inline to save a call each; a leaf reaches this only as the
    root.
    """
    n = len(source)
    source.append(node)
    parent.append(up)
    start.append(len(leaves))
    end.append(0)
    after.append(0)
    for child in node.children:
        if child.children:
            _fill(child, n, source, parent, start, end, after, leaves)
        else:
            k = len(source)
            source.append(child)
            parent.append(n)
            start.append(len(leaves))
            leaves.append(k)
            end.append(len(leaves))
            after.append(k + 1)
    if not node.children:
        leaves.append(n)
    end[n] = len(leaves)
    after[n] = len(source)


def _apply_key(item: tuple[StandoffAnnotation, MNTag | None]) -> tuple:
    # Lower precedence first, so higher precedence overwrites.
    a, tag = item
    rank = specificity_rank(tag) if tag is not None else 0
    return (-rank, a.span.start, a.span.end, a.label)


@dataclass(eq=False)
class _Grafted:
    annotation: StandoffAnnotation
    outcome: str
    nodes: list[int]  # the numbers of the nodes it was put on
    label: str  # composition may rewrite it
    tag: MNTag | None  # ``label`` parsed, for an MN family label only


def graft(
    tree: ParseTree,
    annotations: Sequence[StandoffAnnotation],
    config: GraftConfig | None = None,
    *,
    as_text: bool = False,
) -> tuple[ParseTree | str, GraftReport]:
    """Merge annotations into the tree; see the module docstring.

    The result is independent of the input annotation order.  With
    ``as_text`` the first item is not the output tree but the text
    ``write_ptb`` would give for it, written without building it.
    """
    config = config or GraftConfig()
    shadow = _Shadow(tree)
    report = GraftReport()

    for a in annotations:
        if a.span.end > shadow.size:
            raise ValueError(f"annotation span {a.span} outside sentence of {shadow.size} tokens")
        if a.family not in config.family_order:
            order = ",".join(config.family_order)
            raise ValueError(f"annotation family {a.family!r} not in family order {order}")

    grafted: list[_Grafted] = []
    applied: dict[int, list[_Grafted]] = {}  # node number -> the records put on it
    for family in config.family_order:
        batch = [
            (a, parse_tag(a.label) if family == MN_FAMILY and a.label in TAG_SPELLINGS else None)
            for a in annotations
            if a.family == family
        ]
        for a, tag in sorted(batch, key=_apply_key):
            nodes = shadow.same_span_chain(a.span)
            if nodes:
                # Records leave ``applied`` only in ``_compose``, after this.
                outcome = "overlaid" if any(n in applied for n in nodes) else "grafted-exact"
            elif (where := shadow.adjacent_daughters(a.span)) is not None:
                outcome, nodes = "grafted-inserted", [shadow.insert(*where, a.label)]
            else:
                outcome = "crossing-skipped"
            g = _Grafted(a, outcome, nodes, a.label, tag)
            for n in nodes:
                applied.setdefault(n, []).append(g)
            grafted.append(g)

    _compose(shadow, grafted, applied)

    for g in grafted:
        report.bump(g.outcome)

    marked = _marked(shadow, applied)
    if as_text:
        return (_text(0, False, shadow, applied, marked) if marked else write_ptb(tree)), report
    return (_rebuild(0, shadow, applied, marked) if marked else tree), report


def _span_start(g: _Grafted) -> int:
    return g.annotation.span.start


def _compose(
    shadow: _Shadow, grafted: list[_Grafted], applied: dict[int, list[_Grafted]]
) -> None:
    mn = [g for g in grafted if g.tag]
    negations = [
        g for g in mn if g.tag.role is Role.TRIGGER and g.tag.modality is Modality.NEGATION
    ]
    if negations:
        _compose_negations(shadow, mn, negations)

    # Raw Negation targets left on words that carry other tags are
    # uncomposable nested modality; remove them.
    for g in mn:
        if g.tag.role is Role.TARGET and g.tag.modality is Modality.NEGATION:
            records = [applied[n] for n in g.nodes]
            if any(other is not g for on_node in records for other in on_node):
                g.outcome = "dropped-uncomposable"
                for on_node in records:
                    on_node.remove(g)


def _compose_negations(shadow: _Shadow, mn: list[_Grafted], negations: list[_Grafted]) -> None:
    """Compose each negation into the targets of the trigger it is
    adjacent to in its minimal clause.  The triggers and targets a clause
    covers are found by bisecting lists sorted by span start, so each
    negation looks only at records inside its clause."""
    # Stable sorts: records with one start stay in placement order.
    triggers = sorted(
        (g for g in mn if g.tag.role is Role.TRIGGER and g.tag.modality is not Modality.NEGATION),
        key=_span_start,
    )
    targets = sorted((g for g in mn if g.tag.role is Role.TARGET), key=_span_start)
    trigger_starts = [_span_start(g) for g in triggers]
    target_starts = [_span_start(g) for g in targets]
    negations.sort(key=_span_start)

    for neg in negations:
        nspan = neg.annotation.span
        clause = shadow.minimal_clause(nspan)
        first = bisect_left(trigger_starts, clause.start)
        stop = bisect_left(trigger_starts, clause.end, first)
        adjacent = [
            t
            for t in triggers[first:stop]
            if clause.covers(t.annotation.span)
            and (
                t.annotation.span.end == nspan.start
                or nspan.end == t.annotation.span.start
                or _siblings(shadow, t, neg)
            )
        ]
        if not adjacent:
            continue
        # Prefer the trigger just before the negation (a modal), else after;
        # ``min`` keeps the first of equals, so ties go by placement.
        trig_tag = min(
            adjacent, key=lambda t: (t.annotation.span.end != nspan.start, _span_start(t))
        ).tag
        first = bisect_left(target_starts, clause.start)
        stop = bisect_left(target_starts, clause.end, first)
        for g in targets[first:stop]:
            if (
                g.tag.modality is trig_tag.modality
                and not g.tag.outer_not
                and clause.covers(g.annotation.span)
            ):
                g.tag = compose_negation(g.tag)
                g.label = str(g.tag)
                neg.outcome = "composed"


def _siblings(shadow: _Shadow, a: _Grafted, b: _Grafted) -> bool:
    parent = shadow.parent
    return any(parent[i] >= 0 and parent[i] == parent[j] for i in a.nodes for j in b.nodes)


def _final_label(records: list[_Grafted]) -> str:
    # A node's records are in placement order (``_compose`` only removes
    # them), so the latest is the last.
    chosen = records[-1]
    # Trigger-vs-target conflicts are adjudicated within the MN
    # family only; a later family's tag stands.
    if getattr(chosen.tag, "role", None) is Role.TRIGGER:
        targets = [g for g in records if getattr(g.tag, "role", None) is Role.TARGET]
        if targets:
            chosen = targets[-1]
    return chosen.label


def _marked(shadow: _Shadow, applied: dict[int, list[_Grafted]]) -> set[int]:
    """The nodes with records, inserted ones included, and their ancestors."""
    marked: set[int] = set()
    parent = shadow.parent
    for n in applied:
        while n >= 0 and n not in marked:
            marked.add(n)
            n = parent[n]
    return marked


def _out_label(n: int, shadow: _Shadow, applied: dict[int, list[_Grafted]]) -> str:
    """The label node ``n`` has in the output."""
    records = applied.get(n)
    source = shadow.source[n]
    if source is None:
        # An inserted node whose tag was dropped keeps the label it was
        # inserted with, for traceability, rather than vanish.
        return _final_label(records) if records else shadow.labels[n]
    return add_suffix(source.label, _final_label(records)) if records else source.label


def _rebuild(
    n: int, shadow: _Shadow, applied: dict[int, list[_Grafted]], marked: set[int]
) -> ParseTree:
    """The output subtree for marked node ``n``; it is still the input
    subtree itself when graft changed nothing in it."""
    label = _out_label(n, shadow, applied)
    node = shadow.source[n]
    kids = shadow.kids.get(n)
    if kids is not None:
        source = shadow.source
        out = [_rebuild(k, shadow, applied, marked) if k in marked else source[k] for k in kids]
        if node is None:
            return ParseTree(label, tuple(out), None)
    else:
        after = shadow.after
        out, k = [], n + 1
        for child in node.children:
            if k in marked:
                child = _rebuild(k, shadow, applied, marked)
            out.append(child)
            k = after[k]
    return rebuilt(node, out, label)


def _text(
    n: int, bare_ok: bool, shadow: _Shadow, applied: dict[int, list[_Grafted]], marked: set[int]
) -> str:
    """``write_subtree`` of the output subtree for marked node ``n``,
    written from the working copy by ``_rebuild``'s child walks."""
    label = _out_label(n, shadow, applied)
    kids = shadow.kids.get(n)
    if kids is not None:
        source, ok = shadow.source, len(kids) > 1
        parts = [
            _text(k, ok, shadow, applied, marked) if k in marked else write_subtree(source[k], ok)
            for k in kids
        ]
    else:
        node = shadow.source[n]
        if not node.children:
            return write_leaf(label, node.token, bare_ok)
        after, ok = shadow.after, len(node.children) > 1
        parts, k = [], n + 1
        for child in node.children:
            parts.append(
                _text(k, ok, shadow, applied, marked) if k in marked else write_subtree(child, ok)
            )
            k = after[k]
    return f"({label} {' '.join(parts)})"
