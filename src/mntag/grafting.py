"""Graft standoff annotations onto parse trees.

Each annotation's token span is classified against the tree:

* Exact: some constituent covers exactly the span.  The tag is grafted
  as a ``-`` label suffix on every node of the same-span ancestor
  chain, so a tag on a word inside unary shells reaches the highest
  constituent with that yield.
* Adjacent daughters: the span covers a contiguous proper subsequence
  of one node's daughters.  A new node labeled with the tag is
  inserted to dominate exactly those daughters.
* Already tagged: a previous semantic suffix is overlaid by the new
  one; a node never carries two.
* Crossing brackets: the span straddles constituents; the tree is left
  alone.

The classification has one implementation, the working copy's
``same_span_chain`` and ``adjacent_daughters``; ``graft`` acts on it and
``classify_span`` reports it.  Spans in a tree nest or are disjoint, so
every node covering a span is an ancestor of the span's first leaf:
both, like the clause lookup for negation composition, are answered on
that leaf's path to the root.

Annotations are processed family by family (named entities before
modality/negation by default) and within a family in ascending
precedence, so the highest-precedence tag lands last and wins
conflicts.  A word tagged as both trigger and target keeps the target
tag regardless of arrival order.

After grafting, a Negation trigger adjacent to a modality trigger in
the same minimal clause composes NOT into that modality's target
labels; then each raw Negation target on words that carry other tags
leaves its nodes as uncomposable nested modality.  This is the structure
tagger's composition made again by tree position, and it is kept for
the nested modality the tagger leaves raw (see ``taggers``): of the
25 golden test sentences it composes differently only at sentence 2,
"could not reach semi-final" (``VB-TargNOTAble reach``), and sentence
17, "did not want to succeed" (``VB-TargNOTWant succeed``).

The output tree shares every subtree graft did not change with the
input: a node that carries no tag, was not inserted and whose children
all render to the input children themselves is the input node.  Only
tagged and inserted nodes and their ancestors are built anew.

The working copy holds no reference cycle.  Its references point down
only: a node names its parent, and a graft record the nodes it was put
on, by index into the copy's node list.  So refcounting frees each
sentence's copy as soon as ``graft`` or ``classify_span`` returns or
raises, and ``mn`` can run with the cycle collector paused (see
``cli``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import is_
from typing import Sequence

from .tags import TAG_SPELLINGS, MNTag, Modality, Role, compose_negation, parse_tag
from .tags import specificity_rank
from .taggers import MN_FAMILY, NE_FAMILY, StandoffAnnotation
from .trees import ParseTree, Span, base_category

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
        return SpanCase.EXACT, chain[0].source
    if shadow.adjacent_daughters(span) is not None:
        return SpanCase.ADJACENT_DAUGHTERS, None
    return SpanCase.CROSSING, None


class _GNode:
    __slots__ = (
        "label",
        "children",
        "index",
        "parent",
        "start",
        "end",
        "applied",
        "source",
    )

    def __init__(self, nodes, label, children, start, end, source=None):
        self.label = label
        self.children = children
        self.index = len(nodes)  # this node's place in the working copy's ``nodes``
        self.parent = None  # the parent's index; None at the root
        self.start = start
        self.end = end
        self.applied = []  # the _Grafted records put on this node
        self.source = source  # the input node; None for an inserted node
        nodes.append(self)
        for c in children:
            c.parent = self.index


def _build(node: ParseTree, nodes: list[_GNode], leaves: list[_GNode]) -> _GNode:
    start = len(leaves)
    children = [_build(c, nodes, leaves) for c in node.children]
    new = _GNode(nodes, node.label, children, start, start, node)
    if not children:
        leaves.append(new)
    new.end = len(leaves)
    return new


class _Shadow:
    """Mutable working copy of a tree with live span bookkeeping; it
    holds no reference cycle (see the module docstring)."""

    def __init__(self, tree: ParseTree):
        self.nodes: list[_GNode] = []
        self.leaves: list[_GNode] = []
        self.root = _build(tree, self.nodes, self.leaves)
        self.size = len(self.leaves)

    def parent(self, n: _GNode) -> _GNode | None:
        return None if n.parent is None else self.nodes[n.parent]

    def _spine(self, span: Span) -> list[_GNode]:
        """Ancestors of the span's first leaf, leaf included, that start at
        ``span.start`` and end at or before ``span.end``; bottom first."""
        spine = []
        n = self.leaves[span.start]
        while n is not None and n.start == span.start and n.end <= span.end:
            spine.append(n)
            n = self.parent(n)
        return spine

    def same_span_chain(self, span: Span) -> list[_GNode]:
        """Nodes whose span equals ``span``, topmost first."""
        return [n for n in reversed(self._spine(span)) if n.end == span.end]

    def adjacent_daughters(self, span: Span):
        """``(parent, i, j)`` when daughters ``i..j`` of ``parent`` cover
        exactly ``span`` and are not all of its daughters, else None."""
        top = self._spine(span)[-1]
        parent = self.parent(top)
        if parent is None:
            return None
        # ``parent`` is off the spine, so it starts before the span or
        # ends after it: daughters i..j are never all of its daughters.
        kids = parent.children
        i = j = kids.index(top)
        while j < len(kids) and kids[j].end < span.end:
            j += 1
        if j < len(kids) and kids[j].end == span.end:
            return parent, i, j
        return None

    def insert(self, parent: _GNode, i: int, j: int, label: str) -> _GNode:
        grabbed = parent.children[i : j + 1]
        new = _GNode(self.nodes, label, list(grabbed), grabbed[0].start, grabbed[-1].end)
        parent.children[i : j + 1] = [new]
        new.parent = parent.index
        return new

    def minimal_clause(self, span: Span) -> Span:
        """Span of the smallest ``S`` covering ``span``, else the root's."""
        n = self.leaves[span.start]
        while n.parent is not None and not (
            base_category(n.label) == "S" and n.end >= span.end
        ):
            n = self.nodes[n.parent]
        return Span(n.start, n.end)


def _apply_key(item: tuple[StandoffAnnotation, MNTag | None]) -> tuple:
    # Lower precedence first, so higher precedence overwrites.
    a, tag = item
    rank = specificity_rank(tag) if tag is not None and a.family == MN_FAMILY else 0
    return (-rank, a.span.start, a.span.end, a.label)


@dataclass(eq=False)
class _Grafted:
    annotation: StandoffAnnotation
    outcome: str
    nodes: list[int]  # indices of the nodes it was put on, whose ``applied`` lists hold it
    seq: int
    label: str  # composition may rewrite it
    tag: MNTag | None  # ``label`` parsed


def graft(
    tree: ParseTree,
    annotations: Sequence[StandoffAnnotation],
    config: GraftConfig | None = None,
) -> tuple[ParseTree, GraftReport]:
    """Merge annotations into the tree; see the module docstring.

    The result is independent of the input annotation order.
    """
    config = config or GraftConfig()
    shadow = _Shadow(tree)
    report = GraftReport()

    for a in annotations:
        if a.span.end > shadow.size:
            raise ValueError(f"annotation span {a.span} outside sentence of {shadow.size} tokens")
        if a.family not in config.family_order:
            raise ValueError(f"annotation family {a.family!r} not in family order")

    grafted: list[_Grafted] = []
    for family in config.family_order:
        batch = [
            (a, parse_tag(a.label) if a.label in TAG_SPELLINGS else None)
            for a in annotations
            if a.family == family
        ]
        for a, tag in sorted(batch, key=_apply_key):
            nodes = shadow.same_span_chain(a.span)
            if nodes:
                outcome = "overlaid" if any(n.applied for n in nodes) else "grafted-exact"
            elif (where := shadow.adjacent_daughters(a.span)) is not None:
                outcome, nodes = "grafted-inserted", [shadow.insert(*where, a.label)]
            else:
                outcome = "crossing-skipped"
            g = _Grafted(a, outcome, [n.index for n in nodes], len(grafted), a.label, tag)
            for n in nodes:
                n.applied.append(g)
            grafted.append(g)

    _compose(shadow, grafted)

    for g in grafted:
        report.bump(g.outcome)

    return _render(shadow.root), report


def _compose(shadow: _Shadow, grafted: list[_Grafted]) -> None:
    mn = [g for g in grafted if g.annotation.family == MN_FAMILY and g.tag]
    triggers = [
        g for g in mn if g.tag.role is Role.TRIGGER and g.tag.modality is not Modality.NEGATION
    ]
    negations = [
        g for g in mn if g.tag.role is Role.TRIGGER and g.tag.modality is Modality.NEGATION
    ]
    negations.sort(key=lambda g: g.annotation.span.start)

    for neg in negations:
        nspan = neg.annotation.span
        clause = shadow.minimal_clause(nspan)
        adjacent = [
            t
            for t in triggers
            if clause.covers(t.annotation.span)
            and (
                t.annotation.span.end == nspan.start
                or nspan.end == t.annotation.span.start
                or _siblings(shadow, t, neg)
            )
        ]
        if not adjacent:
            continue
        # Prefer the trigger just before the negation (a modal), else after.
        adjacent.sort(
            key=lambda t: (t.annotation.span.end != nspan.start, t.annotation.span.start)
        )
        trig_tag = adjacent[0].tag
        rewrote = False
        for g in mn:
            if (
                g.tag.role is Role.TARGET
                and g.tag.modality is trig_tag.modality
                and not g.tag.outer_not
                and clause.covers(g.annotation.span)
            ):
                g.tag = compose_negation(g.tag, True)
                g.label = str(g.tag)
                rewrote = True
        if rewrote:
            neg.outcome = "composed"

    # Raw Negation targets left on words that carry other tags are
    # uncomposable nested modality; remove them.
    for g in mn:
        if g.tag.role is Role.TARGET and g.tag.modality is Modality.NEGATION:
            applied = [shadow.nodes[i].applied for i in g.nodes]
            if any(other is not g for records in applied for other in records):
                g.outcome = "dropped-uncomposable"
                for records in applied:
                    records.remove(g)


def _siblings(shadow: _Shadow, a: _Grafted, b: _Grafted) -> bool:
    nodes = shadow.nodes
    return any(
        nodes[i].parent is not None and nodes[i].parent == nodes[j].parent
        for i in a.nodes
        for j in b.nodes
    )


def _final_label(n: _GNode) -> str | None:
    if not n.applied:
        return None
    chosen = max(n.applied, key=lambda g: g.seq)
    # Trigger-vs-target conflicts are adjudicated within the MN
    # family only; a later family's tag stands.
    if getattr(chosen.tag, "role", None) is Role.TRIGGER:
        targets = [g for g in n.applied if getattr(g.tag, "role", None) is Role.TARGET]
        if targets:
            chosen = max(targets, key=lambda g: g.seq)
    return chosen.label


def _render(n: _GNode) -> ParseTree:
    """The output subtree for ``n``: the input subtree itself where graft
    changed nothing in it, so the output shares every such subtree."""
    tag = _final_label(n)
    source = n.source
    if source is None:
        # An inserted node whose tag was dropped keeps the label it was
        # inserted with, for traceability, rather than vanish.
        kids = tuple([_render(c) for c in n.children])
        return ParseTree(n.label if tag is None else tag, kids, None)
    if not n.children:
        return source if tag is None else ParseTree(f"{n.label}-{tag}", (), source.token)
    kids = tuple([_render(c) for c in n.children])
    if tag is not None:
        return ParseTree(f"{n.label}-{tag}", kids, None)
    if len(kids) == len(source.children) and all(map(is_, kids, source.children)):
        return source
    return ParseTree(n.label, kids, None)
