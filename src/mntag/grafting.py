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

The working copy (``_Shadow``) holds no object per node.  It is the
tree's ``trees.Preorder`` record: flat lists indexed by the nodes'
preorder numbers, with each node's label, parent and the number after
its subtree, and each leaf's node.  ``mn graft`` grafts the records
``trees.read_preorder`` reads, so none of its input's internal nodes is
ever built; a tree is numbered by ``trees.Preorder.of``, whose record
holds every node.  Graft derives what only it reads from ``after``,
once per sentence in whole-list passes, with no loop statement: the
leaves' numbers, each node's span in leaves (``start`` and ``end``) and
the sentence length.  A sentence without annotations gets no working
copy: graft renders its input's record.
An inserted node is numbered after the input nodes, and only the two
nodes an insert touches get a child list of their own; the first
insert copies the record's lists it extends, so graft never changes a
record.  Graft records attach to node numbers through a dict.

The classification has one implementation, the working copy's
``spine`` and ``adjacent_daughters``; ``graft`` acts on it and
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
The order is one sort of one decorated tuple per annotation: the
family's place in the order, the negated rank, the span, the label and
the arrival index.  Each MN spelling's tag, negated rank and
composition list are read from one table, ``_PLACING``, made at import
from ``tags.specificity_rank``, so the precedence order has one
definition and no tag is parsed or ranked per annotation.  Placement
counts the outcomes as it goes; composition moves the counts it changes.

After grafting, a Negation trigger adjacent to a modality trigger in
the same minimal clause composes NOT into that modality's target
labels; then each raw Negation target on words that carry other tags
leaves its nodes as uncomposable nested modality.  This is the structure
tagger's composition made again by tree position, and it is kept for
the nested modality the tagger leaves raw (see ``taggers``): of the
25 golden test sentences it composes differently only at sentence 2,
"could not reach semi-final" (``VB-TargNOTAble reach``), and sentence
17, "did not want to succeed" (``VB-TargNOTWant succeed``).  Placement
files each MN record, in the same pass, in one of four lists: negation
triggers, other triggers, targets and negation targets.  Each list that
composition reads is sorted once, on its records' span starts.  Each
negation finds the triggers and targets its clause covers by bisecting
those lists, so it examines only the records inside its clause: a
sentence of many clauses costs each negation no more than its own
clause does.

A node with one record takes its label straight; ``_final_label``
settles a node with more.  The output is one record, ``_output``'s
``trees.Preorder`` lists: the working copy's own lists with graft's
labels, or, after an insert, lists numbered again in the output's own
preorder by one stack walk; without annotations, the input's record.
It is rendered one of two ways: ``trees.build`` of it is the output
tree, and with ``as_text`` ``trees.write_preorder``, the one PTB
writer, gives that tree's text without building a node, as ``mn
graft`` needs.  ``build`` keeps every input subtree the lists leave
unchanged, so the output shares with its input every subtree graft did
not change, and a regraft that changes nothing returns the input
itself.  Graft counts no depth: inserts may nest an output deeper than
the reader takes, and the writer refuses it as the reader would, on the
text path at once and on the tree path when the tree is written.

The working copy holds no reference cycle: its lists hold numbers,
labels and input nodes, and a graft record names the nodes it was put
on by number.  So refcounting frees each sentence's copy as soon as ``graft``
or ``classify_span`` returns or raises, and ``mn`` can run with the
cycle collector paused (see ``cli``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, compress
from operator import eq
from typing import Sequence

from .standoff import MN_FAMILY, NE_FAMILY, StandoffAnnotation
from .tags import TAGS, MNTag, Modality, Role, compose_negation, specificity_rank
from .trees import ParseTree, Preorder, Span, add_suffix, base_category, build, write_preorder

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
        order = ",".join(self.family_order)
        if "" in self.family_order:  # no standoff line carries an empty family
            raise ValueError(f"family order {order!r} names an empty family")
        if len(set(self.family_order)) != len(self.family_order):
            raise ValueError(f"family order {order} names a family twice")


@dataclass
class GraftReport:
    counts: dict[str, int] = field(default_factory=lambda: {k: 0 for k in OUTCOMES})

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
    shadow = _Shadow(Preorder.of(tree))
    if span.end > shadow.size:
        raise ValueError(f"span {span} outside sentence of {shadow.size} tokens")
    chain, top = shadow.spine(span.start, span.end)
    if chain:
        return SpanCase.EXACT, shadow.nodes[chain[-1]]
    if shadow.adjacent_daughters(top, span.end) is not None:
        return SpanCase.ADJACENT_DAUGHTERS, None
    return SpanCase.CROSSING, None


class _Shadow:
    """Working copy of a tree: its ``trees.Preorder`` record's lists,
    indexed by node number, the input nodes in preorder and then the
    inserted nodes in the order they were made, and the index graft
    derives from ``after``: ``leaves``, ``start``, ``end`` and ``size``.
    The record is never changed: the first insert copies the lists it
    extends.  It holds no reference cycle (see the module docstring)."""

    def __init__(self, record: Preorder):
        self.labels = record.labels
        self.nodes = record.nodes  # the input nodes the record holds
        self.parent = record.parent  # -1 at the root
        self.after = after = record.after  # input nodes only
        self.inputs = n = len(after)  # the number of the first inserted node
        is_leaf = list(map(eq, after, range(1, n + 1)))
        self.leaves = list(compress(range(n), is_leaf))  # the leaves' numbers, in order
        # The node's span: the leaves before it, and those before it or under it.
        self.start = start = list(accumulate(is_leaf, initial=0))
        self.end = [start[a] for a in after]
        self.size = start.pop()  # the entry past the last node, which ``end`` reads
        self.kids: dict[int, list[int]] = {}  # the children of the nodes an insert touched

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

    def spine(self, s: int, e: int) -> tuple[list[int], int]:
        """Walk up from leaf ``s`` through its ancestors that start at ``s``
        and end at or before ``e``: the nodes whose span is ``s..e``, the
        same-span chain, bottom first, and the last node walked."""
        start, end, parent = self.start, self.end, self.parent
        n = self.leaves[s]
        chain = []
        while True:
            if end[n] == e:
                chain.append(n)
            up = parent[n]
            if up < 0 or start[up] != s or end[up] > e:
                return chain, n
            n = up

    def adjacent_daughters(self, top: int, e: int) -> tuple[int, int, int] | None:
        """``(parent, i, j)`` when daughters ``i..j`` of ``parent`` cover
        exactly the span that ends at ``e`` and whose ``spine`` walk ends
        at ``top``, and are not all of its daughters; else None."""
        parent = self.parent[top]
        if parent < 0:
            return None
        # ``parent`` is off the spine, so it starts before the span or
        # ends after it: daughters i..j are never all of its daughters.
        kids, end = self.children(parent), self.end
        i = j = kids.index(top)
        while j < len(kids) and end[kids[j]] < e:
            j += 1
        if j < len(kids) and end[kids[j]] == e:
            return parent, i, j
        return None

    def insert(self, parent: int, i: int, j: int, label: str) -> int:
        """Put a node labeled ``label`` over daughters ``i..j`` of
        ``parent``; only it and ``parent`` get child lists of their own."""
        kids = self.children(parent)
        grabbed = kids[i : j + 1]
        new = len(self.labels)
        if new == self.inputs:  # the record's lists are not graft's to change
            self.labels, self.parent = self.labels.copy(), self.parent.copy()
        self.labels.append(label)
        self.parent.append(parent)
        self.start.append(self.start[grabbed[0]])
        self.end.append(self.end[grabbed[-1]])
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
            end[n] >= span.end and base_category(self.labels[n]) == "S"
        ):
            n = parent[n]
        return Span(self.start[n], end[n])


# The lists of MN records ``_compose`` reads, by their index in
# ``graft``'s ``filed``: modality triggers, modality targets, negation
# triggers and negation targets.
_TRIGGERS, _TARGETS, _NEGATIONS, _NEGATION_TARGETS = range(4)


def _filing(tag: MNTag) -> int:
    """The list a record of ``tag`` is filed in."""
    negation = tag.modality is Modality.NEGATION
    if tag.role is Role.TRIGGER:
        return _NEGATIONS if negation else _TRIGGERS
    return _NEGATION_TARGETS if negation else _TARGETS


#: Each MN tag spelling to its tag, its sort key and its list in
#: ``_compose``.  The key is ``-specificity_rank``, so lower precedence
#: sorts first and the highest lands last; a label that is no tag, and
#: every label of another family, keys 0 (``_UNTAGGED``) and is filed
#: nowhere.
_PLACING: dict[str, tuple[MNTag, int, int]] = {
    spelling: (tag, -specificity_rank(tag), _filing(tag)) for spelling, tag in TAGS.items()
}
_UNTAGGED = (None, 0, None)


@dataclass(eq=False, slots=True)
class _Grafted:
    span: Span
    outcome: str
    nodes: list[int]  # the numbers of the nodes it was put on
    label: str  # composition may rewrite it
    tag: MNTag | None  # ``label`` parsed, for an MN family label only


def graft(
    tree: ParseTree | Preorder,
    annotations: Sequence[StandoffAnnotation],
    config: GraftConfig | None = None,
    *,
    as_text: bool = False,
) -> tuple[ParseTree | str, GraftReport]:
    """Merge annotations into the tree; see the module docstring.

    The result is independent of the input annotation order.  With
    ``as_text`` the first item is not the output tree but the text
    ``write_ptb`` would give for it, written without building it.
    ``tree`` may also be a tree's ``trees.Preorder`` record, as ``mn
    graft`` reads them, with or without ``as_text``; graft does not
    change it.
    """
    config = config or GraftConfig()
    record = tree if tree.__class__ is Preorder else Preorder.of(tree)
    if not annotations:  # nothing to place: no working copy
        out = record.labels, record.nodes, record.after
        return (write_preorder(*out) if as_text else build(*out)), GraftReport()
    shadow = _Shadow(record)
    size = shadow.size

    # One decorated tuple per annotation, sorted once: families in order,
    # then lower precedence first, then by span and label, ties kept in
    # arrival order.
    tables = {
        family: (k, _PLACING if family == MN_FAMILY else {})
        for k, family in enumerate(config.family_order)
    }
    placing = []
    for i, a in enumerate(annotations):
        span = a.span
        if span.end > size:
            raise ValueError(f"annotation span {span} outside sentence of {size} tokens")
        family = tables.get(a.family)
        if family is None:
            order = ",".join(config.family_order)
            raise ValueError(f"annotation family {a.family!r} not in family order {order}")
        k, table = family
        label = a.label
        tag, key, filing = table.get(label, _UNTAGGED)
        placing.append((k, key, span.start, span.end, label, i, span, tag, filing))
    placing.sort()

    counts = dict.fromkeys(OUTCOMES, 0)
    filed: tuple[list[_Grafted], ...] = ([], [], [], [])
    applied: dict[int, list[_Grafted]] = {}  # node number -> the records put on it
    spine = shadow.spine
    for _, _, s, e, label, _, span, tag, filing in placing:
        nodes, top = spine(s, e)
        if nodes:
            # Records leave ``applied`` only in ``_compose``, after this.
            outcome = "overlaid" if any(map(applied.__contains__, nodes)) else "grafted-exact"
        else:
            where = shadow.adjacent_daughters(top, e)
            if where is None:
                outcome = "crossing-skipped"
            else:
                outcome, nodes = "grafted-inserted", [shadow.insert(*where, label)]
        counts[outcome] += 1
        g = _Grafted(span, outcome, nodes, label, tag)
        for n in nodes:
            applied.setdefault(n, []).append(g)
        if filing is not None:
            filed[filing].append(g)

    _compose(shadow, filed, applied, counts)

    labels = shadow.labels.copy()
    inputs = shadow.inputs
    for n, records in applied.items():
        if not records:
            continue  # every record dropped: the node keeps its label
        chosen = records[0].label if len(records) == 1 else _final_label(records)
        labels[n] = chosen if n >= inputs else add_suffix(labels[n], chosen)
    out = _output(shadow, labels)
    return (write_preorder(*out) if as_text else build(*out)), GraftReport(counts)


def _compose(
    shadow: _Shadow,
    filed: tuple[list[_Grafted], ...],
    applied: dict[int, list[_Grafted]],
    counts: dict[str, int],
) -> None:
    if filed[_NEGATIONS]:
        _compose_negations(shadow, filed, counts)

    # Raw Negation targets left on words that carry other tags are
    # uncomposable nested modality; remove them.
    for g in filed[_NEGATION_TARGETS]:
        records = [applied[n] for n in g.nodes]
        if any(other is not g for on_node in records for other in on_node):
            counts[g.outcome] -= 1
            counts["dropped-uncomposable"] += 1
            g.outcome = "dropped-uncomposable"
            for on_node in records:
                on_node.remove(g)


def _by_start(records: list[_Grafted]) -> tuple[list[int], list[_Grafted]]:
    """``records``' span starts, ascending, and the records in that
    order; records with one start stay in placement order."""
    decorated = sorted([(g.span.start, k, g) for k, g in enumerate(records)])
    return [d[0] for d in decorated], [d[2] for d in decorated]


def _compose_negations(
    shadow: _Shadow, filed: tuple[list[_Grafted], ...], counts: dict[str, int]
) -> None:
    """Compose each negation into the targets of the trigger it is
    adjacent to in its minimal clause.  The triggers and targets a clause
    covers are found by bisecting lists sorted by span start, so each
    negation looks only at records inside its clause."""
    trigger_starts, triggers = _by_start(filed[_TRIGGERS])
    target_starts, targets = _by_start(filed[_TARGETS])

    for neg in _by_start(filed[_NEGATIONS])[1]:
        nspan = neg.span
        clause = shadow.minimal_clause(nspan)
        first = bisect_left(trigger_starts, clause.start)
        stop = bisect_left(trigger_starts, clause.end, first)
        adjacent = [
            t
            for t in triggers[first:stop]
            if clause.covers(t.span)
            and (
                t.span.end == nspan.start
                or nspan.end == t.span.start
                or _siblings(shadow, t, neg)
            )
        ]
        if not adjacent:
            continue
        # Prefer the trigger just before the negation (a modal), else after;
        # ``min`` keeps the first of equals, so ties go by placement.
        trig_tag = min(adjacent, key=lambda t: (t.span.end != nspan.start, t.span.start)).tag
        first = bisect_left(target_starts, clause.start)
        stop = bisect_left(target_starts, clause.end, first)
        composed = False
        for g in targets[first:stop]:
            if (
                g.tag.modality is trig_tag.modality
                and not g.tag.outer_not
                and clause.covers(g.span)
            ):
                g.tag = compose_negation(g.tag)
                g.label = str(g.tag)
                composed = True
        if composed:
            counts[neg.outcome] -= 1
            counts["composed"] += 1
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


def _output(shadow: _Shadow, labels: list[str]) -> tuple[list, list, list]:
    """The output tree's ``labels``, ``nodes`` and ``after`` lists, as in
    ``trees.Preorder``; with inserts, numbered again in its own preorder,
    inserted nodes before the daughters they took (module docstring)."""
    inputs, nodes = shadow.inputs, shadow.nodes
    if len(labels) == inputs:
        return labels, nodes, shadow.after
    out_labels, out_nodes, out_after = [], [], []
    stack = [0]  # node numbers to number; ``~k`` closes the node numbered k
    while stack:
        n = stack.pop()
        if n < 0:
            out_after[~n] = len(out_after)
            continue
        k = len(out_after)
        out_labels.append(labels[n])
        out_nodes.append(nodes[n] if n < inputs else None)
        out_after.append(k + 1)
        kids = shadow.children(n)
        if kids:
            stack.append(~k)
            stack += reversed(kids)
    return out_labels, out_nodes, out_after
