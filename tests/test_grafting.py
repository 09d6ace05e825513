import gc
import random
from dataclasses import dataclass
from operator import is_

import pytest

from conftest import DATA, random_tree
from mntag.grafting import (
    OUTCOMES,
    GraftConfig,
    GraftReport,
    SpanCase,
    _apply_key,
    _Shadow,
    classify_span,
    graft,
)
from mntag.standoff import StandoffAnnotation, parse_standoff
from mntag.tags import TAG_SPELLINGS, Modality, Role, compose_negation, parse_tag
from mntag.trees import ParseTree, Span, base_category, iter_nodes, read_ptb, write_ptb

COMPOSITION_TREE = (
    "(S (NP (EX there)) (VP (VBZ is) (NP (NP (DT no) (NN difficulty))"
    " (SBAR (WHNP (WDT which)) (S (VP (MD can) (RB not) (VP (VB be) (VP (VBN solved)))))))))"
)

COMPOSITION_EXPECTED = (
    "(S (NP (EX there)) (VP (VBZ is) (NP (NP (DT no) (NN difficulty))"
    " (SBAR (WHNP (WDT which)) (S (VP (MD-TrigAble can) (RB-TrigNegation not)"
    " (VP (VB be) (VP-TargNOTAble (VBN-TargNOTAble solved)))))))))"
)


def mn(sentence, start, end, label):
    return StandoffAnnotation(sentence, Span(start, end), label, "MN")


def ne(sentence, start, end, label):
    return StandoffAnnotation(sentence, Span(start, end), label, "NE")


def test_graft_negation_composition_exact_tree():
    tree = read_ptb(COMPOSITION_TREE)[0]
    anns = [mn(0, 5, 6, "TrigAble"), mn(0, 6, 7, "TrigNegation"), mn(0, 8, 9, "TargAble")]
    out, report = graft(tree, anns)
    assert write_ptb(out) == COMPOSITION_EXPECTED
    assert report.counts["composed"] == 1
    assert report.counts["grafted-exact"] == 2
    assert report.total == 3


def test_graft_tags_whole_same_span_chain():
    tree = read_ptb(COMPOSITION_TREE)[0]
    out, _ = graft(tree, [mn(0, 8, 9, "TargAble")])
    text = write_ptb(out)
    assert "(VP-TargAble (VBN-TargAble solved))" in text


def test_graft_overlay_ne_then_mn():
    tree = read_ptb("(S (NP (NNP Pakistan)) (VP (VBD won)))")[0]
    out, report = graft(tree, [ne(0, 0, 1, "GPE"), mn(0, 0, 1, "TargSucceed")])
    assert write_ptb(out) == "(S (NP-TargSucceed (NNP-TargSucceed Pakistan)) (VP (VBD won)))"
    assert report.counts["overlaid"] == 1
    assert report.counts["grafted-exact"] == 1


def test_graft_empty_annotations_identity():
    tree = read_ptb(COMPOSITION_TREE)[0]
    out, report = graft(tree, [])
    assert out is tree
    assert report.total == 0


def test_graft_output_shares_every_subtree_it_did_not_change():
    tree = read_ptb(
        "(TOP (S (S (NP (NNP Khan)) (VP (MD can) (VP (VB go))))"
        " (CC and) (S (NP (PRP he)) (VP (VBD stayed)))))"
    )[0]
    first, cc, second = tree.children[0].children
    out, _ = graft(tree, [mn(0, 1, 2, "TrigAble"), mn(0, 2, 3, "TargAble")])
    assert write_ptb(out) == (
        "(TOP (S (S (NP (NNP Khan)) (VP (MD-TrigAble can) (VP-TargAble (VB-TargAble go))))"
        " (CC and) (S (NP (PRP he)) (VP (VBD stayed)))))"
    )
    out_first, out_cc, out_second = out.children[0].children
    assert out_second is second and out_cc is cc
    assert out_first is not first and out_first.children[0] is first.children[0]
    # An inserted node changes its parent, not the daughters it takes.
    out, report = graft(tree, [mn(0, 3, 6, "TargWant")])
    assert report.counts["grafted-inserted"] == 1
    out_first, inserted = out.children[0].children
    assert out_first is first
    assert inserted.label == "TargWant" and inserted.children[0] is cc
    assert inserted.children[1] is second


def test_graft_inserts_node_for_adjacent_daughters():
    tree = read_ptb("(S (NP (DT the) (JJ big) (NN cat) (NN nap)))")[0]
    out, report = graft(tree, [ne(0, 0, 2, "GPE")])
    assert write_ptb(out) == "(S (NP (GPE (DT the) (JJ big)) (NN cat) (NN nap)))"
    assert report.counts["grafted-inserted"] == 1


def test_graft_crossing_span_leaves_tree_unchanged():
    tree = read_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat) (RB down)))")[0]
    out, report = graft(tree, [mn(0, 1, 3, "TargAble")])
    assert out == tree
    assert report.counts["crossing-skipped"] == 1


def test_graft_target_beats_trigger_regardless_of_order():
    tree = read_ptb("(S (VB reach))")[0]
    anns = [mn(0, 0, 1, "TrigSucceed"), mn(0, 0, 1, "TargEffort")]
    for ordering in (anns, anns[::-1]):
        out, _ = graft(tree, ordering)
        assert write_ptb(out) == "(S-TargEffort (VB-TargEffort reach))"


def test_graft_drops_uncomposable_negation_target():
    # A word that is both a raw negation target and a trigger keeps its
    # other tags; the raw negation target is removed.
    tree = read_ptb("(S (MD could) (RB not) (VB reach) (ADJP (JJ semi-final)))")[0]
    anns = [
        mn(0, 0, 1, "TrigAble"),
        mn(0, 1, 2, "TrigNegation"),
        mn(0, 2, 3, "TargAble"),
        mn(0, 2, 3, "TargNegation"),
        mn(0, 2, 3, "TrigSucceed"),
        mn(0, 3, 4, "TargSucceed"),
    ]
    out, report = graft(tree, anns)
    text = write_ptb(out)
    assert "(VB-TargNOTAble reach)" in text
    assert "TargNegation" not in text
    assert report.counts["dropped-uncomposable"] == 1
    assert report.counts["composed"] == 1


def test_graft_composes_the_golden_standoff_only_where_the_target_is_a_trigger():
    """Graft composes into a target word that is itself a trigger, which
    the structure tagger leaves raw (module docstring): that happens at
    corpus sentences 2 and 17 only."""
    corpus = read_ptb((DATA / "corpus_trees.ptb").read_text())
    golden = parse_standoff((DATA / "golden_standoff.tsv").read_text())
    for i, tree in enumerate(corpus):
        _, report = graft(tree, [a for a in golden if a.sentence == i])
        expected = 1 if i in (2, 17) else 0
        assert report.counts["composed"] == expected, i
        assert report.counts["dropped-uncomposable"] == expected, i


def test_graft_rejects_out_of_range_span():
    tree = read_ptb("(S (VB go))")[0]
    with pytest.raises(ValueError):
        graft(tree, [mn(0, 0, 5, "TargAble")])


def test_graft_family_order_matters_only_on_conflicts():
    tree = read_ptb("(S (NP (NNP Pakistan)) (VP (VBD won)))")[0]
    no_conflict = [ne(0, 0, 1, "GPE"), mn(0, 1, 2, "TargSucceed")]
    a, _ = graft(tree, no_conflict, GraftConfig(family_order=("NE", "MN")))
    b, _ = graft(tree, no_conflict, GraftConfig(family_order=("MN", "NE")))
    assert a == b
    conflict = [ne(0, 0, 1, "GPE"), mn(0, 0, 1, "TargSucceed")]
    a, _ = graft(tree, conflict, GraftConfig(family_order=("NE", "MN")))
    b, _ = graft(tree, conflict, GraftConfig(family_order=("MN", "NE")))
    assert a != b
    assert "GPE" in write_ptb(b) and "TargSucceed" in write_ptb(a)


@pytest.mark.parametrize("label", ["PER", "TrigAble"])
def test_graft_a_later_ne_label_stands_even_when_spelled_like_a_trigger(label):
    # Only MN labels are tags, so an NE label is never adjudicated as a
    # trigger against the MN target under it.
    tree = read_ptb("(S (NP (PRP he)) (VP (MD can) (VB go)))")[0]
    anns = [mn(0, 2, 3, "TargWant"), ne(0, 2, 3, label)]
    config = GraftConfig(family_order=("MN", "NE"))
    out, _ = graft(tree, anns, config)
    assert write_ptb(out) == f"(S (NP (PRP he)) (VP (MD can) (VB-{label} go)))"
    assert out == _reference_graft(tree, anns, config)[0]


def test_graft_config_rejects_a_family_named_twice():
    with pytest.raises(ValueError, match="family order MN,NE,MN names a family twice"):
        GraftConfig(family_order=("MN", "NE", "MN"))


def test_classify_span_cases():
    tree = read_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat) (RB down) (RB there) (RB now)))")[0]
    case, node = classify_span(tree, Span(0, 6))
    assert case is SpanCase.EXACT and node is tree
    case, node = classify_span(tree, Span(0, 2))
    assert case is SpanCase.EXACT
    assert node is tree.children[0]  # topmost of the NP chain
    assert classify_span(tree, Span(3, 5))[0] is SpanCase.ADJACENT_DAUGHTERS
    assert classify_span(tree, Span(1, 3))[0] is SpanCase.CROSSING
    with pytest.raises(ValueError):
        classify_span(tree, Span(4, 9))


def test_shared_node_object_grafts_like_a_copy():
    we = read_ptb("(NP (PRP We))")[0]
    vp = read_ptb("(VP (MD can) (VP (VB go)))")[0]
    shared = ParseTree("S", (we, vp, we), None)
    copy = read_ptb("(S (NP (PRP We)) (VP (MD can) (VP (VB go))) (NP (PRP We)))")[0]
    assert shared == copy
    anns = [
        ne(0, 0, 1, "PER"),
        ne(0, 3, 4, "ORG"),
        mn(0, 1, 2, "TrigAble"),
        mn(0, 2, 3, "TargAble"),
        mn(0, 1, 3, "TargRequire"),
        mn(0, 0, 2, "TargSucceed"),
    ]
    out, report = graft(shared, anns)
    want, want_report = graft(copy, anns)
    assert write_ptb(out) == write_ptb(want)
    assert report.counts == want_report.counts
    for start in range(4):
        for end in range(start + 1, 5):
            case, node = classify_span(shared, Span(start, end))
            want_case, want_node = classify_span(copy, Span(start, end))
            assert case is want_case and node == want_node


def _shadow_spans(shadow, n, start, spans):
    """(number, start, end) of every working-copy node, by counting leaves."""
    kids = shadow.children(n)
    end = start if kids else start + 1
    for k in kids:
        end = _shadow_spans(shadow, k, end, spans)
    spans.append((n, start, end))
    return end


def test_minimal_clause_matches_brute_force_after_insertions():
    rng = random.Random(4242)
    inserted = inner = 0
    for _ in range(300):
        tree = random_tree(rng, max_nodes=16)
        shadow = _Shadow(tree)
        n = shadow.size
        for _ in range(rng.randint(0, 4)):
            start = rng.randrange(n)
            where = shadow.adjacent_daughters(Span(start, rng.randint(start + 1, n)))
            if where is not None:
                shadow.insert(*where, rng.choice(["S", "X"]))
                inserted += 1
        spans = []
        _shadow_spans(shadow, 0, 0, spans)
        assert sorted(k for k, _, _ in spans) == list(range(len(shadow.source)))
        assert all((shadow.start[k], shadow.end[k]) == (s, e) for k, s, e in spans)
        clauses = [(e - s, s, e) for k, s, e in spans if base_category(shadow.label(k)) == "S"]
        for start in range(n):
            for end in range(start + 1, n + 1):
                covering = [c for c in clauses if c[1] <= start and end <= c[2]]
                want = Span(*min(covering)[1:]) if covering else Span(0, n)
                assert shadow.minimal_clause(Span(start, end)) == want
                inner += want != Span(0, n)
    assert inserted > 100 and inner > 500


def _classify_oracle(tree, span):
    """Yield-comparison oracle: compare token substrings, relying on the
    generator's unique tokens."""
    tokens = tree.tokens()
    want = tokens[span.start : span.end]
    nodes = list(iter_nodes(tree))
    for node in nodes:
        if node.tokens() == want:
            return SpanCase.EXACT
    for node in nodes:
        kids = node.children
        for i in range(len(kids)):
            for j in range(i, len(kids)):
                if j - i + 1 == len(kids):
                    continue
                joined = [t for k in kids[i : j + 1] for t in k.tokens()]
                if joined == want:
                    return SpanCase.ADJACENT_DAUGHTERS
    return SpanCase.CROSSING


def test_classify_span_matches_oracle_on_random_trees():
    rng = random.Random(8080)
    for _ in range(50):
        tree = random_tree(rng, max_nodes=12)
        n = len(tree.tokens())
        for start in range(n):
            for end in range(start + 1, n + 1):
                span = Span(start, end)
                assert classify_span(tree, span)[0] is _classify_oracle(tree, span)


MN_LABELS = ["TrigAble", "TargAble", "TrigRequire", "TargRequire", "TargNegation", "TrigNegation", "TargSucceed"]
NE_LABELS = ["GPE", "PER", "ORG"]


def random_annotations(rng, tree):
    n = len(tree.tokens())
    out = []
    for _ in range(rng.randint(0, 5)):
        start = rng.randrange(n)
        end = rng.randint(start + 1, min(n, start + 3))
        if rng.random() < 0.3:
            out.append(ne(0, start, end, rng.choice(NE_LABELS)))
        else:
            out.append(mn(0, start, end, rng.choice(MN_LABELS)))
    return out


def _semantic_suffix_count(label):
    segments = label.split("-")[1:]
    suffixes = set(MN_LABELS + NE_LABELS + ["TargNOTAble", "TargNOTRequire", "TargNOTSucceed"])
    return sum(1 for s in segments if s in suffixes)


def test_graft_properties_on_random_instances():
    rng = random.Random(1312)
    for _ in range(500):
        tree = random_tree(rng, max_nodes=12)
        anns = random_annotations(rng, tree)
        out, report = graft(tree, anns)
        assert out.tokens() == tree.tokens()
        before = sum(1 for _ in iter_nodes(tree))
        after = sum(1 for _ in iter_nodes(out))
        assert after - before == report.counts["grafted-inserted"]
        assert report.total == len(anns)
        for node in iter_nodes(out):
            assert _semantic_suffix_count(node.label) <= 1
        shuffled = anns[:]
        rng.shuffle(shuffled)
        again, report2 = graft(tree, shuffled)
        assert again == out
        assert report2.counts == report.counts


def test_crossing_only_annotations_never_change_random_trees():
    rng = random.Random(31337)
    checked = 0
    for _ in range(300):
        tree = random_tree(rng, max_nodes=12)
        n = len(tree.tokens())
        crossing = [
            Span(s, e)
            for s in range(n)
            for e in range(s + 1, n + 1)
            if classify_span(tree, Span(s, e))[0] is SpanCase.CROSSING
        ]
        if not crossing:
            continue
        span = rng.choice(crossing)
        out, report = graft(tree, [mn(0, span.start, span.end, "TargAble")])
        assert out == tree
        assert report.counts["crossing-skipped"] == 1
        checked += 1
    assert checked > 50


def test_graft_leaves_no_reference_cycles():
    # ``mn`` runs with the cycle collector paused, so a graft that left
    # cyclic garbage would hold every sentence's working copy to the end.
    corpus = read_ptb((DATA / "corpus_trees.ptb").read_text())
    annotations = parse_standoff((DATA / "golden_standoff.tsv").read_text())
    annotations += parse_standoff((DATA / "ne_sample.tsv").read_text())
    instances = [
        (tree, [a for a in annotations if a.sentence == i]) for i, tree in enumerate(corpus)
    ]
    rng = random.Random(99)
    for _ in range(300):
        tree = random_tree(rng, max_nodes=16)
        instances.append((tree, random_annotations(rng, tree)))
    gc.collect()
    gc.disable()
    try:
        for tree, anns in instances:
            graft(tree, anns)
            for a in anns:
                classify_span(tree, a.span)
            graft(tree, anns, as_text=True)
            past = len(tree.tokens()) + 1
            too_long = [mn(0, 0, past, "TargAble")]
            bad_calls = (
                (graft, (too_long,), {}),
                (graft, (too_long,), {"as_text": True}),
                (classify_span, (Span(0, past),), {}),
            )
            for call, args, kwargs in bad_calls:
                try:
                    call(tree, *args, **kwargs)
                except ValueError:  # the error path must leave no cycle either
                    continue
                raise AssertionError(f"{call.__name__} accepted a span past the sentence")
        assert gc.collect() == 0
    finally:
        gc.enable()


# The graft that built one ``_GNode`` per input node, rendered every node
# again and tested each negation against every record of its sentence,
# kept as the reference.


class _RefNode:
    __slots__ = ("label", "children", "index", "parent", "start", "end", "applied", "source")

    def __init__(self, nodes, label, children, start, end, source=None):
        self.label = label
        self.children = children
        self.index = len(nodes)
        self.parent = None
        self.start = start
        self.end = end
        self.applied = []
        self.source = source
        nodes.append(self)
        for c in children:
            c.parent = self.index


def _ref_build(node, nodes, leaves):
    start = len(leaves)
    children = [_ref_build(c, nodes, leaves) for c in node.children]
    new = _RefNode(nodes, node.label, children, start, start, node)
    if not children:
        leaves.append(new)
    new.end = len(leaves)
    return new


class _RefShadow:
    def __init__(self, tree):
        self.nodes, self.leaves = [], []
        self.root = _ref_build(tree, self.nodes, self.leaves)
        self.size = len(self.leaves)

    def parent(self, n):
        return None if n.parent is None else self.nodes[n.parent]

    def _spine(self, span):
        spine = []
        n = self.leaves[span.start]
        while n is not None and n.start == span.start and n.end <= span.end:
            spine.append(n)
            n = self.parent(n)
        return spine

    def same_span_chain(self, span):
        return [n for n in reversed(self._spine(span)) if n.end == span.end]

    def adjacent_daughters(self, span):
        top = self._spine(span)[-1]
        parent = self.parent(top)
        if parent is None:
            return None
        kids = parent.children
        i = j = kids.index(top)
        while j < len(kids) and kids[j].end < span.end:
            j += 1
        if j < len(kids) and kids[j].end == span.end:
            return parent, i, j
        return None

    def insert(self, parent, i, j, label):
        grabbed = parent.children[i : j + 1]
        new = _RefNode(self.nodes, label, list(grabbed), grabbed[0].start, grabbed[-1].end)
        parent.children[i : j + 1] = [new]
        new.parent = parent.index
        return new

    def minimal_clause(self, span):
        n = self.leaves[span.start]
        while n.parent is not None and not (
            base_category(n.label) == "S" and n.end >= span.end
        ):
            n = self.nodes[n.parent]
        return Span(n.start, n.end)


@dataclass(eq=False)
class _RefGrafted:
    """A graft record numbered in placement order: ``seq`` picks the latest."""

    annotation: StandoffAnnotation
    outcome: str
    nodes: list
    seq: int
    label: str
    tag: object


def _reference_graft(tree, annotations, config=None):
    config = config or GraftConfig()
    shadow = _RefShadow(tree)
    report = GraftReport()
    for a in annotations:
        if a.span.end > shadow.size:
            raise ValueError(f"annotation span {a.span} outside sentence of {shadow.size} tokens")
        if a.family not in config.family_order:
            raise ValueError(f"annotation family {a.family!r} not in family order")
    grafted = []
    for family in config.family_order:
        batch = [
            (a, parse_tag(a.label) if family == "MN" and a.label in TAG_SPELLINGS else None)
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
            g = _RefGrafted(a, outcome, [n.index for n in nodes], len(grafted), a.label, tag)
            for n in nodes:
                n.applied.append(g)
            grafted.append(g)
    _reference_compose(shadow, grafted)
    for g in grafted:
        report.bump(g.outcome)
    return _reference_render(shadow.root), report


def _reference_compose(shadow, grafted):
    mn = [g for g in grafted if g.tag]
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
                or _reference_siblings(shadow, t, neg)
            )
        ]
        if not adjacent:
            continue
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
                g.tag = compose_negation(g.tag)
                g.label = str(g.tag)
                rewrote = True
        if rewrote:
            neg.outcome = "composed"
    for g in mn:
        if g.tag.role is Role.TARGET and g.tag.modality is Modality.NEGATION:
            applied = [shadow.nodes[i].applied for i in g.nodes]
            if any(other is not g for records in applied for other in records):
                g.outcome = "dropped-uncomposable"
                for records in applied:
                    records.remove(g)


def _reference_siblings(shadow, a, b):
    nodes = shadow.nodes
    return any(
        nodes[i].parent is not None and nodes[i].parent == nodes[j].parent
        for i in a.nodes
        for j in b.nodes
    )


def _reference_final_label(n):
    if not n.applied:
        return None
    chosen = max(n.applied, key=lambda g: g.seq)
    if getattr(chosen.tag, "role", None) is Role.TRIGGER:
        targets = [g for g in n.applied if getattr(g.tag, "role", None) is Role.TARGET]
        if targets:
            chosen = max(targets, key=lambda g: g.seq)
    return chosen.label


def _reference_suffixed(label, tag):
    """``label`` with ``-tag``, unless its segments already hold the tag's."""
    segments, want = label.split("-"), tag.split("-")
    if any(segments[i : i + len(want)] == want for i in range(len(segments))):
        return label
    return f"{label}-{tag}"


def _reference_render(n):
    tag = _reference_final_label(n)
    source = n.source
    if source is None:
        kids = tuple([_reference_render(c) for c in n.children])
        return ParseTree(n.label if tag is None else tag, kids, None)
    label = n.label if tag is None else _reference_suffixed(n.label, tag)
    if not n.children:
        return source if label == n.label else ParseTree(label, (), source.token)
    kids = tuple([_reference_render(c) for c in n.children])
    unchanged = len(kids) == len(source.children) and all(map(is_, kids, source.children))
    if label == n.label and unchanged:
        return source
    return ParseTree(label, kids, None)


MODALITIES = ["Able", "Require", "Succeed", "Want"]


def composing_annotations(rng, tree):
    """``random_annotations`` plus modality triggers with a negation just
    after or just before them, and targets of the same modality or raw
    Negation targets, some over more than one word."""
    n = len(tree.tokens())
    out = random_annotations(rng, tree)
    for _ in range(rng.randint(0, 3)):
        modality = rng.choice(MODALITIES)
        at = rng.randrange(n)
        out.append(mn(0, at, at + 1, f"Trig{modality}"))
        near = at + 1 if rng.random() < 0.7 else at - 1
        if 0 <= near < n:
            out.append(mn(0, near, near + 1, "TrigNegation"))
        start = rng.randrange(n)
        end = rng.randint(start + 1, min(n, start + 3))
        out.append(mn(0, start, end, rng.choice([f"Targ{modality}", "TargNegation"])))
    return out


def _bare_only_child(label, word):
    return ParseTree(label, (ParseTree(word, (), word),), None)


#: Writer cases ``random_tree`` never makes: tokens holding brackets,
#: punctuation preterminals that gain a tag, tagged bare word leaves that
#: are only children (one already carries its tag, so its label stays its
#: token), an insert whose tag is dropped as uncomposable (under the
#: order MN,NE) and one-leaf trees.
WRITER_CASES = [
    (
        read_ptb(
            "(S (NP (NN x-LRB-y) (-LRB- -LRB-) (NN w-RRB-)) (VP (VB go) a-LRB-b c-RRB-d) (. .))"
        )[0],
        [mn(0, 0, 1, "TargAble"), mn(0, 4, 5, "TrigWant"), ne(0, 5, 6, "ORG")],
    ),
    (
        read_ptb(
            "(S (NP (NNP Khan) (, ,) (NNP Ali)) (VP (VBD won) (`` ``) (NN gold) ('' '')) (. .))"
        )[0],
        [mn(0, 1, 2, "TrigAble"), mn(0, 4, 5, "TrigSucceed"), mn(0, 6, 7, "TargAble")],
    ),
    (
        ParseTree(
            "S",
            (
                _bare_only_child("NP", "Khan"),
                _bare_only_child("VP", "wins-TargSucceed"),
                _bare_only_child("X", "today"),
            ),
        ),
        [ne(0, 0, 1, "PER"), mn(0, 1, 2, "TargSucceed")],
    ),
    (
        read_ptb("(S (NP (NNP Khan)) (VP (VB go) (NP (NNP Lahore)) (NP (NN today))))")[0],
        [mn(0, 1, 3, "TargNegation"), ne(0, 1, 3, "EVENT")],
    ),
    (ParseTree("NN", (), "dog"), [mn(0, 0, 1, "TargAble")]),
    (ParseTree("NN", (), "dog"), []),
]


def test_graft_matches_the_reference_graft_on_random_trees():
    rng = random.Random(1616)
    outcomes = dict.fromkeys(OUTCOMES, 0)
    inner = 0  # negations whose minimal clause is an S below the root
    orders = [("NE", "MN"), ("MN", "NE")]
    cases = [(tree, anns, GraftConfig(o)) for tree, anns in WRITER_CASES for o in orders]
    for _ in range(2500):
        tree = random_tree(rng, max_nodes=16)
        anns = composing_annotations(rng, tree)
        cases.append((tree, anns, GraftConfig(rng.choice(orders))))
    for tree, anns, config in cases:
        out, report = graft(tree, anns, config)
        want, want_report = _reference_graft(tree, anns, config)
        assert out == want
        assert write_ptb(out) == write_ptb(want)
        assert report.counts == want_report.counts
        text, text_report = graft(tree, anns, config, as_text=True)
        assert text == write_ptb(want)
        assert text_report.counts == want_report.counts
        for k, v in report.counts.items():
            outcomes[k] += v
        size = len(tree.tokens())
        shadow = _RefShadow(tree)
        inner += sum(
            shadow.minimal_clause(a.span) != Span(0, size)
            for a in anns
            if a.label == "TrigNegation"
        )
    assert all(v > 100 for v in outcomes.values()), outcomes
    assert inner > 200


def test_grafting_again_with_the_same_annotations_changes_nothing():
    rng = random.Random(2121)
    for _ in range(1000):
        tree = random_tree(rng, max_nodes=16)
        anns = composing_annotations(rng, tree)
        config = GraftConfig(rng.choice([("NE", "MN"), ("MN", "NE")]))
        once, _ = graft(tree, anns, config)
        twice, _ = graft(once, anns, config)
        assert twice is once
        assert _reference_graft(once, anns, config)[0] == once


def test_regrafting_the_golden_grafted_corpus_returns_it_byte_for_byte():
    # A tag a label already carries as a segment is not appended again.
    text = (DATA / "golden_grafted.ptb").read_text()
    annotations = parse_standoff((DATA / "golden_standoff.tsv").read_text())
    annotations += parse_standoff((DATA / "ne_sample.tsv").read_text())
    lines = []
    for i, tree in enumerate(read_ptb(text)):
        out, _ = graft(tree, [a for a in annotations if a.sentence == i])
        lines.append(write_ptb(out) + "\n")
    assert "".join(lines) == text


CONJUNCT = "(S (NP (NNP Khan)) (VP (MD can) (RB not) (VP (VB go) (PP (IN to) (NP (NNP Lahore))))))"
CONJUNCT_ANNOTATIONS = [
    ne(0, 0, 1, "PER"),
    mn(0, 1, 2, "TrigAble"),
    mn(0, 2, 3, "TrigNegation"),
    mn(0, 3, 4, "TargAble"),
    mn(0, 3, 4, "TrigSucceed"),
    mn(0, 5, 6, "TargSucceed"),
    ne(0, 5, 6, "GPE"),
]


def test_negation_composition_work_grows_linearly_with_sentence_length(monkeypatch):
    """Grafting 64 conjuncts as one sentence examines about as many
    (negation, candidate) pairs as grafting them as 64 sentences; a
    composer that tests each negation against every record of the
    sentence examines 64 times as many."""
    examined = [0]
    covers = Span.covers

    def counting_covers(self, other):
        examined[0] += 1
        return covers(self, other)

    monkeypatch.setattr(Span, "covers", counting_covers)
    conjuncts = 64
    single = read_ptb(f"(TOP {CONJUNCT})")[0]
    width = len(single.tokens()) + 1  # the conjunction follows
    out, _ = graft(single, CONJUNCT_ANNOTATIONS)
    alone = examined[0] * conjuncts
    assert alone > 0

    examined[0] = 0
    joined = read_ptb("(TOP (S " + " (CC and) ".join([CONJUNCT] * conjuncts) + "))")[0]
    anns = [
        StandoffAnnotation(0, Span(a.span.start + k * width, a.span.end + k * width), a.label, a.family)
        for k in range(conjuncts)
        for a in CONJUNCT_ANNOTATIONS
    ]
    joined_out, report = graft(joined, anns)
    assert report.counts["composed"] == conjuncts
    assert joined_out.children[0].children[::2] == (out.children[0],) * conjuncts
    assert examined[0] <= 2 * alone
