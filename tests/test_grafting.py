import gc
import random

import pytest

from conftest import DATA, random_tree
from mntag.grafting import GraftConfig, SpanCase, _Shadow, classify_span, graft
from mntag.taggers import StandoffAnnotation, parse_standoff
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


def _shadow_spans(node, start, spans):
    """(start, end) of every working-copy node, by counting leaves."""
    end = start + 1 if not node.children else start
    for child in node.children:
        end = _shadow_spans(child, end, spans)
    spans.append((node, start, end))
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
        _shadow_spans(shadow.root, 0, spans)
        assert all((g.start, g.end) == (s, e) for g, s, e in spans)
        clauses = [(e - s, s, e) for g, s, e in spans if base_category(g.label) == "S"]
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
            past = len(tree.tokens()) + 1
            bad_calls = ((graft, [mn(0, 0, past, "TargAble")]), (classify_span, Span(0, past)))
            for call, arg in bad_calls:
                try:
                    call(tree, arg)
                except ValueError:  # the error path must leave no cycle either
                    continue
                raise AssertionError(f"{call.__name__} accepted a span past the sentence")
        assert gc.collect() == 0
    finally:
        gc.enable()
