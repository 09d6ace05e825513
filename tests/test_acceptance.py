"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``)."""

import random
import time
from contextlib import contextmanager

from conftest import DATA, iter_nodes, random_pattern_rule, random_tree, read_ptb_file
from test_grafting import random_annotations
from test_matcher import engine_match_set, oracle_match_set
from test_tags import MENU_GOLDEN

from mntag.cli import main, seed_lexicon_path
from mntag.grafting import SpanCase, classify_span, graft
from mntag.lexicon import dump_lexicon, load_lexicon, load_lexicon_file
from mntag.rulegen import expand_templates, default_registry, preprocess, word_tokens
from mntag.standoff import StandoffAnnotation
from mntag.taggers import render_inline, tag_structure
from mntag.tags import TAG_INVENTORY, AnnotationChoice, menu_choice_to_tags, parse_tag
from mntag.trees import Span, flatten, read_ptb, write_ptb


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def _tag_corpus_sentence(index: int):
    lexicon = load_lexicon_file(seed_lexicon_path())
    rules = expand_templates(lexicon, default_registry())
    tree = read_ptb_file(DATA / "corpus_trees.ptb")[index]
    return tag_structure(preprocess(flatten(tree)), rules, sentence=index)


FIG1_S1 = (
    "Americans <TrigRequire should> <TargRequire know> that we <TrigAble can>"
    " <TrigNegation not> <TargNOTAble hand> over Dr. Khan to them ."
)
FIG1_S2 = (
    "He <TrigSucceed managed> to <TargSucceed hold> general elections in the year 2002"
    " , but he <TrigAble can> <TrigNegation not> <TargNOTAble be> ignorant of the fact"
    " that the world at large did <TrigNegation not> <TrigBelief accept> these"
    " <TargNOTBelief elections> ."
)


def test_criterion_1_inline_reproduction():
    with criterion(1, "structure tagger reproduces both inline tagging examples", 1.0):
        for index, expected in ((0, FIG1_S1), (1, FIG1_S2)):
            result = _tag_corpus_sentence(index)
            rendered = render_inline(word_tokens(result.tree), result.annotations)
            assert rendered == expected


def test_criterion_2_structure_tagger_tree_placements():
    with criterion(2, "all six tag placements on the tagged parse of the reach sentence", 1.0):
        result = _tag_corpus_sentence(2)
        tokens = word_tokens(result.tree)
        placements = {}
        for a in result.annotations:
            placements.setdefault(tokens[a.span.start], set()).add(a.label)
        assert placements == {
            "could": {"TrigAble"},
            "not": {"TrigNegation"},
            "reach": {"TargAble", "TrigSucceed", "TargNegation"},
            "semi-final": {"TargSucceed"},
        }
        suffixed = {n.label for n in iter_nodes(result.tree)}
        assert "MD-TrigAble" in suffixed and "RB-TrigNegation" in suffixed
        assert any(l.startswith("VB-") and "TargAble" in l and "TrigSucceed" in l for l in suffixed)
        assert "JJ-TargSucceed" in suffixed


EMBEDDED_SOURCE = (
    "(S (NP (DT A) (NN solution)) (VP (MD must) (VP (VB be)"
    " (VP (VBN found) (PP (TO to) (NP (DT this) (NN problem)))))))"
)
EMBEDDED_EXPECTED = (
    "(S (NP (DT A) (NN solution)) (VP (MD-TrigBelief must) (VP (VB be)"
    " (VP (VBN-TargBelief found) (PP (TO to) (NP (DT this) (NN problem)))))))"
)


def test_criterion_3_embedded_target():
    with criterion(3, "embedded target found behind auxiliary be, exact tree", 1.0):
        lexicon = load_lexicon_file(seed_lexicon_path())
        rules = expand_templates(lexicon, default_registry())
        original = read_ptb(EMBEDDED_SOURCE)[0]
        result = tag_structure(preprocess(flatten(original)), rules)
        assert {(a.span.start, a.label) for a in result.annotations} == {
            (2, "TrigBelief"),
            (4, "TargBelief"),
        }
        grafted, _ = graft(original, result.annotations)
        assert write_ptb(grafted) == EMBEDDED_EXPECTED


COMPOSITION_SOURCE = (
    "(S (NP (EX there)) (VP (VBZ is) (NP (NP (DT no) (NN difficulty))"
    " (SBAR (WHNP (WDT which)) (S (VP (MD can) (RB not) (VP (VB be) (VP (VBN solved)))))))))"
)
COMPOSITION_EXPECTED = (
    "(S (NP (EX there)) (VP (VBZ is) (NP (NP (DT no) (NN difficulty))"
    " (SBAR (WHNP (WDT which)) (S (VP (MD-TrigAble can) (RB-TrigNegation not)"
    " (VP (VB be) (VP-TargNOTAble (VBN-TargNOTAble solved)))))))))"
)


def test_criterion_4_graft_composition():
    with criterion(4, "negation composed during grafting, exact tree with chain propagation", 1.0):
        tree = read_ptb(COMPOSITION_SOURCE)[0]
        annotations = [
            StandoffAnnotation(0, Span(5, 6), "TrigAble", "MN"),
            StandoffAnnotation(0, Span(6, 7), "TrigNegation", "MN"),
            StandoffAnnotation(0, Span(8, 9), "TargAble", "MN"),
        ]
        grafted, report = graft(tree, annotations)
        assert write_ptb(grafted) == COMPOSITION_EXPECTED
        assert report.counts["composed"] == 1


def test_criterion_5_duality_golden_table():
    with criterion(5, "13x2 menu mapping canonical, duality rewrites, 33-tag inventory", 1.0):
        assert len(TAG_INVENTORY) == 33
        assert len(MENU_GOLDEN) == 26
        for (menu, polarity), expected in MENU_GOLDEN.items():
            trigger, target = menu_choice_to_tags(AnnotationChoice(menu, polarity))
            assert (str(trigger), str(target)) == expected
            for tag in (trigger, target):
                assert "RequireNegation" not in str(tag)
                assert "PermitNegation" not in str(tag)
                assert tag.base in TAG_INVENTORY


def test_criterion_6_matcher_oracle_equivalence():
    with criterion(6, "engine match sets equal brute-force oracle on 1000 pairs", 30.0):
        rng = random.Random(20_000)
        agreements = 0
        for _ in range(1000):
            tree = random_tree(rng, max_nodes=12)
            rule = random_pattern_rule(rng, tree)
            assert engine_match_set(rule, tree) == oracle_match_set(rule, tree)
            agreements += 1
        assert agreements == 1000


def test_criterion_7_grafting_properties():
    with criterion(7, "five grafting invariants hold on 1000 random instances", 30.0):
        rng = random.Random(30_000)
        for _ in range(1000):
            tree = random_tree(rng, max_nodes=12)
            annotations = random_annotations(rng, tree)
            out, report = graft(tree, annotations)
            assert out.tokens() == tree.tokens()
            delta = sum(1 for _ in iter_nodes(out)) - sum(1 for _ in iter_nodes(tree))
            assert delta == report.counts["grafted-inserted"]
            for ann in annotations:
                if classify_span(tree, ann.span)[0] is SpanCase.CROSSING and len(annotations) == 1:
                    assert out == tree
            for node in iter_nodes(out):
                semantic = [
                    seg for seg in node.label.split("-")[1:]
                    if seg in ("GPE", "PER", "ORG") or _is_tag(seg)
                ]
                assert len(semantic) <= 1
            shuffled = annotations[:]
            rng.shuffle(shuffled)
            again, report2 = graft(tree, shuffled)
            assert again == out and report2.counts == report.counts


def _is_tag(segment: str) -> bool:
    try:
        parse_tag(segment)
    except Exception:
        return False
    return True


def test_criterion_8_span_classification_oracle():
    from test_grafting import _classify_oracle

    with criterion(8, "classify_span equals yield-comparison oracle on all spans of 50 trees", 10.0):
        rng = random.Random(40_000)
        for _ in range(50):
            tree = random_tree(rng, max_nodes=12)
            n = len(tree.tokens())
            for start in range(n):
                for end in range(start + 1, n + 1):
                    span = Span(start, end)
                    assert classify_span(tree, span)[0] is _classify_oracle(tree, span)


def test_criterion_9_corpus_regression(tmp_path):
    with criterion(9, "25-sentence corpus matches committed golden standoff", 5.0):
        standoff = tmp_path / "standoff.tsv"
        code = main([
            "tag", "--mode", "structure", "--lexicon", seed_lexicon_path(),
            "--in", str(DATA / "corpus_trees.ptb"), "--out", str(tmp_path / "tagged.ptb"),
            "--standoff", str(standoff),
        ])
        assert code == 0
        assert standoff.read_bytes() == (DATA / "golden_standoff.tsv").read_bytes()


def test_criterion_10_round_trips():
    with criterion(10, "PTB, lexicon, and tag-string round trips all exact", 10.0):
        rng = random.Random(50_000)
        for _ in range(1000):
            tree = random_tree(rng, max_nodes=14)
            assert read_ptb(write_ptb(tree))[0] == tree
        seed = load_lexicon_file(seed_lexicon_path())
        assert load_lexicon(dump_lexicon(seed)).entries == seed.entries
        for base in TAG_INVENTORY:
            for prefix in ("Trig", "Targ"):
                assert str(parse_tag(prefix + base)) == prefix + base
