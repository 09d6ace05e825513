import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tree
from mntag.trees import (
    ParseTree,
    PTBParseError,
    Span,
    base_category,
    flatten,
    iter_nodes,
    node_span,
    read_ptb,
    write_ptb,
)


def test_read_simple_tree():
    trees = read_ptb("(S (NP (DT A) (NN solution)))")
    assert len(trees) == 1
    assert trees[0].label == "S"
    assert trees[0].tokens() == ["A", "solution"]


def test_read_empty_input_gives_empty_list():
    assert read_ptb("") == []
    assert read_ptb("   \n  ") == []


def test_read_unbalanced_reports_offset():
    with pytest.raises(PTBParseError) as err:
        read_ptb("(S (NP A")
    assert err.value.offset == 8
    assert err.value.line == 1
    with pytest.raises(PTBParseError):
        read_ptb("(S (NP A)))")
    with pytest.raises(PTBParseError, match=r"^line 3: unbalanced '\)' at offset 32$"):
        read_ptb("(S (NP a))\n(S (NP b))\n(S (NP c)))\n")
    # A tree that never closes is named by the line it opens on.
    text = "(S (NP a))\n(S (NP b)\n\n"
    with pytest.raises(PTBParseError) as err:
        read_ptb(text)
    assert (err.value.line, err.value.offset) == (2, len(text))


def test_read_empty_node_rejected():
    with pytest.raises(PTBParseError):
        read_ptb("( )")
    with pytest.raises(PTBParseError):
        read_ptb("(X)")


def test_multiple_trees_and_sibling_tokens():
    trees = read_ptb("(DT A)\n(MD TrigAble could)")
    assert len(trees) == 2
    assert trees[0] == ParseTree("DT", (), "A")
    marker_node = trees[1]
    assert [c.token for c in marker_node.children] == ["TrigAble", "could"]
    assert write_ptb(marker_node) == "(MD TrigAble could)"


def test_write_leaf():
    assert write_ptb(ParseTree("DT", (), "A")) == "(DT A)"


def test_token_paren_escaping_round_trips():
    tree = ParseTree("X", (ParseTree("SYM", (), "("), ParseTree("SYM", (), "a)b")), None)
    text = write_ptb(tree)
    assert "-LRB-" in text and "-RRB-" in text and "(SYM" in text
    assert read_ptb(text)[0] == tree


def test_single_bare_word_child_round_trips():
    tree = ParseTree("VB", (ParseTree("hand", (), "hand"),), None)
    assert read_ptb(write_ptb(tree))[0] == tree


def test_round_trip_random_trees_seeded():
    rng = random.Random(20240)
    for _ in range(300):
        tree = random_tree(rng)
        assert read_ptb(write_ptb(tree))[0] == tree


@st.composite
def tree_strategy(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        label = draw(st.sampled_from(["DT", "NN", "VB", "X"]))
        token = draw(st.text(alphabet="ab()", min_size=1, max_size=3))
        return ParseTree(label, (), token)
    children = draw(st.lists(tree_strategy(depth=depth + 1), min_size=1, max_size=3))
    label = draw(st.sampled_from(["S", "NP", "VP"]))
    return ParseTree(label, tuple(children), None)


@settings(max_examples=200, deadline=None)
@given(tree_strategy())
def test_round_trip_hypothesis(tree):
    assert read_ptb(write_ptb(tree))[0] == tree


def test_flatten_splice_cases():
    tree = read_ptb("(S (NP x) (VP (MD must) (VP (VB be))))")[0]
    assert write_ptb(flatten(tree)) == "(S (NP x) (MD must) (VB be))"
    pp = read_ptb("(PP (IN in) (NP (DT a) (NN match)))")[0]
    assert write_ptb(flatten(pp)) == "(PP (IN in) (DT a) (NN match))"
    plain = read_ptb("(S (NP (DT the) (NN cat)) (VBD sat))")[0]
    assert flatten(plain) == plain


def test_flatten_reaches_fixpoint_on_deep_chains():
    tree = read_ptb("(S (VP (VP (VP (VB go)))))")[0]
    assert write_ptb(flatten(tree)) == "(S (VB go))"


def _count_nodes(tree):
    return sum(1 for _ in iter_nodes(tree))


def _flatten_oracle_ok(tree):
    """Independent recursive check: no VP under VP/S, no NP under PP/NP."""
    for node in iter_nodes(tree):
        for child in node.children:
            if child.is_leaf:
                continue
            if base_category(child.label) == "VP" and base_category(node.label) in ("VP", "S"):
                return False
            if base_category(child.label) == "NP" and base_category(node.label) in ("PP", "NP"):
                return False
    return True


def test_flatten_properties_random():
    rng = random.Random(77)
    for _ in range(300):
        tree = random_tree(rng, max_nodes=14)
        flat = flatten(tree)
        assert flat.tokens() == tree.tokens()
        assert _count_nodes(flat) <= _count_nodes(tree)
        assert _flatten_oracle_ok(flat)


def test_node_span_basics():
    tree = read_ptb("(S (NP (DT a) (NN cat)) (VP (VBD sat) (PRT (RP down)) (RB there)))")[0]
    assert node_span(tree, tree) == Span(0, 5)
    leaves = tree.leaves()
    assert node_span(tree, leaves[3]) == Span(3, 4)
    with pytest.raises(ValueError):
        node_span(tree, ParseTree("NN", (), "cat"))
    shared = ParseTree("NN", (), "cat")
    assert node_span(ParseTree("NP", (shared, shared)), shared) == Span(0, 1)


def test_spans_nest_or_are_disjoint():
    rng = random.Random(99)
    for _ in range(300):
        tree = random_tree(rng)
        spans = [node_span(tree, n) for n in iter_nodes(tree)]
        for a in spans:
            for b in spans:
                nested = a.covers(b) or b.covers(a)
                disjoint = a.end <= b.start or b.end <= a.start
                assert nested or disjoint


def test_label_validation():
    with pytest.raises(ValueError):
        ParseTree("bad label", (), "x")
    with pytest.raises(ValueError):
        ParseTree("", (), "x")
    with pytest.raises(ValueError):
        ParseTree("NP", (), None)  # internal-less node without token


def test_span_validation():
    with pytest.raises(ValueError):
        Span(3, 3)
    with pytest.raises(ValueError):
        Span(-1, 2)
