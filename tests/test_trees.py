import copy
import dataclasses
import pickle
import random
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import mntag.trees
from conftest import (
    DATA, STAGE_AUXILIARIES, corpus_words, iter_nodes, ptb_files, random_tree, stage_tree,
)
from mntag.rulegen import word_spans
from mntag.trees import (
    MAX_DEPTH,
    ParseTree,
    Preorder,
    PTBParseError,
    Span,
    add_suffix,
    base_category,
    build,
    flatten,
    has_label_segment,
    insert_leaf,
    read_preorder,
    read_ptb,
    rebuilt,
    unescape_token,
    write_preorder,
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
    # No atom at all, so no label read late either.
    with pytest.raises(PTBParseError, match=r"^line 1: empty node at offset 0$"):
        read_ptb("((DT a) (NN b))")


@pytest.mark.parametrize(
    "text, line, offset",
    [
        ("((DT the) NP)", 1, 0),
        ("((DT a) NP (NN b))", 1, 0),
        ("(S (NP a))\n(S\n ((DT a) NP))", 3, 15),
    ],
)
def test_read_label_after_a_child_rejected(text, line, offset):
    # Once read as (NP (DT the)): an atom after a child was taken as the label.
    with pytest.raises(PTBParseError) as err:
        read_ptb(text)
    assert str(err.value) == f"line {line}: missing label at offset {offset}"
    assert (err.value.line, err.value.offset) == (line, offset)


def _reference_read_ptb(text: str) -> list[ParseTree]:
    """The two-pass reader ``read_ptb`` replaced, kept as the reference:
    a ``re.Match`` and an offset per token.  One marked change: a node
    whose label comes after a child raises "missing label" when it
    closes, where this reader once took that atom as the label."""

    def line_of(offset):
        return text.count("\n", 0, offset) + 1

    def atom_leaf(atom):
        return ParseTree(atom, (), unescape_token(atom))

    trees = []
    stack = []
    for m in re.finditer(r"\(|\)|[^()\s]+", text):
        tok, offset = m.group(), m.start()
        if tok == "(":
            stack.append([None, [], offset, False])
        elif tok == ")":
            if not stack:
                raise PTBParseError("unbalanced ')'", offset, line_of(offset))
            label, items, open_offset, late_label = stack.pop()
            if label is None or not items:
                raise PTBParseError("empty node", open_offset, line_of(open_offset))
            if late_label:  # the marked change
                raise PTBParseError("missing label", open_offset, line_of(open_offset))
            if len(items) == 1 and isinstance(items[0], str):
                subtree = ParseTree(label, (), unescape_token(items[0]))
            else:
                children = tuple(
                    item if isinstance(item, ParseTree) else atom_leaf(item) for item in items
                )
                subtree = ParseTree(label, children, None)
            if stack:
                stack[-1][1].append(subtree)
            else:
                trees.append(subtree)
        else:
            if not stack:
                raise PTBParseError(
                    f"unexpected atom {tok!r} outside a tree", offset, line_of(offset)
                )
            if stack[-1][0] is None:
                stack[-1][0] = tok
                stack[-1][3] = bool(stack[-1][1])  # the marked change
            else:
                stack[-1][1].append(tok)
    if stack:
        raise PTBParseError("unbalanced '('", len(text), line_of(stack[0][2]))
    return trees


#: Punctuation preterminals, written parenthesized though label and token
#: coincide, as the reference writer below spells them.
_REFERENCE_PUNCT = {".", ",", ":", "``", "''", "#", "$", "-LRB-", "-RRB-"}


def _reference_write_ptb(tree: ParseTree, allow_bare: bool = False) -> str:
    """The recursive writer ``write_ptb`` replaced, with its leaf rule,
    kept as the reference: a lone bare atom would read back as a
    preterminal, so a bare word leaf is allowed only beside siblings."""
    kids = tree.children
    if not kids:
        token = tree.token.replace("(", "-LRB-").replace(")", "-RRB-")
        if tree.label == token and allow_bare and tree.label not in _REFERENCE_PUNCT:
            return token
        return f"({tree.label} {token})"
    parts = [_reference_write_ptb(c, len(kids) > 1) for c in kids]
    return f"({tree.label} {' '.join(parts)})"


def _read_outcome(read, text):
    try:
        return read(text)
    except PTBParseError as exc:
        return (str(exc), exc.line, exc.offset)


@settings(max_examples=500, deadline=None)
@given(ptb_files.map(lambda data: data.decode("utf-8", "replace")))
@example("((DT the) NP)")
@example("(S (A -LRB-) -RRB- (B x-y) a-b)\n")
@example("(S (NP a)\n(S\n")
@example("( DT  the )")
@example("(DT\nthe)")
@example("(DT the)(DT the)")
@example("((DT the))")
@example("(A b c)")
@example("(DT the")
@example("(A\x1cb)")
def test_read_ptb_matches_the_reference_reader(text):
    expected = _read_outcome(_reference_read_ptb, text)
    got = _read_outcome(read_ptb, text)
    assert got == expected
    if isinstance(got, list):
        assert [repr(t) for t in got] == [repr(t) for t in expected]


@pytest.mark.parametrize("chunk", [1, 2, 7])
@settings(max_examples=200, deadline=None)
@given(ptb_files.map(lambda data: data.decode("utf-8", "replace")))
@example("( NP")
@example("(\nNP")
@example("(S ((DT the) NP))")
@example("(S (S) (NP a))")
@example("(X ( NP (DT a)) (\nNP b c)\n(Y))")
@example("(S (NP a)) (VP (VB go)) x")
def test_read_ptb_in_small_chunks_matches_the_reference_reader(chunk, text):
    """A chunk ends just before a ``(``, so however small the chunks,
    no token is cut and every error keeps its message, line and offset."""
    expected = _read_outcome(_reference_read_ptb, text)
    with mock.patch.object(mntag.trees, "_CHUNK", chunk):
        got = _read_outcome(read_ptb, text)
    assert got == expected
    if isinstance(got, list):
        assert [repr(t) for t in got] == [repr(t) for t in expected]


@pytest.mark.parametrize("chunk", [1, 2, 7, mntag.trees._CHUNK])
@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(random_tree, st.randoms(use_true_random=False)), min_size=1, max_size=3))
def test_read_preorder_gives_the_lists_a_preorder_walk_of_the_tree_fills(chunk, forest):
    """Each record ``read_preorder`` yields holds, in every chunk size,
    what numbering the tree in preorder (``Preorder.of``) gives: the same
    labels, parents and ``after`` numbers, and the leaves themselves, but
    no internal node."""
    text = "\n".join(write_ptb(tree) for tree in forest) + "\n"
    with mock.patch.object(mntag.trees, "_CHUNK", chunk):
        records = list(read_preorder(text))
    assert len(records) == len(forest)
    for record, tree in zip(records, forest):
        want = Preorder.of(tree)
        assert record.nodes == [None if n.children else n for n in want.nodes]
        for field in ("labels", "parent", "after"):
            assert getattr(record, field) == getattr(want, field), field
        assert record.tree() == tree


def test_one_read_builds_each_label_spelling_once():
    """Equal labels within one ``read_ptb`` call are one string, however
    the bracket before them is spaced and whether they open a node, label
    a one-word node or are a bare word."""
    text = (
        (DATA / "corpus_trees.ptb").read_text()
        + (DATA / "golden_preprocessed.ptb").read_text()
        + "(S ( NP (DT a)) (\nNP b NP) (VP\t(VB go)))\n"
    )
    labels = [node.label for tree in read_ptb(text) for node in iter_nodes(tree)]
    assert len({id(label) for label in labels}) == len(set(labels)) < len(labels)


def test_read_ptb_peaks_close_to_what_it_keeps():
    """The text is tokenized a chunk at a time, so the tokens of the whole
    text are never held at once beside the trees built from them."""
    text = (DATA / "corpus_trees.ptb").read_text() * 40
    assert len(text) > 2 * mntag.trees._CHUNK
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        corpus = read_ptb(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 40 * len((DATA / "corpus_trees.ptb").read_text().splitlines())
    assert peak - start <= 1.2 * (kept - start)


def test_tree_is_frozen():
    tree = read_ptb("(S (NP (DT a)) b)")[0]
    for name in ("label", "children", "token", "atoms", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tree, name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(tree, name)
    assert tree.atoms == {"S", "NP", "DT", "a", "b"}
    assert write_ptb(tree) == "(S (NP (DT a)) b)"


def test_tree_value_semantics():
    leaf_a = ParseTree("DT", (), "a")
    assert repr(leaf_a) == "ParseTree(label='DT', children=(), token='a')"
    tree = ParseTree("NP", [leaf_a], None)
    assert tree.children == (leaf_a,) and type(tree.children) is tuple
    assert repr(tree) == (
        "ParseTree(label='NP', children=(ParseTree(label='DT', children=(), token='a'),),"
        " token=None)"
    )
    twin = ParseTree(label="NP", children=(ParseTree("DT", token="a"),))
    assert twin == tree and twin is not tree
    assert hash(twin) == hash(tree) == hash(("NP", (leaf_a,), None))
    assert len({tree, twin, leaf_a}) == 2
    assert tree != ParseTree("NP", (ParseTree("DT", (), "b"),), None)
    assert tree != ParseTree("NX", (leaf_a,), None)
    assert (tree == ("NP", (leaf_a,), None)) is False
    assert tree.__eq__("NP") is NotImplemented
    for clone in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert clone == tree and hash(clone) == hash(tree)
    assert ParseTree("DT", [], "a").children == ()


def test_trees_as_deep_as_the_reader_takes_compare_print_and_copy():
    """Equality, ``repr`` and ``deepcopy`` do not recurse per level, so a
    tree ``MAX_DEPTH`` internal nodes deep, the deepest that reads, works
    with each, and so does a pickle round trip."""
    text = "(X " * MAX_DEPTH + "a b" + ")" * MAX_DEPTH
    (tree,) = read_ptb(text)
    (twin,) = read_ptb(text)
    (other,) = read_ptb(text.replace("a b", "a c"))
    assert twin == tree and twin is not tree and other != tree
    assert copy.deepcopy(tree) is tree
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert repr(tree) == (
        "ParseTree(label='X', children=(" * MAX_DEPTH
        + "ParseTree(label='a', children=(), token='a'), "
        + "ParseTree(label='b', children=(), token='b')), token=None)"
        + ",), token=None)" * (MAX_DEPTH - 1)
    )
    (record,) = read_preorder(text)
    kept = copy.deepcopy(record)  # a record's lists are copied
    assert kept == record and kept.labels is not record.labels
    assert kept.tree() == tree


def test_the_writer_refuses_a_tree_nested_past_max_depth_as_the_reader_does():
    """Depth is a rule of the text: a hand-made tree ``MAX_DEPTH``
    internal nodes deep writes and reads back.  One a level deeper, which
    the reader refuses, the writer refuses too, as a tree and as
    hand-made preorder lists, with the reader's words."""

    def chain(depth):
        tree = ParseTree("a", (), "a")
        for _ in range(depth):
            tree = ParseTree("X", (tree,), None)
        return tree

    text = write_ptb(chain(MAX_DEPTH))
    assert text == "(X " * MAX_DEPTH + "(a a)" + ")" * MAX_DEPTH
    assert read_ptb(text) == [chain(MAX_DEPTH)]
    refusal = f"tree nested more than {MAX_DEPTH} levels deep"
    with pytest.raises(PTBParseError, match=refusal):
        read_ptb("(X " + text + ")")
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        write_ptb(chain(MAX_DEPTH + 1))
    depth = MAX_DEPTH + 1
    labels, nodes = ["X"] * depth + ["a"], [None] * depth + [ParseTree("a", (), "a")]
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        write_preorder(labels, nodes, [depth + 1] * (depth + 1))


def test_preorder_tree_builds_lists_nested_past_the_recursion_limit():
    """``build`` is a loop, not a recursion: hand-made lists of a chain
    three times as deep as Python's recursion limit build, and the tree
    holds the lists' leaf."""
    depth = 3 * sys.getrecursionlimit()
    leaf = ParseTree("a", (), "a")
    labels = ["X"] * depth + ["a"]
    nodes = [None] * depth + [leaf]
    record = Preorder(labels, nodes, list(range(-1, depth)), [depth + 1] * (depth + 1))
    node, levels = record.tree(), 0
    while node.children:
        (node,) = node.children
        assert node.label == labels[levels + 1]
        levels += 1
    assert levels == depth and node is leaf


#: Labels a node may be given: tags on phrase and word labels, a word
#: label over another's token, a bare word, and labels left unchanged.
_RELABELS = ["S", "NN", "VB-TargAble", "NP-TrigAble", "X", "w0", "w1"]


@settings(max_examples=300, deadline=None)
@given(
    st.builds(random_tree, st.randoms(use_true_random=False)),
    st.dictionaries(st.integers(0, 15), st.sampled_from(_RELABELS)),
)
@example(ParseTree("S", (ParseTree("NN", (), "w0"), ParseTree("VB", (), "w1"))), {1: "VB"})
@example(ParseTree("S", (ParseTree("NP", (ParseTree("NN", (), "w0"),)),)), {1: "X"})
def test_build_is_the_tree_the_lists_spell_and_keeps_every_unchanged_subtree(tree, relabel):
    """``build`` honours its lists: relabel some nodes of a tree's record,
    leaves among them, and the tree built from the lists is the one the
    writer writes from them, and each subtree with no relabeled node is
    the input's own object."""
    record = Preorder.of(tree)
    labels, nodes, after = record.labels.copy(), record.nodes, record.after
    for n, label in relabel.items():
        if n < len(labels):
            labels[n] = label
    out = build(labels, nodes, after)
    assert write_ptb(out) == write_preorder(labels, nodes, after)
    changed = [labels[n] != nodes[n].label for n in range(len(nodes))]
    for n, node in enumerate(Preorder.of(out).nodes):
        assert (node is nodes[n]) == (not any(changed[n : after[n]]))


@settings(max_examples=300, deadline=None)
@given(ptb_files.map(lambda data: data.decode("utf-8", "replace")))
@example("(S (A -LRB-) -RRB- (B x-y) a-b)\n")
@example("(S (NP a)) (VP (VB go)) (X (Y z))")
def test_build_of_every_record_read_is_the_tree_the_reference_reads(text):
    expected = _read_outcome(_reference_read_ptb, text)
    if isinstance(expected, list):
        got = [build(r.labels, r.nodes, r.after) for r in read_preorder(text)]
        assert got == expected
        assert [repr(t) for t in got] == [repr(t) for t in expected]


def test_one_read_builds_each_leaf_spelling_once():
    """Equal leaves within one ``read_ptb`` call are one node; two calls
    share none, so the lookup dies with its call."""
    # The preprocessed corpus adds bare word leaves: markers and the words beside them.
    text = (DATA / "corpus_trees.ptb").read_text() + (DATA / "golden_preprocessed.ptb").read_text()
    leaves = [leaf for tree in read_ptb(text + text) for leaf in tree.leaves()]
    spellings = {(leaf.label, leaf.token) for leaf in leaves}
    assert len({id(leaf) for leaf in leaves}) == len(spellings) < len(leaves)
    assert ("DT", "the") in spellings and ("AUX", "AUX") in spellings and ("is", "is") in spellings
    first, second = read_ptb(text), read_ptb(text)
    assert first == second
    assert not {id(leaf) for tree in first for leaf in tree.leaves()} & {
        id(leaf) for tree in second for leaf in tree.leaves()
    }


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


#: Pieces of labels and tokens, hazards to the text included: nothing,
#: whitespace the reader splits at, brackets and their escape spellings.
_ANY_PIECES = ["", " ", "\t", "\n", "\x1c", "\xa0", "(", ")", "-LRB-", "-RRB-", "a", "b", ".", "-"]
_any_text = st.one_of(
    st.text(max_size=4), st.lists(st.sampled_from(_ANY_PIECES), max_size=3).map("".join)
)


def _accepted(*args):
    """``ParseTree(*args)``, or None where it refuses them."""
    try:
        return ParseTree(*args)
    except ValueError:
        return None


@st.composite
def accepted_trees(draw, depth=0):
    """Trees of any labels and tokens ``ParseTree`` accepts, bare word
    leaves among them; a node it refuses is made again with the label
    ``X``, and a leaf it still refuses with the token ``w``."""
    label = draw(_any_text)
    if depth >= 3 or draw(st.booleans()):
        token = draw(st.one_of(st.just(label), _any_text))
        return _accepted(label, (), token) or _accepted("X", (), token) or ParseTree("X", (), "w")
    children = tuple(draw(st.lists(accepted_trees(depth=depth + 1), min_size=1, max_size=3)))
    return _accepted(label, children) or ParseTree("X", children)


def _tokens_unescaped(tree):
    if tree.children:
        return ParseTree(tree.label, tuple(map(_tokens_unescaped, tree.children)))
    return ParseTree(tree.label, (), unescape_token(tree.token))


@settings(max_examples=500, deadline=None)
@given(accepted_trees())
def test_every_tree_parse_tree_accepts_writes_text_that_reads_back(tree):
    """The one writer's text reads back as the tree, but that an escape
    spelling in a token, ``-LRB-`` or ``-RRB-``, reads back as the
    parenthesis it stands for, as the reader decodes it."""
    assert read_ptb(write_ptb(tree)) == [_tokens_unescaped(tree)]


@pytest.mark.parametrize("token", ["", " ", "a b", "a\tb", "\xa0", "a\n"])
def test_a_leaf_token_that_is_empty_or_holds_whitespace_is_refused(token):
    """Written, ``(NN )`` reads as an empty node and ``(NN a b)`` as two
    leaves."""
    with pytest.raises(ValueError, match="bad leaf token"):
        ParseTree("NN", (), token)
    assert ParseTree("SYM", (), "a(b)").token == "a(b)"  # the writer escapes parentheses


_WRITER_TOKENS = ["a", "b", ".", ",", "$", "``", "-LRB-", "-RRB-", "(", ")", "a(b", "x)"]
_WRITER_PHRASES = ["S", "NP", "VP"]


@st.composite
def writer_tree_strategy(draw, depth=0):
    """Trees with every leaf shape the writer tells apart: preterminals,
    bare word leaves, punctuation preterminals whose label is the token,
    tokens holding a parenthesis, and leaves that are only children or
    the root."""
    if depth >= 3 or draw(st.booleans()):
        token = draw(st.sampled_from(_WRITER_TOKENS))
        # A label spelled as the token, or as its escaped form, may be bare.
        spellings = {token, token.replace("(", "-LRB-").replace(")", "-RRB-")}
        spellings = sorted(x for x in spellings if "(" not in x and ")" not in x)
        label = draw(st.sampled_from(["DT", "-LRB-", "."] + spellings))
        return ParseTree(label, (), token)
    children = draw(st.lists(writer_tree_strategy(depth=depth + 1), min_size=1, max_size=3))
    return ParseTree(draw(st.sampled_from(_WRITER_PHRASES)), tuple(children), None)


@settings(max_examples=300, deadline=None)
@given(writer_tree_strategy())
@example(ParseTree("a", (), "a"))
@example(ParseTree(".", (), "."))
@example(ParseTree("VB", (ParseTree("hand", (), "hand"),), None))
@example(ParseTree("S", (ParseTree(".", (), "."), ParseTree("-LRB-", (), "-LRB-")), None))
@example(ParseTree("S", (ParseTree("a-LRB-b", (), "a(b"), ParseTree("x", (), ")")), None))
def test_write_ptb_matches_the_reference_writer(tree):
    assert write_ptb(tree) == _reference_write_ptb(tree)


@settings(max_examples=300, deadline=None)
@given(ptb_files.map(lambda data: data.decode("utf-8", "replace")))
@example("(S (. .) (-LRB- -LRB-) (X a) b)\n(VB hand)\n(S (VB hand) (NP a -RRB-))\n")
@example("(X -LRB-)\n(S (NP a-LRB-b c) (. .))\n(, ,)\n")
@example("(S (a a))\n(a a)\n(NP (DT the) (x x))\n")
def test_write_preorder_of_a_record_matches_the_reference_writer(text):
    """The records ``mn graft`` writes hold None for each internal node,
    unlike ``Preorder.of``'s; the writer reads only their leaves."""
    try:
        records = list(read_preorder(text))
    except PTBParseError:
        return
    trees = _reference_read_ptb(text)
    assert len(records) == len(trees)
    for record, tree in zip(records, trees):
        got = write_preorder(record.labels, record.nodes, record.after)
        assert got == _reference_write_ptb(tree)


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


def _reference_flatten(tree: ParseTree) -> ParseTree:
    """The ``flatten`` that built every internal node anew, kept as the
    reference."""

    def splices_out(child, parent_label):
        if child.is_leaf:
            return False
        child_base, parent_base = base_category(child.label), base_category(parent_label)
        if child_base == "VP":
            return parent_base in ("VP", "S")
        if child_base == "NP":
            return parent_base in ("PP", "NP")
        return False

    if tree.is_leaf:
        return tree
    children = [_reference_flatten(c) for c in tree.children]
    changed = True
    while changed:
        changed = False
        for i, child in enumerate(children):
            if splices_out(child, tree.label):
                children[i : i + 1] = list(child.children)
                changed = True
                break
    return ParseTree(tree.label, tuple(children), None)


def test_flatten_matches_the_reference_and_returns_what_it_keeps():
    rng = random.Random(2024)
    words = corpus_words() + STAGE_AUXILIARIES
    kept = spliced = 0
    for _ in range(2500):
        tree = stage_tree(rng, words)
        flat = flatten(tree)
        assert flat == _reference_flatten(tree)
        # A subtree comes back as itself exactly when nothing in it splices.
        for node in iter_nodes(tree):
            out = flatten(node)
            assert (out is node) == (out == node)
        kept += flat is tree
        spliced += flat is not tree
    assert kept > 500 and spliced > 500


def test_flatten_returns_a_tree_with_nothing_to_splice():
    tree = read_ptb("(S (NP (DT the) (NN cat)) (VBD sat) (PP (IN on) (DT the) (NN mat)))")[0]
    assert flatten(tree) is tree
    shell = read_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat) (PP (IN on) (NP (DT a) (NN mat)))))")[0]
    flat = flatten(shell)
    assert write_ptb(flat) == "(S (NP (DT the) (NN cat)) (VBD sat) (PP (IN on) (DT a) (NN mat)))"
    assert flat.children[0] is shell.children[0]
    assert flat.children[1] is shell.children[1].children[0]


def _paths(tree, path=()):
    yield path
    for k, child in enumerate(tree.children):
        yield from _paths(child, path + (k,))


def test_insert_leaf_under_an_internal_node():
    vp = read_ptb("(VP (VB go) (RB home))")[0]
    first = insert_leaf(vp, 0, "AUX")
    assert write_ptb(first) == "(VP AUX (VB go) (RB home))"
    assert first.children[1:] == vp.children and first.children[1] is vp.children[0]
    assert write_ptb(insert_leaf(vp, 1, "TrigAble")) == "(VP (VB go) TrigAble (RB home))"


def test_insert_leaf_past_the_end_goes_last():
    vp = read_ptb("(VP (VB go) (RB home))")[0]
    assert write_ptb(insert_leaf(vp, 9, "AUX")) == "(VP (VB go) (RB home) AUX)"
    assert insert_leaf(vp, 9, "AUX") == insert_leaf(vp, 2, "AUX")


def test_insert_leaf_under_a_preterminal_makes_its_word_a_bare_leaf():
    vb = read_ptb("(VB go)")[0]
    before = insert_leaf(vb, 0, "AUX")
    assert before == ParseTree("VB", (ParseTree("AUX", (), "AUX"), ParseTree("go", (), "go")))
    after = insert_leaf(vb, 1, "VoicePassive")
    assert write_ptb(after) == "(VB go VoicePassive)"
    assert read_ptb(write_ptb(after))[0] == after
    assert insert_leaf(vb, 5, "VoicePassive") == after
    assert vb == read_ptb("(VB go)")[0]


def test_rebuilt_returns_the_node_itself_when_nothing_changed():
    np = read_ptb("(NP (DT the) (NN cat))")[0]
    assert rebuilt(np, list(np.children)) is np
    assert rebuilt(np, np.children, "NP") is np
    leaf = np.children[0]
    assert rebuilt(leaf, []) is leaf
    assert rebuilt(leaf, (), "DT") is leaf


def test_rebuilt_builds_a_new_node_for_a_new_child_label_or_length():
    np = read_ptb("(NP (DT the) (NN cat))")[0]
    dog = ParseTree("NN", (), "dog")
    swapped = rebuilt(np, [np.children[0], dog])
    assert write_ptb(swapped) == "(NP (DT the) (NN dog))"
    assert swapped.children[0] is np.children[0]
    # An equal child that is another object still makes a new node.
    other_cat = ParseTree("NN", (), "cat")
    assert rebuilt(np, [np.children[0], other_cat]) is not np
    # A prefix of the node's own children is a change, not a match.
    prefix = rebuilt(np, np.children[:1])
    assert prefix is not np and write_ptb(prefix) == "(NP (DT the))"
    relabeled = rebuilt(np, np.children, "NP-PER")
    assert write_ptb(relabeled) == "(NP-PER (DT the) (NN cat))"
    assert relabeled.children is np.children


def test_rebuilt_keeps_a_leafs_token():
    leaf = ParseTree("MD", (), "should")
    tagged = rebuilt(leaf, (), "MD-TrigRequire")
    assert tagged == ParseTree("MD-TrigRequire", (), "should")


def test_base_category_keeps_an_escape_form_whole():
    assert base_category("VP-TargNOTAble") == "VP"
    assert base_category("-LRB-") == "-LRB-"


def test_add_suffix_appends_a_new_segment_and_skips_one_the_label_has():
    assert add_suffix("MD", "TrigRequire") == "MD-TrigRequire"
    assert add_suffix("MD-TrigRequire", "TrigRequire") == "MD-TrigRequire"
    assert add_suffix("NP-PER-TrigAble", "PER") == "NP-PER-TrigAble"
    # Segments are whole: a segment that only starts or ends alike is new.
    assert add_suffix("MD-TrigRequired", "TrigRequire") == "MD-TrigRequired-TrigRequire"
    assert add_suffix("NP-XPER", "PER") == "NP-XPER-PER"
    assert add_suffix("-LRB-", "PER") == "-LRB--PER"
    assert add_suffix("-LRB--PER", "PER") == "-LRB--PER"
    # A suffix of several segments is skipped where it stands whole.
    assert add_suffix("NP-B-PER", "B-PER") == "NP-B-PER"
    assert add_suffix("NP-B-X-PER", "B-PER") == "NP-B-X-PER-B-PER"


def _reference_has_segments(label, suffix):
    segments, want = label.split("-"), suffix.split("-")
    return any(segments[i : i + len(want)] == want for i in range(len(segments)))


@given(
    st.lists(st.sampled_from(["NP", "PER", "B", "", "TrigAble"]), min_size=1, max_size=5),
    st.lists(st.sampled_from(["NP", "PER", "B", "TrigAble"]), min_size=1, max_size=3),
)
def test_has_label_segment_matches_whole_segments(label_parts, suffix_parts):
    label, suffix = "-".join(label_parts), "-".join(suffix_parts)
    assert has_label_segment(label, suffix) == _reference_has_segments(label, suffix)


def test_spans_nest_or_are_disjoint():
    rng = random.Random(99)
    for _ in range(300):
        tree = random_tree(rng)
        spans = [word_spans(tree, path) for path in _paths(tree)]
        assert len(spans) == sum(1 for _ in iter_nodes(tree))
        assert spans[0] == Span(0, len(tree.tokens()))
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


def test_span_rejects_an_empty_or_negative_range_by_keyword_too():
    for start, end in ((3, 3), (4, 3), (-1, 2), (-2, -1)):
        with pytest.raises(ValueError, match=re.escape(f"bad span ({start}, {end})")):
            Span(start=start, end=end)


def test_a_preorder_record_compares_but_does_not_hash():
    """Its fields are lists: a record equals another of equal lists, and
    ``hash`` refuses it by its own name, not by a list's."""
    tree = read_ptb("(S (NP (DT the) (NN cat)) (VBD sat))")[0]
    record = Preorder.of(tree)
    assert record == Preorder.of(tree)
    with pytest.raises(TypeError, match="unhashable type: 'Preorder'"):
        hash(record)


def test_span_equality_and_hash_go_by_start_and_end():
    span = Span(1, 3)
    assert span == Span(start=1, end=3) and span is not Span(1, 3)
    assert span != Span(1, 4) and span != Span(0, 3)
    assert hash(span) == hash(Span(1, 3)) == hash((1, 3))
    assert len({span, Span(1, 3), Span(2, 3)}) == 2
    assert (span == (1, 3)) is False
    assert span.__eq__((1, 3)) is NotImplemented


def test_span_repr_names_its_fields():
    assert repr(Span(1, 99)) == "Span(start=1, end=99)"
    assert f"{Span(0, 2)}" == "Span(start=0, end=2)"


def test_span_covers():
    outer = Span(2, 6)
    assert outer.covers(outer)
    assert outer.covers(Span(2, 3)) and outer.covers(Span(5, 6))
    assert not outer.covers(Span(1, 3)) and not outer.covers(Span(5, 7))
    assert not Span(3, 4).covers(outer)


def test_span_copies_and_pickles_to_an_equal_value():
    span = Span(2, 5)
    for clone in (copy.copy(span), copy.deepcopy(span), pickle.loads(pickle.dumps(span))):
        assert clone == span and hash(clone) == hash(span)
        assert (clone.start, clone.end) == (2, 5)


def test_span_is_frozen_and_slotted():
    span = Span(0, 1)
    for name in ("start", "end", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(span, name, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(span, name)
    assert span == Span(0, 1)
    assert not hasattr(span, "__dict__")
