"""Shared fixtures and random generators for the test suite."""

from __future__ import annotations

import gc
import itertools
import random
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import strategies as st

from mntag.lexicon import Lexicon, load_lexicon_file
from mntag.matcher import PatternRule, parse_pattern
from mntag.rulegen import TemplateRegistry, default_registry
from mntag.trees import ParseTree, read_ptb

DATA = Path(__file__).parent / "data"

PHRASE_LABELS = ["S", "NP", "VP", "PP", "ADJP", "X"]
POS_LABELS = ["DT", "NN", "VB", "JJ", "RB", "MD"]


def random_tree(rng: random.Random, max_nodes: int = 12) -> ParseTree:
    """A random tree with at most ``max_nodes`` nodes and unique tokens,
    so yield-based oracles cannot be fooled by repeated words."""
    tokens = itertools.count()
    budget = [rng.randint(2, max_nodes)]

    def gen(depth: int) -> ParseTree:
        budget[0] -= 1
        if depth > 3 or budget[0] <= 1 or rng.random() < 0.3:
            tok = f"w{next(tokens)}"
            if rng.random() < 0.15:
                return ParseTree(tok, (), tok)  # bare word leaf
            return ParseTree(rng.choice(POS_LABELS), (), tok)
        width = rng.randint(1, min(3, budget[0]))
        children = tuple(gen(depth + 1) for _ in range(width))
        return ParseTree(rng.choice(PHRASE_LABELS), children, None)

    return gen(0)


def with_words(tree: ParseTree, rng: random.Random, words: list[str]) -> ParseTree:
    """``tree`` with each token replaced by one of ``words``."""
    if tree.is_leaf:
        word = rng.choice(words)
        return ParseTree(word if tree.label == tree.token else tree.label, (), word)
    return ParseTree(tree.label, tuple(with_words(c, rng, words) for c in tree.children))


#: Labels for ``stage_tree``: Penn verb tags, and phrase labels that
#: ``flatten`` splices or keeps, some with a function suffix.
STAGE_POS = ["VB", "VBD", "VBN", "VBZ", "VBG", "MD", "NN", "NNS", "DT", "RB", "JJ", "IN", "TO"]
STAGE_PHRASES = ["S", "S", "VP", "VP", "NP", "NP-SBJ", "PP", "SBAR", "ADJP"]
#: Preprocessing markers and tag strings, as the rules insert them.
STAGE_MARKERS = ["AUX", "VoicePassive", "TrigAble", "TargAble", "TrigNegation", "TargNOTRequire"]
#: Auxiliary forms, so that ``preprocess`` has auxiliaries to mark.
STAGE_AUXILIARIES = ["is", "was", "were", "be", "been", "have", "has", "had", "do", "did"]


def iter_nodes(tree: ParseTree) -> Iterator[ParseTree]:
    """All nodes in preorder (document order)."""
    stack = [tree]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def read_ptb_file(path) -> list[ParseTree]:
    """The trees of the PTB file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return read_ptb(fh.read())


def corpus_words() -> list[str]:
    """The distinct tokens of the 25-sentence corpus, sorted."""
    return sorted({t for tree in read_ptb_file(DATA / "corpus_trees.ptb") for t in tree.tokens()})


def stage_tree(rng: random.Random, words: list[str]) -> ParseTree:
    """A tree of the kind the structure tagger's stages meet: the shape
    of a ``random_tree`` relabelled with Penn tags and ``words`` at the
    leaves, and marker leaves put in beside some words and daughters."""

    def marker() -> ParseTree:
        label = rng.choice(STAGE_MARKERS)
        return ParseTree(label, (), label)

    def relabel(node: ParseTree) -> ParseTree:
        if node.is_leaf:
            word = rng.choice(words)
            if node.label == node.token:
                return ParseTree(word, (), word)
            if rng.random() < 0.2:
                return ParseTree(rng.choice(STAGE_POS), (ParseTree(word, (), word), marker()))
            return ParseTree(rng.choice(STAGE_POS), (), word)
        children = [relabel(c) for c in node.children]
        if rng.random() < 0.15:
            children.insert(rng.randint(0, len(children)), marker())
        return ParseTree(rng.choice(STAGE_PHRASES), tuple(children))

    return relabel(random_tree(rng, max_nodes=16))


PTB_TREES = [
    b"(TOP (S (NP (DT the) (NN cat)) (VP (VBD sat) (RB not))))\n",
    b"(S (NP (NNP Khan)) (VP (MD can) (VP (VB go))))\n",
    b"(X a (Y b c))\n",
]
_PTB_PIECES = [
    b"(", b")", b" ", b"\t", b"\n", b"S", b"NN", b"word", b"-LRB-", b"-RRB-", b"\xff", b"\xc3",
    "é".encode(),
    # Whitespace beyond space, tab and newline, and a one-word node, which
    # the reader takes as one token.
    b"\r", b"\x0b", b"\x0c", b"\x1c", "\x85".encode(), "\u00a0".encode(), "\u2003".encode(),
    b"(A b)",
    # A bracket with its label after it, which the reader also takes as one token.
    b"(NP", b"( NP", b"(\nVP",
]

#: Tree file contents: whole trees, or trees cut and mixed with brackets,
#: atoms, whitespace and bytes that are not UTF-8.
ptb_files = st.one_of(
    st.lists(st.sampled_from(PTB_TREES), max_size=4).map(b"".join),
    st.lists(st.sampled_from(PTB_TREES + _PTB_PIECES), max_size=16).map(b"".join),
)


def random_pattern_rule(rng: random.Random, tree: ParseTree) -> PatternRule:
    """A random pattern over the tree's own labels and tokens (plus
    misses), within the supported operator set."""
    labels = sorted({n.label for n in iter_nodes(tree)})
    tokens = sorted({n.token for n in iter_nodes(tree) if n.token is not None})
    atoms = labels + tokens + ["ZZZ"]
    counter = itertools.count()

    def simple(allow_capture: bool) -> str:
        r = rng.random()
        if r < 0.15:
            text = f"/^{rng.choice(labels)[:2]}/"
        elif r < 0.3 and len(atoms) >= 2:
            text = "|".join(rng.sample(atoms, 2))
        elif r < 0.75:
            text = rng.choice(labels)
        elif r < 0.95 and tokens:
            text = rng.choice(tokens)
        else:
            text = "ZZZ"
        if allow_capture and rng.random() < 0.5:
            text += f"=c{next(counter)}"
        return text

    parts = [simple(True)]
    for _ in range(rng.randint(0, 3)):
        relation = rng.choice(["<", "!<", "$.."])
        captures_ok = relation != "!<"
        if rng.random() < 0.4:
            inner = simple(captures_ok)
            if rng.random() < 0.5:
                inner += f" < {simple(captures_ok and rng.random() < 0.5)}"
            operand = f"({inner})"
        else:
            operand = simple(captures_ok)
        parts.append(f"{relation} {operand}")
    return parse_pattern(" ".join(parts))


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail the test that leaves the cycle collector paused, not a later one."""
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the cycle collector was left disabled"


@pytest.fixture(scope="session")
def seed_lexicon() -> Lexicon:
    from mntag.cli import seed_lexicon_path

    return load_lexicon_file(seed_lexicon_path())


@pytest.fixture(scope="session")
def registry() -> TemplateRegistry:
    return default_registry()


@pytest.fixture(scope="session")
def seed_rules(seed_lexicon, registry):
    from mntag.rulegen import expand_templates

    return expand_templates(seed_lexicon, registry)
