import copy
import dataclasses
import pickle
import random

import pytest

from conftest import DATA, STAGE_AUXILIARIES, corpus_words, stage_tree
from mntag import rulegen
from mntag.lexicon import lookup
from mntag.rulegen import preprocess, word_tokens
from mntag.standoff import StandoffAnnotation, format_standoff, parse_standoff
from mntag.tags import TAG_INVENTORY, parse_tag, specificity_rank
from mntag.taggers import (
    agreement,
    fold_markers,
    parse_inline,
    read_token_tsv,
    render_inline,
    tag_string,
    tag_structure,
)
from mntag.trees import ParseTree, Span, flatten, has_label_segment, iter_nodes, read_ptb, write_ptb

FIG1_TOKENS = [
    ("Americans", "NNPS"), ("should", "MD"), ("know", "VB"), ("that", "IN"),
    ("we", "PRP"), ("can", "MD"), ("not", "RB"), ("hand", "VB"), ("over", "RP"),
    ("Dr.", "NNP"), ("Khan", "NNP"), ("to", "TO"), ("them", "PRP"), (".", "."),
]

FIG1_INLINE = (
    "Americans <TrigRequire should> <TargRequire know> that we <TrigAble can>"
    " <TrigNegation not> <TargNOTAble hand> over Dr. Khan to them ."
)


def _by_token(tokens, annotations):
    out = {}
    for a in annotations:
        for i in range(a.span.start, a.span.end):
            out.setdefault(tokens[i][0] if isinstance(tokens[i], tuple) else tokens[i], set()).add(a.label)
    return out


def test_string_tagger_reproduces_first_example(seed_lexicon):
    result = tag_string(FIG1_TOKENS, seed_lexicon)
    tags = _by_token(FIG1_TOKENS, result.annotations)
    assert tags == {
        "should": {"TrigRequire"},
        "know": {"TargRequire"},
        "can": {"TrigAble"},
        "not": {"TrigNegation"},
        "hand": {"TargNOTAble"},
    }
    rendered = render_inline([t for t, _ in FIG1_TOKENS], result.annotations)
    assert rendered == FIG1_INLINE


def test_string_tagger_no_lexicon_words(seed_lexicon):
    result = tag_string([("the", "DT"), ("cat", "NN"), ("sat", "VBD")], seed_lexicon)
    assert result.annotations == []
    assert all(not t.tags for t in result.tokens)


def test_string_tagger_trigger_without_verb_records_diagnostic(seed_lexicon):
    result = tag_string([("we", "PRP"), ("should", "MD"), ("win", "NN")], seed_lexicon)
    labels = {a.label for a in result.annotations}
    assert labels == {"TrigRequire"}
    assert any("should" in d for d in result.diagnostics)


def test_string_tagger_skips_auxiliary_targets(seed_lexicon):
    tokens = [("A", "DT"), ("solution", "NN"), ("must", "MD"), ("be", "VB"),
              ("found", "VBN"), (".", ".")]
    result = tag_string(tokens, seed_lexicon)
    tags = _by_token(tokens, result.annotations)
    assert tags == {"must": {"TrigBelief"}, "found": {"TargBelief"}}


def test_string_tagger_against_exhaustive_oracle(seed_lexicon):
    corpus = [
        FIG1_TOKENS,
        [("He", "PRP"), ("need", "MD"), ("not", "RB"), ("go", "VB"), (".", ".")],
        [("Tents", "NNS"), ("were", "VBD"), ("provided", "VBN"), (".", ".")],
        [("We", "PRP"), ("can", "MD"), ("solve", "VB"), ("this", "DT"), (".", ".")],
        [("He", "PRP"), ("did", "VBD"), ("not", "RB"), ("go", "VB"), (".", ".")],
    ]
    for sentence in corpus:
        got = {(a.span.start, a.span.end, a.label) for a in tag_string(sentence, seed_lexicon).annotations}
        assert got == _string_oracle(sentence, seed_lexicon)


def _string_oracle(sentence, lexicon):
    """Re-derivation of the string-tagging contract, written separately:
    try every entry at every offset, then apply the target heuristic and
    the between-composition rule."""
    from mntag.taggers import is_auxiliary_token
    from mntag.rulegen import VERBAL_POS
    from mntag.tags import Modality

    triggers = []  # (start, end, modality)
    for i in range(len(sentence)):
        for entry, (s, e) in lookup(lexicon, sentence, i):
            triggers.append((s, e, entry.modality))
    pairs = []  # (trigger, target_index) for all triggers
    for s, e, modality in triggers:
        target = None
        for j in range(e, len(sentence)):
            if sentence[j][1] in VERBAL_POS and not is_auxiliary_token(sentence, j):
                target = j
                break
        pairs.append(((s, e, modality), target))
    out = set()
    composed_targets = {}
    consumed_negs = set()
    for (s, e, modality), target in pairs:
        if modality is not Modality.NEGATION:
            continue
        straddling = [
            ((s2, e2, m2), t2)
            for (s2, e2, m2), t2 in pairs
            if m2 is not Modality.NEGATION and t2 is not None and e2 <= s and e <= t2
        ]
        if straddling:
            (s2, e2, m2), t2 = max(straddling, key=lambda p: p[0][1])
            composed_targets[(t2, m2)] = True
            consumed_negs.add((s, e))
    for (s, e, modality), target in pairs:
        out.add((s, e, "Trig" + modality.value))
        if target is None:
            continue
        if modality is Modality.NEGATION:
            if (s, e) not in consumed_negs:
                out.add((target, target + 1, "TargNegation"))
        else:
            name = "TargNOT" + modality.value if composed_targets.get((target, modality)) else "Targ" + modality.value
            out.add((target, target + 1, name))
    return out


def test_structure_tagger_embedded_target(seed_rules):
    tree = read_ptb(
        "(TOP (S (NP (DT A) (NN solution)) (VP (MD must) (VP (VB be)"
        " (VP (VBN found) (PP (TO to) (NP (DT this) (NN problem)))))) (. .)))"
    )[0]
    result = tag_structure(preprocess(flatten(tree)), seed_rules)
    got = {(a.span.start, a.label) for a in result.annotations}
    assert got == {(2, "TrigBelief"), (4, "TargBelief")}
    text = write_ptb(result.tree)
    assert "(MD-TrigBelief must)" in text and "(VBN-TargBelief found)" in text and "(VB be)" in text


def test_structure_tagger_untouched_without_triggers(seed_rules):
    tree = preprocess(flatten(read_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")[0]))
    result = tag_structure(tree, seed_rules)
    assert result.annotations == []
    assert result.tree == read_ptb("(S (NP (DT the) (NN cat)) (VBD sat))")[0]


def test_structure_tagger_preserves_word_yield(seed_rules):
    tree = read_ptb(
        "(TOP (S (NP (PRP They)) (VP (VBD tried) (S (VP (TO to) (VP (VB reach)"
        " (NP (DT the) (NN border)))))) (. .)))"
    )[0]
    flat = flatten(tree)
    result = tag_structure(preprocess(flat), seed_rules)
    assert word_tokens(result.tree) == flat.tokens()
    got = _by_token(flat.tokens(), result.annotations)
    assert got["reach"] == {"TargEffort", "TrigSucceed"}
    assert got["border"] == {"TargSucceed"}


def test_shared_node_object_tags_like_a_copy(seed_rules):
    we = read_ptb("(NP (PRP We))")[0]
    # As read, and as flattened, where the modal rule fires.
    for middle in ("(VP (MD can) (VP (VB go)))", "(MD can) (VB go)"):
        shared = ParseTree("S", (we, *read_ptb(middle), we))
        copy = read_ptb(f"(S (NP (PRP We)) {middle} (NP (PRP We)))")[0]
        assert shared == copy
        got, want = tag_structure(shared, seed_rules), tag_structure(copy, seed_rules)
        assert (got.tree, got.annotations) == (want.tree, want.annotations)
    assert [a.label for a in got.annotations] == ["TrigAble", "TargAble"]
    assert write_ptb(got.tree) == "(S (NP (PRP We)) (MD-TrigAble can) (VB-TargAble go) (NP (PRP We)))"


def _reference_fold_markers(tree: ParseTree, annotations) -> ParseTree:
    """The ``fold_markers`` that built every internal node anew, kept as
    the reference."""
    by_span = {}
    for a in annotations:
        by_span.setdefault(a.span, []).append(a.label)

    def fold(node, start):
        if node.is_leaf:
            return node, start + 1
        markers, kept, end = [], [], start
        for c in node.children:
            if rulegen.is_marker_leaf(c):
                markers.append(c.label)
            else:
                c, end = fold(c, end)
                kept.append(c)
        label = node.label
        if end > start and not all(l in (rulegen.AUX_MARKER, rulegen.PASSIVE_MARKER) for l in markers):
            labels = by_span.get(Span(start, end), [])
            for suffix in sorted(set(labels), key=lambda l: (specificity_rank(parse_tag(l)), l)):
                if not has_label_segment(label, suffix):
                    label += "-" + suffix
        if len(kept) == 1 and kept[0].is_leaf and kept[0].label == kept[0].token:
            return ParseTree(label, (), kept[0].token), end
        return ParseTree(label, tuple(kept), None), end

    return fold(tree, 0)[0]


def _paths(tree, path=()):
    yield path
    for k, child in enumerate(tree.children):
        yield from _paths(child, path + (k,))


def test_fold_markers_matches_the_reference_and_returns_what_it_keeps():
    rng = random.Random(2026)
    words = corpus_words() + STAGE_AUXILIARIES
    tags = [role + base for role in ("Trig", "Targ") for base in TAG_INVENTORY]
    kept = folded = suffixed = 0
    for _ in range(2500):
        tree = stage_tree(rng, words)
        # Tags on the word spans of some nodes, as the tagger records them.
        spans = [rulegen.word_spans(tree, path) for path in _paths(tree)]
        annotations = [
            StandoffAnnotation(0, span, rng.choice(tags))
            for span in rng.sample(spans, min(3, len(spans)))
            if span is not None
        ]
        out = fold_markers(tree, annotations)
        assert out == _reference_fold_markers(tree, annotations)
        # A subtree comes back as itself exactly when the fold changes
        # nothing in it; annotations change only nodes that hold markers.
        for node in iter_nodes(tree):
            sub = fold_markers(node, annotations)
            assert (sub is node) == (sub == node)
        kept += out is tree
        folded += out is not tree
        suffixed += any("-T" in n.label for n in iter_nodes(out))
    assert kept > 500 and folded > 500 and suffixed > 200


def test_fold_markers_returns_marker_free_subtrees_as_they_are():
    tree = read_ptb("(S (NP (DT the) (NN cat)) (MD can TrigAble) (VB go TargAble) (. .))")[0]
    annotations = [
        StandoffAnnotation(0, Span(2, 3), "TrigAble"),
        StandoffAnnotation(0, Span(3, 4), "TargAble"),
    ]
    out = fold_markers(tree, annotations)
    assert write_ptb(out) == "(S (NP (DT the) (NN cat)) (MD-TrigAble can) (VB-TargAble go) (. .))"
    assert out.children[0] is tree.children[0] and out.children[3] is tree.children[3]
    free = read_ptb("(S (NP (DT the) (NN cat)) (VBD sat))")[0]
    assert fold_markers(free, annotations) is free


def test_render_inline_basics():
    anns = [StandoffAnnotation(0, Span(1, 2), "TrigRequire")]
    assert render_inline(["We", "should", "go"], anns) == "We <TrigRequire should> go"
    assert render_inline(["plain", "words"], []) == "plain words"


def test_render_inline_nests_by_rank():
    anns = [
        StandoffAnnotation(0, Span(0, 1), "TargAble"),
        StandoffAnnotation(0, Span(0, 1), "TargNegation"),
        StandoffAnnotation(0, Span(0, 1), "TrigSucceed"),
    ]
    assert render_inline(["reach"], anns) == "<TrigSucceed <TargAble <TargNegation reach>>>"


def test_inline_round_trip_multiword():
    anns = [
        StandoffAnnotation(0, Span(1, 3), "TrigWant"),
        StandoffAnnotation(0, Span(4, 5), "TargWant"),
    ]
    text = render_inline(["I", "hope", "for", "a", "promotion"], anns)
    assert text == "I <TrigWant hope for> a <TargWant promotion>"
    tokens, parsed = parse_inline(text)
    assert tokens == ["I", "hope", "for", "a", "promotion"]
    assert parsed == sorted(anns, key=StandoffAnnotation.sort_key)


def test_inline_round_trip_random(seed_lexicon, seed_rules):
    rng = random.Random(5)
    sentences = [
        FIG1_TOKENS,
        [("He", "PRP"), ("need", "MD"), ("not", "RB"), ("go", "VB"), (".", ".")],
        [("She", "PRP"), ("hopes", "VBZ"), ("for", "IN"), ("a", "DT"), ("promotion", "NN")],
    ]
    for sentence in sentences:
        result = tag_string(sentence, seed_lexicon)
        text = render_inline([t for t, _ in sentence], result.annotations)
        tokens, parsed = parse_inline(text)
        assert tokens == [t for t, _ in sentence]
        assert sorted(parsed, key=StandoffAnnotation.sort_key) == sorted(
            result.annotations, key=StandoffAnnotation.sort_key
        )


def test_standoff_tsv_round_trip():
    anns = [
        StandoffAnnotation(0, Span(1, 2), "TrigAble", "MN"),
        StandoffAnnotation(3, Span(0, 2), "GPE", "NE"),
    ]
    text = format_standoff(anns)
    assert parse_standoff(text) == sorted(anns, key=StandoffAnnotation.sort_key)
    assert parse_standoff("") == []


def test_standoff_annotation_is_frozen_and_slotted():
    ann = StandoffAnnotation(0, Span(1, 2), "TrigAble", "MN")
    assert not hasattr(ann, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ann.label = "TrigWant"
    # Some Pythons raise TypeError here: the slotted class is a copy of the
    # one its generated ``__setattr__`` names.
    with pytest.raises((AttributeError, TypeError)):
        ann.other = 1


def test_standoff_annotation_copies_and_pickles_to_an_equal_value():
    ann = StandoffAnnotation(300, Span(2, 5), "TargNOTAble", "MN")
    for clone in (copy.copy(ann), copy.deepcopy(ann), pickle.loads(pickle.dumps(ann))):
        assert clone == ann and hash(clone) == hash(ann)
        assert (clone.sentence, clone.span, clone.label, clone.family) == (
            300, Span(2, 5), "TargNOTAble", "MN"
        )


def test_one_parse_standoff_call_shares_equal_labels_and_families():
    text = (DATA / "golden_standoff.tsv").read_text() + (DATA / "ne_sample.tsv").read_text()
    anns = parse_standoff(text + text)
    for field in ("label", "family"):
        values = [getattr(a, field) for a in anns]
        assert len({id(v) for v in values}) == len(set(values)) < len(values)
    assert {a.family for a in anns} == {"MN", "NE"}


def test_agreement_identical_and_disjoint():
    anns = [StandoffAnnotation(0, Span(0, 1), "TrigAble")]
    report = agreement(anns, anns)
    assert report.overlap_rate == 100.0
    other = [StandoffAnnotation(0, Span(0, 1), "TrigWant")]
    assert agreement(other, anns).overlap_rate == 0.0
    assert agreement([], []).overlap_rate == 100.0


def test_taggers_never_emit_firm_belief_without_trigger(seed_lexicon, seed_rules):
    # The no-trigger default is represented by absence of annotations.
    result = tag_string([("Tents", "NNS"), ("were", "VBD"), ("provided", "VBN")], seed_lexicon)
    assert result.annotations == []
    tree = preprocess(flatten(read_ptb("(S (NP (NNS Tents)) (VP (VBD were) (VP (VBN provided))))")[0]))
    assert tag_structure(tree, seed_rules).annotations == []


AGREEMENT_BASELINE = 59.72222222222222


def test_string_vs_structure_agreement_baseline(seed_lexicon, seed_rules):
    """Regression pin for the corpus-specific overlap of the two taggers;
    the string tagger misses inflected triggers by design."""
    from conftest import DATA
    from mntag.trees import read_ptb_file

    trees = read_ptb_file(DATA / "corpus_trees.ptb")
    sentences = read_token_tsv((DATA / "corpus_tokens.tsv").read_text())
    string_anns, structure_anns = [], []
    for i, (tree, sentence) in enumerate(zip(trees, sentences)):
        string_anns.extend(tag_string(sentence, seed_lexicon, sentence=i).annotations)
        structure_anns.extend(
            tag_structure(preprocess(flatten(tree)), seed_rules, sentence=i).annotations
        )
    report = agreement(string_anns, structure_anns)
    assert report.overlap_rate == pytest.approx(AGREEMENT_BASELINE)


# ---------------------------------------------------------------------------
# Random rule sets


INSERT_LABELS = ["TrigAble", "TargAble", "Ins"]
AUGMENT_SUFFIXES = ["TargNegation", "Aug"]


def _corpus_words() -> list[str]:
    from mntag.matcher import is_plain_word

    return [w for w in corpus_words() if is_plain_word(w)]


def _random_rule_text(rng: random.Random, k: int, labels: list[str], words: list[str]) -> str:
    """One rule record: a captured head over ``labels`` guarded against
    its own insert, up to three `<`, `$..` or `!<` clauses over
    ``labels`` and ``words`` (the labels hold insert labels and
    augmented labels) or regexes, and an insert or augment action,
    sometimes both.  A head never tests a word: inserting under a word's
    preterminal makes a new leaf of that word, which the head would
    match again, without end."""
    captures = ["c0"]

    def test(capture: bool, atoms: list[str] = labels + words) -> str:
        r = rng.random()
        if r < 0.2:
            text = f"/^{rng.choice('NVSJ')}/"
        elif r < 0.35:
            text = "|".join(rng.sample(atoms, 2))
        else:
            text = rng.choice(atoms)
        if capture and rng.random() < 0.4:
            captures.append(f"c{len(captures)}")
            text += "=" + captures[-1]
        return text

    insert = rng.choice(INSERT_LABELS)
    parts = [test(False, labels) + "=c0"]
    actions = []
    if rng.random() < 0.6:
        parts.append(f"!< {insert}")
        actions.append(f"insert ({insert}) >{rng.randint(1, 2)} c0")
    for _ in range(rng.randint(0, 3)):
        relation = rng.choice(["<", "<", "$..", "!<"])
        inner = test(relation != "!<")
        if rng.random() < 0.3:
            inner = f"({inner} < {test(relation != '!<')})"
        parts.append(f"{relation} {inner}")
    if not actions or rng.random() < 0.3:
        actions.append(f"augment {rng.choice(captures)} {rng.choice(AUGMENT_SUFFIXES)}")
    return "\n".join([f"rule r{k}", " ".join(parts), *actions])


def test_match_equals_the_walk_on_random_rule_sets():
    """``match`` finds what trying every node finds, on the trees the
    tagger hands it: the relabelled tree and each rewrite of it."""
    from conftest import PHRASE_LABELS, POS_LABELS, random_tree, with_words
    from mntag.matcher import RewriteBudgetError, _walk, apply, match, parse_rules

    def found(matches):
        return [(m.root, m.captures, m.paths) for m in matches]

    rng = random.Random(11)
    vocabulary = _corpus_words()
    labels = PHRASE_LABELS + POS_LABELS
    created = INSERT_LABELS + [f"{l}-{s}" for l in labels for s in AUGMENT_SUFFIXES]
    rejected = matched = 0
    for _ in range(300):
        words = rng.sample(vocabulary, 6)
        atoms = labels + rng.sample(created, 6) + ["ZZZ"]
        rules = parse_rules(
            "\n\n".join(
                _random_rule_text(rng, k, atoms, words) for k in range(rng.randint(2, 7))
            )
        )
        for _ in range(3):
            tree = with_words(random_tree(rng, max_nodes=14), rng, words)
            for rule in rules:
                want = found(_walk(rule, tree))
                got = found(match(rule, tree))
                assert got == want
                rejected += any(tree.atoms.isdisjoint(alts) for alts in rule.needs)
                matched += bool(got)
                try:
                    tree = apply(rule, tree)
                except RewriteBudgetError:
                    pass
    assert rejected > 0 and matched > 0
