import random

from hypothesis import assume, given, settings, strategies as st
from mntag.lexicon import Lexicon, LexiconError, load_lexicon
import pytest

from conftest import random_tree

from mntag import rulegen
from mntag.matcher import match, parse_pattern, parse_rules, serialize_rules
from mntag.rulegen import (
    expand_templates,
    inflections,
    is_marker_leaf,
    load_registry,
    preprocess,
    word_spans,
    word_tokens,
)
from mntag.trees import ParseTree, Span, flatten, read_ptb, write_ptb


def test_preprocess_passive_clause():
    tree = read_ptb(
        "(S (NP (PRP They)) (VBD were) (VBN required) (S (TO to) (VB provide) (NP (NNS tents))))"
    )[0]
    out = preprocess(tree)
    text = write_ptb(out)
    assert "(VBD were AUX)" in text
    assert "(VBN required VoicePassive)" in text
    assert "(VB provide)" in text  # no marker


def test_preprocess_skips_copular_be():
    tree = read_ptb("(S (NP (PRP he)) (MD can) (RB not) (VB be) (ADJP (JJ ignorant)))")[0]
    out = preprocess(tree)
    assert "(VB be AUX)" not in write_ptb(out)
    tree2 = read_ptb("(S (NP (DT A) (NN solution)) (MD must) (VB be) (VBN found))")[0]
    assert "(VB be AUX)" in write_ptb(preprocess(tree2))


def test_preprocess_no_auxiliaries_is_identity():
    tree = read_ptb("(S (NP (DT the) (NN cat)) (VBD sat))")[0]
    assert preprocess(tree) == tree


def test_preprocess_is_idempotent():
    tree = read_ptb("(S (NP (NNS Tents)) (VBP are) (VBN needed))")[0]
    once = preprocess(tree)
    assert preprocess(once) == once


def test_perfect_have_is_not_passive():
    tree = read_ptb("(S (NP (PRP They)) (VBP have) (VBN required) (NP (NNS tents)))")[0]
    out = write_ptb(preprocess(tree))
    assert "VoicePassive" not in out
    assert "(VBP have AUX)" in out


_MARKERS = ["AUX", "VoicePassive", "TrigAble", "TargNOTRequire"]


def _with_markers(rng, tree):
    """Insert marker leaves at random, some wrapped in marker-only nodes."""
    if tree.is_leaf:
        return tree
    kids = [_with_markers(rng, c) for c in tree.children]
    for _ in range(rng.randint(0, 2)):
        label = rng.choice(_MARKERS)
        marker = ParseTree(label, (), label)
        if rng.random() < 0.3:
            marker = ParseTree("X", (marker,))
        kids.insert(rng.randint(0, len(kids)), marker)
    return ParseTree(tree.label, tuple(kids))


def _word_spans_oracle(tree):
    """Spans by path, found by counting the non-marker leaves before and
    inside each node; marker-only nodes map to None."""
    leaves = tree.leaves()
    out = {}
    stack = [(tree, ())]
    while stack:
        n, path = stack.pop()
        stack.extend((c, path + (k,)) for k, c in enumerate(n.children))
        inside = [l for l in n.leaves() if not is_marker_leaf(l)]
        if not inside:
            out[path] = None
            continue
        first = next(i for i, l in enumerate(leaves) if l is n.leaves()[0])
        before = sum(1 for l in leaves[:first] if not is_marker_leaf(l))
        out[path] = Span(before, before + len(inside))
    return out


def test_word_tokens_exclude_markers():
    tree = preprocess(read_ptb("(S (NP (NNS Tents)) (VBP are) (VBN needed))")[0])
    assert word_tokens(tree) == ["Tents", "are", "needed"]
    assert word_spans(tree, (2,)) == Span(2, 3)
    marker_paths = [p for p, s in _word_spans_oracle(tree).items() if s is None]
    assert marker_paths and all(word_spans(tree, p) is None for p in marker_paths)
    rng = random.Random(4242)
    marker_only = 0
    for _ in range(300):
        tree = _with_markers(rng, preprocess(random_tree(rng, max_nodes=14)))
        oracle = _word_spans_oracle(tree)
        assert {p: word_spans(tree, p) for p in oracle} == oracle
        marker_only += sum(1 for s in oracle.values() if s is None)
    assert marker_only > 100


def test_inflections_regular_and_override():
    lex = load_lexicon(
        "String: reach\nPos: VB\nModality: Succeed\nSubcat: T1-monotransitive-for-V3-verbs\n\n"
        "String: plan\nPos: VB\nModality: Intend\nSubcat: V3-I3-basic\nForms: plan plans planned planning\n\n"
        "String: may\nPos: MD\nModality: Permit\nSubcat: Modal-auxiliary-basic\n"
    )
    assert inflections(lex.entries[0]) == ("reach", "reaches", "reached", "reaching")
    assert inflections(lex.entries[1]) == ("plan", "plans", "planned", "planning")
    assert inflections(lex.entries[2]) == ("may",)


def test_registry_covers_all_seed_codes(seed_lexicon, registry):
    codes = {code for e in seed_lexicon.entries for code in e.subcats}
    missing = {c for c in codes if registry.get(c) is None}
    assert not missing


def test_expansion_is_deterministic(seed_lexicon, registry):
    a = expand_templates(seed_lexicon, registry)
    b = expand_templates(seed_lexicon, registry)
    assert [r.source for r in a] == [r.source for r in b]
    assert [r.name for r in a] == [r.name for r in b]


def test_every_generated_rule_parses(seed_rules):
    for rule in seed_rules:
        reparsed = parse_pattern(rule.source, name=rule.name)
        assert reparsed.pattern == rule.pattern
        assert reparsed.actions == rule.actions


def test_expansion_parses_nothing(seed_lexicon, registry, monkeypatch):
    def no_parse(*args, **kwargs):
        raise AssertionError("expansion parsed rule text")

    monkeypatch.setattr(rulegen, "parse_pattern", no_parse)
    rules = expand_templates(seed_lexicon, registry)
    assert len(rules) == sum(len(e.subcats) for e in seed_lexicon.entries)


_WORDS = ["a|VB", "/^V/", "ok=trigger", "(x", "$..", "!<", "=x", "x|", "{TRIG}", "{WORD}",
          "#x", "x#", "go", "MD", "AUX", "TrigAble", "rule", "insert", "$", "!", "x/y"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(_WORDS), st.text(min_size=1, max_size=6)))
def test_lexicon_words_are_matched_literally_or_rejected(word):
    assume(word.split() == [word])  # whitespace separates Forms words
    lexicon_text = (
        "String: must\nPos: MD\nModality: Require\n"
        f"Subcat: Modal-auxiliary-basic\nForms: {word}\n"
    )
    try:
        lexicon = load_lexicon(lexicon_text)
    except LexiconError as exc:
        assert repr(word) in str(exc)
        return
    rules = expand_templates(lexicon, rulegen.default_registry())
    tree = ParseTree("S", (ParseTree("MD", (), word), ParseTree("VB", (), "go")))
    assert [m.captures["trigger"].token for m in match(rules[0], tree)] == [word]
    reparsed = parse_rules(serialize_rules(rules))
    assert [(r.pattern, r.actions) for r in reparsed] == [(r.pattern, r.actions) for r in rules]


_ACTIONS = "insert ({TRIG}) >2 trigger\ninsert ({TARG}) >2 target"
_GOOD_TEMPLATE = f"# comment\n\ntemplate ok\nMD=trigger < {{WORD}} $.. VB=target\n{_ACTIONS}\n"


@pytest.mark.parametrize(
    "name, body, message",
    [
        ("unused", "MD=trigger < {WORD} $.. (VB=target\n" + _ACTIONS, "unexpected end of pattern"),
        ("unused", "MD=trigger < {WORD} $.. VB=target\ninsert ({TRIG}) >2 trigger", "missing"),
        ("unused", "MD=trigger < /^{WORD}/ $.. VB=target\n" + _ACTIONS, "{WORD} must be an atom"),
        (
            "unused",
            "MD=trigger < {WORD} $.. VB=target\naugment trigger {WORD}\n" + _ACTIONS,
            "{WORD} must be an atom",
        ),
        ("ok", "MD=trigger < {WORD} $.. VB=target\n" + _ACTIONS, "duplicate template"),
    ],
)
def test_bad_template_fails_at_load(name, body, message):
    assert load_registry(_GOOD_TEMPLATE).get("ok").name == "ok"
    with pytest.raises(ValueError) as info:
        load_registry(_GOOD_TEMPLATE + f"\ntemplate {name}\n{body}\n")
    assert str(info.value).startswith(f"line 8: template {name}: ")
    assert message in str(info.value)


def test_generated_need_passive_rule_mirrors_required_rule(seed_rules):
    by_name = {r.name: r for r in seed_rules}
    need = by_name["V3-passive-basic:need"]
    required = parse_pattern(
        "/^VB/=trigger !< /^Trig/ < require|requires|required|requiring < VoicePassive"
        " $.. (S < (/^VB/=target !< AUX))\n"
        "insert (TrigRequire) >2 trigger\ninsert (TargRequire) >2 target"
    )
    # Same shape: only the word alternation differs.
    assert len(need.pattern.clauses) == len(required.pattern.clauses)
    assert [c.relation for c in need.pattern.clauses] == [c.relation for c in required.pattern.clauses]
    assert "needed" in need.source and "TrigRequire" in need.source


def test_unresolved_code_raises_naming_record(registry):
    lex = load_lexicon(
        "String: x\nPos: NN\nModality: Able\n\n"
        "String: frob\nPos: VB\nModality: Able\nSubcat: V3-I3-basic\nSubcat: NO-SUCH-CODE\n"
    )
    message = "^line 5: record 2: no template for subcat code 'NO-SUCH-CODE'$"
    with pytest.raises(LexiconError, match=message):
        expand_templates(lex, registry)
    # A lexicon built in code has no lines to name.
    with pytest.raises(LexiconError, match="^record 2: no template"):
        expand_templates(Lexicon(lex.entries), registry)


def test_bound_rules_share_placeholder_free_subtrees(seed_rules, registry):
    """Binding rebuilds only the nodes above a placeholder; the rest are
    the template's own objects, and the rules equal unshared copies."""
    template = registry.get("V3-I3-basic").pattern
    bound = [r for r in seed_rules if r.name.startswith("V3-I3-basic:")]
    assert len(bound) > 1
    for rule in bound:
        negated, word, sister = rule.pattern.clauses
        assert negated is template.clauses[0] and sister is template.clauses[2]
        assert word.operand.test.alternatives[0] != rulegen.WORD
        assert parse_pattern(rule.source).pattern == rule.pattern


def test_empty_lexicon_expands_to_nothing(registry):
    assert expand_templates(load_lexicon(""), registry) == []


def test_shipped_rule_set_is_idempotent(seed_rules):
    from mntag.matcher import apply
    from conftest import DATA
    from mntag.trees import read_ptb_file, flatten

    for tree in read_ptb_file(DATA / "corpus_trees.ptb"):
        current = preprocess(flatten(tree))
        for rule in seed_rules:
            current = apply(rule, current)
        settled = current
        for rule in seed_rules:
            settled = apply(rule, settled)
        assert settled == current


def test_every_generated_rule_fires_on_the_corpus(seed_lexicon, seed_rules):
    from conftest import DATA
    from mntag.taggers import tag_structure
    from mntag.trees import read_ptb_file

    fired = set()
    for tree in read_ptb_file(DATA / "corpus_trees.ptb"):
        result = tag_structure(preprocess(flatten(tree)), seed_rules)
        fired.update(result.fired_rules)
    expected = {rule.name for rule in seed_rules}
    assert fired == expected
