import random

from hypothesis import assume, given, settings, strategies as st
from mntag.lexicon import Lexicon, LexiconError, load_lexicon
import pytest

from conftest import (
    STAGE_AUXILIARIES,
    corpus_words,
    iter_nodes,
    random_tree,
    read_ptb_file,
    stage_tree,
    with_words,
)

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
    assert preprocess(tree) is tree


def test_preprocess_shares_the_subtrees_it_leaves_unmarked():
    tree = read_ptb("(S (NP (DT the) (NN cat)) (VBD did) (VB go) (PP (IN to) (NN school)))")[0]
    out = preprocess(tree)
    assert write_ptb(out) == "(S (NP (DT the) (NN cat)) (VBD did AUX) (VB go) (PP (IN to) (NN school)))"
    assert [a is b for a, b in zip(out.children, tree.children)] == [True, False, True, True]


def _reference_preprocess(tree: ParseTree) -> ParseTree:
    """The ``preprocess`` that built every internal node anew, kept as
    the reference.  It uses the module's word and label tests."""
    if tree.is_leaf:
        return tree
    children = list(tree.children)
    marks: dict[int, list[str]] = {}
    for i, child in enumerate(children):
        if child.is_leaf and is_marker_leaf(child):
            continue
        if not rulegen._is_verbal_label(child.label):
            continue
        word = rulegen._leaf_word(child)
        if word is None:
            continue
        lower = word.lower()
        if lower in rulegen.AUX_CANDIDATE_WORDS and any(
            rulegen._is_verbal_label(later.label) and not is_marker_leaf(later)
            for later in children[i + 1 :]
        ):
            marks.setdefault(i, []).append(rulegen.AUX_MARKER)
        if child.label.startswith("VBN") and any(
            (w := rulegen._leaf_word(earlier)) is not None
            and w.lower() in rulegen.BE_FORMS
            and rulegen._is_verbal_label(earlier.label)
            for earlier in children[:i]
        ):
            marks.setdefault(i, []).append(rulegen.PASSIVE_MARKER)
    new_children = []
    for i, child in enumerate(children):
        child = _reference_preprocess(child)
        for marker in marks.get(i, []):
            child = rulegen._attach_marker(child, marker)
        new_children.append(child)
    return ParseTree(tree.label, tuple(new_children), None)


def test_preprocess_matches_the_reference_and_returns_what_it_keeps():
    rng = random.Random(2025)
    # Auxiliaries weighted up, so that one in ten trees gains a marker.
    words = corpus_words() + 20 * STAGE_AUXILIARIES
    kept = marked = 0
    for _ in range(2500):
        tree = stage_tree(rng, words)
        for given in (tree, flatten(tree)):
            out = preprocess(given)
            assert out == _reference_preprocess(given)
            # A subtree comes back as itself exactly when it gains no marker.
            for node in iter_nodes(given):
                sub = preprocess(node)
                assert (sub is node) == (sub == node)
            kept += out is given
            marked += out is not given
    assert kept > 2000 and marked > 400


def test_marker_leaf_test_is_the_tag_and_marker_spelling_test():
    from mntag.tags import TAG_SPELLINGS

    rng = random.Random(5)
    words = corpus_words() + STAGE_AUXILIARIES
    markers = 0
    for _ in range(500):
        for node in iter_nodes(stage_tree(rng, words)):
            spelled = node.label in ("AUX", "VoicePassive") or node.label in TAG_SPELLINGS
            want = node.is_leaf and node.label == node.token and spelled
            assert is_marker_leaf(node) == want
            markers += want
    assert markers > 100


def test_no_marker_is_verbal_or_a_form_of_be():
    """So ``preprocess`` passes over marker leaves with no test of their own."""
    for marker in rulegen._MARKER_LABELS:
        assert not rulegen._is_verbal_label(marker), marker
        assert marker.lower() not in rulegen.BE_FORMS, marker


def test_preprocess_is_idempotent():
    tree = read_ptb("(S (NP (NNS Tents)) (VBP are) (VBN needed))")[0]
    once = preprocess(tree)
    assert preprocess(once) == once


def test_perfect_have_is_not_passive():
    tree = read_ptb("(S (NP (PRP They)) (VBP have) (VBN required) (NP (NNS tents)))")[0]
    out = write_ptb(preprocess(tree))
    assert "VoicePassive" not in out
    assert "(VBP have AUX)" in out


def test_preprocess_keeps_a_preterminal_whose_word_is_the_marker():
    # (VBN VoicePassive) already carries the marker it would gain: it
    # comes back as itself, and only ``was`` gains AUX.
    alone = read_ptb("(S (VBN VoicePassive))")[0]
    assert preprocess(alone) is alone
    tree = read_ptb("(S (VBD was) (VBN VoicePassive))")[0]
    out = preprocess(tree)
    assert write_ptb(out) == "(S (VBD was AUX) (VBN VoicePassive))"
    assert out.children[1] is tree.children[1]


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
    groups = {(code, e.modality) for e in seed_lexicon.entries for code in e.subcats}
    assert len(rules) == len(groups) == 22


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
        (
            "unused",
            "MD=trigger < {WORD} $.. VB=target\naugment target A-B\n" + _ACTIONS,
            "augment suffix 'A-B' is not one label segment",
        ),
        (
            "unused",
            "MD=trigger < {WORD} $.. VB=target\ninsert (Foo) >1 target\n" + _ACTIONS,
            "insert label 'Foo' is not a marker",
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
    rule = by_name["V3-passive-basic:Require"]
    # The two Require entries with this code, need and require, share one
    # rule; the forms of the first entry come first in the rule's source.
    written = parse_pattern(
        "/^VB/=trigger !< /^Trig/ < need|needs|needed|needing|require|requires|required|requiring"
        " < VoicePassive $.. (S < (/^VB/=target !< AUX))\n"
        "insert (TrigRequire) >2 trigger\ninsert (TargRequire) >2 target"
    )
    assert (rule.pattern, rule.actions) == (written.pattern, written.actions)
    assert rule.source.splitlines()[1] == written.source.splitlines()[0]


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
        assert rulegen.WORD not in word.operand.test.alternatives
        assert parse_pattern(rule.source).pattern == rule.pattern


def test_empty_lexicon_expands_to_nothing(registry):
    assert expand_templates(load_lexicon(""), registry) == []


def test_shipped_rule_set_is_idempotent(seed_rules):
    from mntag.matcher import apply
    from conftest import DATA

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

    fired = set()
    for tree in read_ptb_file(DATA / "corpus_trees.ptb"):
        result = tag_structure(preprocess(flatten(tree)), seed_rules)
        fired.update(result.fired_rules)
    expected = {rule.name for rule in seed_rules}
    assert fired == expected


# ---------------------------------------------------------------------------
# Merged expansion against the per-entry expansion it replaced


def _per_entry_rules(lexicon: Lexicon, registry) -> list:
    """The expansion ``expand_templates`` replaced, kept as the reference:
    the paper's one rule per (entry, subcat code), in lexicon order, each
    spelled from its template's text and parsed."""
    rules = []
    for entry in lexicon.entries:
        values = {
            rulegen.WORD: "|".join(inflections(entry)),
            rulegen.TRIG: rulegen.trigger_tag(entry.modality),
            rulegen.TARG: rulegen.target_tag(entry.modality),
        }
        for code in entry.subcats:
            text = rulegen._PLACEHOLDER.sub(lambda m: values[m.group()], registry.get(code).source)
            rules.append(parse_pattern(text, name=f"{code}:{entry.surface}"))
    return rules


def _tagged(tree: ParseTree, rules) -> object:
    from mntag.matcher import RewriteBudgetError
    from mntag.taggers import tag_structure

    try:
        result = tag_structure(tree, rules)
    except RewriteBudgetError:
        return "rewrite budget exceeded"
    return result.tree, result.annotations, result.diagnostics


#: Forms the random lexicons share across codes and modalities: corpus
#: triggers, and words spelled like atoms the templates test.
_SHARED_FORMS = [
    "can", "ca", "could", "need", "able", "not", "want", "hope", "reach", "for", "in", "MD"
]
_TREE_WORDS = _SHARED_FORMS + ["go", "win", "to", "a", "IN", "S", "NN"]
_MODALITIES = ["Able", "Succeed", "Want", "Require", "Negation"]


def _random_lexicon(rng: random.Random, codes: list[str]) -> Lexicon:
    """Entries over few codes and modalities whose ``Forms`` overlap, so
    one word often belongs to several groups."""
    records = []
    for k in range(rng.randint(2, 8)):
        forms = " ".join(rng.sample(_SHARED_FORMS, rng.randint(1, 3)))
        subcats = "".join(f"Subcat: {code}\n" for code in rng.sample(codes, rng.randint(1, 2)))
        modality = rng.choice(_MODALITIES)
        records.append(f"String: e{k}\nPos: VB\nModality: {modality}\n{subcats}Forms: {forms}\n")
    return load_lexicon("\n".join(records))


def expansion_differences(seed: int, lexicons: int, trees_per_lexicon: int):
    """Tag the corpus trees, their copies with random words and random
    trees with random words, under random lexicons expanded both ways.
    Returns the trees tagged differently (lexicon text, tree) and the
    number of trees some rule tagged."""
    from conftest import DATA
    from mntag.lexicon import dump_lexicon

    rng = random.Random(seed)
    registry = rulegen.default_registry()
    corpus = [flatten(tree) for tree in read_ptb_file(DATA / "corpus_trees.ptb")]
    differences, tagged = [], 0
    for _ in range(lexicons):
        lexicon = _random_lexicon(rng, rng.sample(sorted(registry), 3))
        merged, per_entry = expand_templates(lexicon, registry), _per_entry_rules(lexicon, registry)
        # The lexicon's forms twice over, so that most trees hold triggers.
        words = _TREE_WORDS + 2 * [form for e in lexicon.entries for form in inflections(e)]
        for _ in range(trees_per_lexicon):
            r = rng.random()
            if r < 0.1:
                tree = rng.choice(corpus)
            elif r < 0.55:
                tree = with_words(rng.choice(corpus), rng, words)
            else:
                tree = with_words(random_tree(rng, max_nodes=16), rng, words)
            tree = preprocess(tree)
            want = _tagged(tree, per_entry)
            if _tagged(tree, merged) != want:
                differences.append((dump_lexicon(lexicon), write_ptb(tree)))
            tagged += isinstance(want, str) or bool(want[1])
    return differences, tagged


def test_merged_expansion_tags_like_the_per_entry_expansion():
    differences, tagged = expansion_differences(seed=12, lexicons=400, trees_per_lexicon=8)
    assert differences == []
    assert tagged > 300


def _bench_inputs(monkeypatch):
    """``bench/inputs.py``, which builds the benchmark's padded lexicon."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # dataclasses look it up
    spec.loader.exec_module(inputs)
    return inputs


def test_the_bench_padded_lexicon_expands_to_the_seed_rules(seed_rules, registry, monkeypatch):
    """1600 entries, 1575 of them nonce copies of seed entries, bind the
    seed lexicon's 22 rules; each copy's forms join its group's rule."""
    inputs = _bench_inputs(monkeypatch)
    text, surfaces = inputs.padded_lexicon(inputs.load_corpus(), 1600, random.Random(1))
    lexicon = load_lexicon(text)
    rules = expand_templates(lexicon, registry)
    assert len(lexicon.entries) == 1600 and len(seed_rules) == len(rules) == 22
    assert [r.name for r in rules] == [r.name for r in seed_rules]
    atoms = lambda rules: {atom for rule in rules for atom in rulegen._atoms(rule.pattern)}
    padded = [e for e in lexicon.entries if e.surface in surfaces]
    padded_forms = {form for e in padded for form in inflections(e)}
    assert len(padded_forms) > 3000
    assert atoms(rules) == atoms(seed_rules) | padded_forms


_MODAL = "Pos: MD\nSubcat: Modal-auxiliary-basic\n"


def test_a_form_of_two_groups_keeps_per_entry_precedence(registry):
    """``ca`` is a Succeed form before it is an Able form.  Moving it up
    to the Able rule would let Able claim it, so the later Able entry
    starts a second Able rule after the Succeed rule."""
    lexicon = load_lexicon(
        f"String: can\nModality: Able\n{_MODAL}\n"
        f"String: ca\nModality: Succeed\n{_MODAL}\n"
        f"String: could\nModality: Able\n{_MODAL}Forms: could ca\n"
    )
    rules = expand_templates(lexicon, registry)
    able, succeed = "Modal-auxiliary-basic:Able", "Modal-auxiliary-basic:Succeed"
    assert [r.name for r in rules] == [able, succeed, able]
    tree = preprocess(read_ptb("(S (NP (PRP They)) (MD ca) (RB n't) (VB win))")[0])
    tagged = _tagged(tree, rules)
    assert tagged == _tagged(tree, _per_entry_rules(lexicon, registry))
    assert write_ptb(tagged[0]) == (
        "(S (NP (PRP They)) (MD-TrigSucceed ca) (RB n't) (VB-TargSucceed win))"
    )
    # Without the Succeed entry between them, the Able entries share one rule.
    lexicon = load_lexicon(
        f"String: can\nModality: Able\n{_MODAL}\n"
        f"String: could\nModality: Able\n{_MODAL}Forms: could ca\n"
    )
    assert [r.name for r in expand_templates(lexicon, registry)] == [able]


def test_a_rewrite_does_not_hide_the_preposition_another_trigger_needs(registry):
    """Two triggers of one group share a ``for`` PP complement.  Had the
    template tested ``for`` on any daughter, an ``NN`` tagged ``for``
    would be its own PP's target, and the insert under it would hide
    the word from the other trigger's rule: which trigger fired would
    hang on rule order.  Through the ``IN`` node the order is moot."""
    lexicon = load_lexicon(
        "String: need\nPos: VB\nModality: Succeed\nSubcat: I-FOR-basic\n\n"
        "String: e1\nPos: VB\nModality: Succeed\nSubcat: I-FOR-basic\nForms: for\n"
    )
    rules, per_entry = expand_templates(lexicon, registry), _per_entry_rules(lexicon, registry)
    assert len(rules) == 1
    for text in [
        "(S (VB for) (VBN need) (PP (DT a) (NN for)))",
        "(S (VB for) (VBN need) (PP (IN for) (NN x)))",
    ]:
        tree = preprocess(read_ptb(text)[0])
        assert _tagged(tree, rules) == _tagged(tree, per_entry)
    assert write_ptb(_tagged(tree, rules)[0]) == (
        "(S (VB-TrigSucceed for) (VBN-TrigSucceed need) (PP (IN for) (NN-TargSucceed x)))"
    )


# ---------------------------------------------------------------------------
# Indexed grouping against the scan it replaced


def _reference_expand(lexicon: Lexicon, registry) -> list:
    """The expansion before groups were indexed, kept as the reference:
    each (entry, code) scans every group after its key's latest group
    for a tested atom or one of the entry's forms."""
    from mntag.lexicon import LexiconError
    from mntag.matcher import Action, PatternRule

    tested = frozenset(a for t in registry.values() for a in rulegen._atoms(t.pattern))
    tested -= rulegen._PLACEHOLDERS
    groups, latest = [], {}
    for k, entry in enumerate(lexicon.entries):
        forms = inflections(entry)
        words = tested.union(forms)
        for code in entry.subcats:
            if code not in registry:
                raise LexiconError(f"{lexicon.where(k)}: no template for subcat code {code!r}")
            key = (code, entry.modality)
            at = latest.get(key)
            passed = [] if at is None else groups[at + 1 :]
            clash = bool(passed) and not tested.isdisjoint(forms)
            if at is None or clash or any(not f.keys().isdisjoint(words) for _, _, f in passed):
                latest[key] = len(groups)
                groups.append((code, entry.modality, dict.fromkeys(forms)))
            else:
                groups[at][2].update(dict.fromkeys(forms))
    rules = []
    for code, modality, forms in groups:
        template = registry[code]
        atoms = {
            rulegen.WORD: tuple(forms),
            rulegen.TRIG: (rulegen.trigger_tag(modality),),
            rulegen.TARG: (rulegen.target_tag(modality),),
        }
        text = {placeholder: "|".join(values) for placeholder, values in atoms.items()}
        name = f"{code}:{modality.value}"
        actions = tuple(
            Action(a.kind, a.capture, text.get(a.label, a.label), a.position)
            for a in template.actions
        )
        source = rulegen._PLACEHOLDER.sub(lambda m: text[m.group()], template.source)
        pattern = _reference_bind(template.pattern, atoms)
        rules.append(PatternRule(name, pattern, actions, source=f"rule {name}\n{source}"))
    return rules


def _reference_bind(pattern, atoms):
    from mntag.matcher import Clause, NodeTest, Pattern

    test = pattern.test
    alts = test.alternatives or ()
    if not rulegen._PLACEHOLDERS.isdisjoint(alts):
        test = NodeTest(frozenset(v for a in alts for v in atoms.get(a, (a,))))
    clauses = tuple(Clause(c.relation, _reference_bind(c.operand, atoms)) for c in pattern.clauses)
    return Pattern(test, pattern.capture, clauses)


def _spelled(rules) -> list:
    """Each rule as its name, source, actions and pattern (``source``
    takes no part in rule equality)."""
    return [(r.name, r.source, r.actions, r.pattern) for r in rules]


#: Words spelled like atoms the templates test, which split groups.
_TESTED_FORMS = ["MD", "for", "IN", "NN", "in"]


def _tested_atom_lexicon(rng: random.Random, codes: list[str]) -> Lexicon:
    """Entries whose ``Forms`` draw on a few shared words and, early and
    late in the lexicon, on words spelled like tested atoms."""
    shared = ["can", "could", "need", "want", "go", "win"]
    records = []
    size = rng.randint(3, 12)
    for k in range(size):
        forms = rng.sample(shared, rng.randint(0, 2)) + [f"w{k}"]
        if rng.random() < (0.6 if k in (0, 1, size - 2, size - 1) else 0.15):
            forms.insert(rng.randrange(len(forms) + 1), rng.choice(_TESTED_FORMS))
        subcats = "".join(f"Subcat: {code}\n" for code in rng.sample(codes, rng.randint(1, 2)))
        modality = rng.choice(_MODALITIES[:3])
        records.append(
            f"String: e{k}\nPos: VB\nModality: {modality}\n{subcats}Forms: {' '.join(forms)}\n"
        )
    return load_lexicon("\n".join(records))


def test_expansion_equals_the_reference(registry, monkeypatch):
    """Rule for rule, as the scan over later groups bound them: on the
    bench padded lexicons, and on random lexicons whose forms overlap
    across groups and hold tested atoms.  Fails if the tested-atom index
    is dropped, or if a form's first group stands for its latest."""
    inputs = _bench_inputs(monkeypatch)
    corpus = inputs.load_corpus()
    lexicons = [
        load_lexicon(inputs.padded_lexicon(corpus, 1600, random.Random(seed))[0])
        for seed in (1, 2, 3)
    ]
    rng = random.Random(17)
    codes = sorted(registry)
    for n in range(600):
        make = _random_lexicon if n % 2 else _tested_atom_lexicon
        lexicons.append(make(rng, rng.sample(codes, 3)))
    split = 0
    for lexicon in lexicons:
        rules = expand_templates(lexicon, registry)
        assert _spelled(rules) == _spelled(_reference_expand(lexicon, registry))
        split += len(rules) > len({r.name for r in rules})
    assert split > 300  # most lexicons split some group
