import gc
import itertools
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    STAGE_AUXILIARIES,
    corpus_words,
    iter_nodes,
    random_pattern_rule,
    random_tree,
    read_ptb_file,
    stage_tree,
)
from mntag import matcher, rulegen
from mntag.matcher import (
    MAX_NESTING,
    PatternRule,
    PatternSyntaxError,
    Relation,
    RewriteBudgetError,
    apply,
    match,
    parse_pattern,
    parse_rules,
)
from mntag.rulegen import preprocess
from mntag.trees import (
    ParseTree,
    flatten,
    has_label_segment,
    insert_leaf,
    read_ptb,
    write_ptb,
)

PASSIVE_RULE = """\
VB=trigger !< /^Trig/ < VoicePassive < required $.. (S < (VB=target !< AUX))
insert (TargReq) >2 target
insert (TrigReq) >2 trigger
"""

PASSIVE_TREE = (
    "(S (NP (PRP They)) (VB were AUX) (VB required VoicePassive)"
    " (S (VB provide) (NP (NNS tents))))"
)


def test_parse_passive_rule():
    rule = parse_pattern(PASSIVE_RULE)
    assert sorted(rule.pattern.capture_names()) == ["target", "trigger"]
    assert len(rule.actions) == 2
    assert rule.actions[0].position == 2


def test_unbound_capture_rejected():
    with pytest.raises(PatternSyntaxError, match="y"):
        parse_pattern("VB=x\ninsert (T) >2 y")


def test_minimal_clause():
    rule = parse_pattern("NP < (DT the)")
    assert rule.pattern.clauses[0].relation is Relation.CHILD


def test_unknown_operator_reports_column():
    with pytest.raises(PatternSyntaxError, match="column"):
        parse_pattern("NP $,, VB")
    with pytest.raises(PatternSyntaxError):
        parse_pattern("NP < /Trig/")  # regex must be anchored


@pytest.mark.parametrize(
    "text, message",
    [
        ("NP=x < VB=x", r"duplicate capture names \['x'\]"),
        ("NP < (DT < NN", "unexpected end of pattern"),  # a group missing its ``)``
        ("NN=x\naugment x FOO\nVB", "pattern text after actions: 'VB'"),
    ],
)
def test_malformed_rule_rejected(text, message):
    with pytest.raises(PatternSyntaxError, match=message):
        parse_pattern(text)


def _under_caller_stack(frames, fn):
    """``fn()`` called with ``frames`` frames on the stack below it."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(k):
        return down(k - 1) if k else fn()

    return down(frames - depth)


@pytest.mark.parametrize("relation", ["<", "$.."])
def test_a_pattern_at_the_nesting_bound_runs_under_a_deep_caller(relation):
    """Parsing, ``PatternRule`` construction, template binding, matching,
    and comparing, hashing and printing a rule each recurse once a group
    or more; at ``MAX_NESTING`` groups each runs with 300 frames of
    caller stack.  One group more does not parse.
    ``<`` groups descend a chain of nodes; ``$..`` groups run along
    sisters, so the tree stays flat."""
    heads = [f"S{k}" for k in range(MAX_NESTING)]
    if relation == "<":
        text = "".join(f"({h} " for h in heads) + "(VB go)" + ")" * MAX_NESTING
    else:
        text = "(R " + "".join(f"({h} s) " for h in heads) + "(VB go))"
    (tree,) = read_ptb(text)

    def pattern(innermost, depth=MAX_NESTING):
        return "".join(f"{h} {relation} (" for h in heads[:depth]) + innermost + ")" * depth

    source = pattern(f"{rulegen.WORD}=t") + "\naugment t TargWant"
    template = _under_caller_stack(300, lambda: parse_pattern(source))
    assert _under_caller_stack(300, lambda: list(rulegen._atoms(template.pattern)))[-1] == "{WORD}"
    bound = _under_caller_stack(300, lambda: rulegen._bind(template.pattern, {"{WORD}": ("VB",)}))
    rule = _under_caller_stack(300, lambda: PatternRule("deep", bound, template.actions))
    assert rule.needs[-1] == {"VB"}
    # Compared with an equal rule, not itself, which ``==`` answers by identity.
    rebound = rulegen._bind(template.pattern, {"{WORD}": ("VB",)})
    again = PatternRule("deep", rebound, template.actions)
    assert again is not rule and _under_caller_stack(300, lambda: rule == rule == again)
    assert _under_caller_stack(300, lambda: hash(rule) == hash(again))
    assert _under_caller_stack(300, lambda: repr(rule)).startswith("PatternRule(name='deep'")
    (m,) = _under_caller_stack(300, lambda: match(rule, tree))
    assert m.captures["t"].label == "VB"
    with pytest.raises(PatternSyntaxError, match=f"nested more than {MAX_NESTING} groups deep"):
        parse_pattern(pattern("(VB=t)") + "\naugment t TargWant")


def test_captures_forbidden_under_negated_dominance():
    with pytest.raises(PatternSyntaxError):
        parse_pattern("NP !< (DT=x the)")


def test_match_passive_rule_binds_trigger_and_target():
    rule = parse_pattern(PASSIVE_RULE)
    tree = read_ptb(PASSIVE_TREE)[0]
    matches = match(rule, tree)
    assert len(matches) == 1
    captures = matches[0].captures
    assert captures["trigger"].tokens() == ["required", "VoicePassive"]
    assert captures["target"].token == "provide"


def test_match_against_non_matching_leaf():
    rule = parse_pattern("NP < (DT the)")
    assert match(rule, ParseTree("VB", (), "go")) == []


def test_apply_passive_rule_inserts_markers_once():
    rule = parse_pattern(PASSIVE_RULE)
    tree = read_ptb(PASSIVE_TREE)[0]
    out = apply(rule, tree)
    text = write_ptb(out)
    assert "(VB required TrigReq VoicePassive)" in text
    assert "(VB provide TargReq)" in text
    assert tree == read_ptb(PASSIVE_TREE)[0]  # input untouched
    assert apply(rule, out) == out  # idempotent thanks to the guard


def test_apply_no_match_is_identity():
    rule = parse_pattern("ZZZ=x\naugment x FOO")
    tree = read_ptb("(S (NP (DT the) (NN cat)))")[0]
    assert apply(rule, tree) == tree


def test_augment_label_only_once():
    rule = parse_pattern("NN=x\naugment x TargAble")
    tree = read_ptb("(S (NN cat))")[0]
    out = apply(rule, tree)
    assert write_ptb(out) == "(S (NN-TargAble cat))"
    assert apply(rule, out) == out


def test_self_feeding_rule_exhausts_budget():
    rule = parse_pattern("NP=x\ninsert (NP) >1 x")
    tree = read_ptb("(S (NP (DT the)))")[0]
    with pytest.raises(RewriteBudgetError):
        apply(rule, tree)


def test_rule_file_parsing_and_serialization():
    text = "# comment\nrule one\nNP < (DT the)\naugment x FOO\n"
    with pytest.raises(PatternSyntaxError, match="^line 2: "):
        parse_rules(text)  # x unbound
    rules = parse_rules("rule one\nNP=x < (DT the)\naugment x FOO\n\nVB=y\ninsert (T) >2 y\n")
    assert [r.name for r in rules] == ["one", "rule2"]


# ---------------------------------------------------------------------------
# Record reader against the grouping it replaced


def _reference_read_records(text: str) -> list:
    """``read_records`` before it became one loop, kept as the reference:
    comment lines dropped first, then runs of non-blank lines grouped."""
    from itertools import groupby

    numbered_lines = enumerate(text.splitlines(), 1)
    lines = [(n, raw.rstrip()) for n, raw in numbered_lines if not raw.startswith("#")]
    records = []
    for blank, group in groupby(lines, key=lambda item: not item[1]):
        if not blank:
            numbered = list(group)
            records.append((numbered[0][0], [line for _, line in numbered]))
    return records


#: Lines a record file may hold: fields, comments (only a ``#`` in the
#: first column starts one), blank and whitespace-only lines, trailing
#: whitespace, and characters ``splitlines`` breaks at.
_RECORD_LINES = [
    "String: need", "Pos: VB", "Subcat: V3-I3-basic -- They need to go.", "template T",
    "NN=x < a", "insert (TrigAble) >2 x", "Forms: can ca  ", "x\t", "", "", "   ", "\t",
    "# comment", "#", "#String: x", " # not a comment", "\xa0", "a\x0cb", "a\x1cb", "a\u2028b",
]


def test_read_records_equals_the_reference_on_random_texts():
    """First line numbers and lines equal the reference's on texts with
    comments inside and between records, whitespace-only lines, CRLF
    and mixed line ends, and leading and trailing blank lines."""
    rng = random.Random(5)
    seen_comment_inside = 0
    for _ in range(3000):
        lines = [rng.choice(_RECORD_LINES) for _ in range(rng.randint(0, 14))]
        lines = [""] * rng.randint(0, 2) + lines + [""] * rng.randint(0, 2)
        ends = rng.choice([["\n"], ["\r\n"], ["\n", "\r\n", "\r"]])
        text = "".join(line + rng.choice(ends) for line in lines)
        if rng.random() < 0.3:
            text = text.rstrip("\r\n")  # no line end after the last line
        got = list(matcher.read_records(text))
        assert got == _reference_read_records(text), text
        seen_comment_inside += any(
            a and b.startswith("#") and c for a, b, c in zip(lines, lines[1:], lines[2:])
        )
    assert seen_comment_inside > 300


# ---------------------------------------------------------------------------
# Brute-force oracle equivalence


def _self_token_ok(operand, node):
    return (
        operand.capture is None
        and not operand.clauses
        and operand.test.alternatives is not None
        and node.is_leaf
        and node.token in operand.test.alternatives
    )


def oracle_match_set(rule: PatternRule, tree: ParseTree) -> set:
    """All bindings by exhaustive enumeration over node tuples."""
    nodes = list(iter_nodes(tree))
    parent, position = {}, {}
    for p in nodes:
        for i, c in enumerate(p.children):
            parent[id(c)] = p
            position[id(c)] = i

    def test_ok(test, node):
        if test.regex is not None:
            return re.match(test.regex, node.label) is not None
        return any(node.label == alt or node.token == alt for alt in test.alternatives)

    def related(relation, a, b):
        if relation is Relation.CHILD:
            return any(c is b for c in a.children)
        pa = parent.get(id(a))
        return pa is not None and parent.get(id(b)) is pa and position[id(b)] > position[id(a)]

    def sat(pattern, node):
        if not test_ok(pattern.test, node):
            return []
        envs = [frozenset([(pattern.capture, id(node))] if pattern.capture else [])]
        for clause in pattern.clauses:
            if clause.relation is Relation.NOT_CHILD:
                possible = _self_token_ok(clause.operand, node) or any(
                    related(Relation.CHILD, node, c) and sat(clause.operand, c) for c in nodes
                )
                if possible:
                    return []
                continue
            options = []
            if clause.relation is Relation.CHILD and _self_token_ok(clause.operand, node):
                options.append(frozenset())
            for c in nodes:
                if related(clause.relation, node, c):
                    options.extend(sat(clause.operand, c))
            envs = [env | extra for env in envs for extra in options]
            if not envs:
                return []
        return envs

    result = set()
    for node in nodes:
        for env in sat(rule.pattern, node):
            result.add((id(node), env))
    return result


def engine_match_set(rule, tree):
    return {
        (id(m.root), frozenset((k, id(v)) for k, v in m.captures.items()))
        for m in match(rule, tree)
    }


def node_at(tree, path):
    for k in path:
        tree = tree.children[k]
    return tree


def test_match_equals_brute_force_oracle():
    rng = random.Random(4242)
    checked = 0
    for _ in range(1000):
        tree = random_tree(rng, max_nodes=12)
        rule = random_pattern_rule(rng, tree)
        assert engine_match_set(rule, tree) == oracle_match_set(rule, tree)
        for m in match(rule, tree):
            assert m.paths.keys() == m.captures.keys()
            for name, node in m.captures.items():
                assert node_at(tree, m.paths[name]) is node
        checked += 1
    assert checked == 1000


def test_match_carries_its_rule_and_resolves_nodes_through_its_paths():
    rng = random.Random(2718)
    found = 0
    for _ in range(300):
        tree = random_tree(rng, max_nodes=12)
        rule = random_pattern_rule(rng, tree)
        for m in match(rule, tree):
            assert m.rule is rule and m.tree is tree
            assert m.root is node_at(tree, m.root_path)
            captures = m.captures
            assert captures.keys() == m.paths.keys()
            for name, path in m.paths.items():
                assert captures[name] is node_at(tree, path)
            found += 1
    assert found > 100


def test_rewrite_callback_gets_the_match_of_its_rule_in_the_tree_before():
    rule = parse_pattern(PASSIVE_RULE)
    tree = read_ptb(PASSIVE_TREE)[0]
    seen = []
    apply(rule, tree, on_rewrite=lambda m, before: seen.append((m.rule, m.tree, before)))
    assert len(seen) == 1
    assert seen[0][0] is rule and seen[0][1] is seen[0][2] is tree


def _reference_self_token(operand, node):
    return operand.is_plain_atom() and node.is_leaf and node.token in operand.test.alternatives


def _reference_solve(pattern, node, parent, path):
    """The solver the reference walk calls: an environment comes once
    for each way it binds, so one reached two ways comes twice."""
    if not pattern.test.matches(node):
        return []
    envs = [{pattern.capture: path} if pattern.capture else {}]
    for clause in pattern.clauses:
        if clause.relation is Relation.FOLLOWING_SISTER:
            subs = []
            if parent is not None:
                subs = _reference_among(clause.operand, parent, path[:-1], path[-1] + 1)
        elif _reference_self_token(clause.operand, node):
            subs = [{}]
        else:
            subs = _reference_among(clause.operand, node, path, 0)
        if clause.relation is Relation.NOT_CHILD:
            if subs:
                return []
            continue
        envs = [env | sub for env in envs for sub in subs]
        if not envs:
            return []
    return envs


def _reference_among(operand, owner, owner_path, first):
    kids = owner.children
    return [
        env
        for k in range(first, len(kids))
        for env in _reference_solve(operand, kids[k], owner, owner_path + (k,))
    ]


def _preorder(tree: ParseTree):
    """(node, parent, path) for every node, in preorder."""
    stack = [(tree, None, ())]
    while stack:
        node, parent, path = stack.pop()
        yield node, parent, path
        kids = node.children
        stack.extend((kids[k], node, path + (k,)) for k in range(len(kids) - 1, -1, -1))


def _reference_walk(rule: PatternRule, tree: ParseTree) -> list:
    """The walk that handed every node to the solver, and the solver it
    called, kept as the reference: each match as (root path, capture
    paths), in order, an environment reached two ways kept once."""
    seen, out = set(), []
    for node, parent, path in _preorder(tree):
        for env in _reference_solve(rule.pattern, node, parent, path):
            key = (path, tuple(sorted(env.items())))
            if key not in seen:
                seen.add(key)
                out.append((path, env))
    return out


def test_walk_matches_the_reference_walk(seed_rules):
    """Random patterns over each tree's atoms, and the seed rules on each
    tree and its rewrites: 2000 random trees, then the corpus trees
    (where the seed rules fire), half of them with their words swapped."""
    from conftest import DATA, with_words

    rng = random.Random(2027)
    words = corpus_words() + STAGE_AUXILIARIES
    corpus = read_ptb_file(DATA / "corpus_trees.ptb")
    shapes = [stage_tree(rng, words) for _ in range(2000)]
    shapes += [rng.choice(corpus) for _ in range(250)]
    shapes += [with_words(rng.choice(corpus), rng, words) for _ in range(250)]
    found = rewritten = 0
    for shape in shapes:
        tree = preprocess(flatten(shape))
        rules = [random_pattern_rule(rng, tree) for _ in range(2)]
        for rule in rules + list(seed_rules):
            # ``match`` walks only where the rule's required atoms occur.
            if all(not tree.atoms.isdisjoint(alternatives) for alternatives in rule.needs):
                got = [(m.root_path, m.paths) for m in matcher._walk(rule, tree)]
                assert got == _reference_walk(rule, tree)
                found += bool(got)
            if rule in seed_rules:
                before = tree
                try:
                    tree = apply(rule, tree)
                except RewriteBudgetError:
                    pass
                rewritten += tree is not before
    assert found > 1000 and rewritten > 300


@pytest.mark.parametrize(
    "pattern, text, expected",
    [
        ("NP < DT", "(NP (DT a) (DT b))", [((), {})]),
        ("NN $.. DT", "(NP (NN x) (DT a) (DT b))", [((0,), {})]),
        ("S < (NP=n < DT)", "(S (NP (DT a) (DT b)))", [((), {"n": (0,)})]),
        ("S < (NP=n $.. DT)", "(S (NP (NN a)) (DT b) (DT c))", [((), {"n": (0,)})]),
        # Two NP daughters reach one DT capture through their ``$..``.
        ("S < (NP $.. DT=x)", "(S (NP a) (NP b) (DT c))", [((), {"x": (2,)})]),
        (
            "S < (NP $.. DT=x)",
            "(S (NP a) (DT b) (NP c) (DT d))",
            [((), {"x": (1,)}), ((), {"x": (3,)})],
        ),
    ],
)
def test_an_environment_two_daughters_bind_matches_once(pattern, text, expected):
    """A capture-free operand that several daughters pass adds one
    binding, on its own, under ``$..`` or inside a captured operand; so
    does an uncaptured operand whose capture its daughters reach alike."""
    tree = read_ptb(text)[0]
    assert [(m.root_path, m.paths) for m in match(parse_pattern(pattern), tree)] == expected


def _repeating_tree(rng: random.Random) -> ParseTree:
    """A random tree over two phrase labels, two POS labels and two
    words, so that many daughters of one node pass one test."""

    def gen(depth: int) -> ParseTree:
        if depth == 3 or (depth and rng.random() < 0.4):
            word = rng.choice("xy")
            return ParseTree(word if rng.random() < 0.2 else rng.choice("AB"), (), word)
        return ParseTree(rng.choice("PQ"), tuple(gen(depth + 1) for _ in range(rng.randint(2, 4))))

    return gen(0)


def _repeating_pattern(rng: random.Random) -> PatternRule:
    """A random pattern over the labels and words of ``_repeating_tree``
    whose operands hold clauses of their own, ``$..`` included."""
    counter = itertools.count()

    def pattern(depth: int, captures_ok: bool) -> str:
        text = rng.choice(["P|Q", "P", "/^P/", "A|B", "A", "x"])
        if captures_ok and rng.random() < 0.2:
            text += f"=c{next(counter)}"
        # Only a phrase has daughters; any node may have sisters.
        relations = ["<", "<", "!<", "$.."] if text[0] in "P/" else ["$.."]
        parts = [text]
        for _ in range(rng.randint(1 if depth == 0 else 0, 2 - depth)):
            relation = rng.choice(relations)
            parts.append(f"{relation} ({pattern(depth + 1, captures_ok and relation != '!<')})")
        return " ".join(parts)

    return parse_pattern(pattern(0, True))


def test_walk_matches_the_reference_walk_where_bindings_repeat():
    """Trees that repeat labels and patterns with ``$..`` inside their
    operands: the reference solver reaches many environments more than
    once, empty and with captures, and ``_walk`` gives each once."""
    rng = random.Random(1931)
    found = repeated_empty = repeated_captures = 0
    for _ in range(2000):
        tree = _repeating_tree(rng)
        rule = _repeating_pattern(rng)
        got = [(m.root_path, m.paths) for m in matcher._walk(rule, tree)]
        assert got == _reference_walk(rule, tree)
        found += len(got)
        for node, parent, path in _preorder(tree):
            envs = _reference_solve(rule.pattern, node, parent, path)
            distinct = {tuple(sorted(env.items())) for env in envs}
            repeats = len(envs) - len(distinct)
            if () in distinct:
                repeated_empty += repeats
            else:
                repeated_captures += repeats
    assert found > 1500 and repeated_empty > 400 and repeated_captures > 200


def test_match_order_is_document_order():
    rule = parse_pattern("NN=x")
    tree = read_ptb("(S (NP (NN a) (NN b)) (NN c))")[0]
    tokens = [m.captures["x"].token for m in match(rule, tree)]
    assert tokens == ["a", "b", "c"]


def test_shared_node_object_matches_like_a_copy():
    nn = ParseTree("NN", (), "a")
    shared = ParseTree("S", (nn, nn))
    copy = read_ptb("(S (NN a) (NN a))")[0]
    assert shared == copy
    for src in ("S < NN=x", "NN=x $.. NN=y\naugment y TargAble"):
        rule = parse_pattern(src)
        found = [[(m.root, m.captures, m.paths) for m in match(rule, t)] for t in (shared, copy)]
        assert found[0] == found[1]
        assert apply(rule, shared) == apply(rule, copy)
    assert len(match(parse_pattern("S < NN=x"), shared)) == 2
    assert write_ptb(apply(rule, shared)) == "(S (NN a) (NN-TargAble a))"


def test_apply_calls_match_once_per_rewrite_plus_once(monkeypatch):
    trees = []
    original = matcher.match

    def counting(rule, tree):
        trees.append(tree)
        return original(rule, tree)

    monkeypatch.setattr(matcher, "match", counting)
    rule = parse_pattern("NN=x\naugment x TargAble")
    rewrites = []
    tree = read_ptb("(S (NN a) (NP (NN b)))")[0]
    out = apply(rule, tree, on_rewrite=lambda m, before: rewrites.append(before))
    assert write_ptb(out) == "(S (NN-TargAble a) (NP (NN-TargAble b)))"
    assert len(rewrites) == 2
    assert len(trees) == len(rewrites) + 1
    assert trees[:-1] == rewrites


def test_rewriting_leaves_no_reference_cycles():
    rule = parse_pattern(PASSIVE_RULE)
    tree = read_ptb(PASSIVE_TREE)[0]
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            rewrites = []
            apply(rule, tree, on_rewrite=lambda m, before: rewrites.append(m))
            assert len(rewrites) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def _parses_as_itself(word: str) -> bool:
    """``is_plain_word`` by the parser: rule text ``word`` is one plain
    atom testing exactly ``word``."""
    try:
        parsed = matcher._parse_pattern_text(word)
        return parsed == matcher.Pattern(matcher.NodeTest(frozenset([word])))
    except PatternSyntaxError:
        return False


_RULE_TEXT_PIECES = [
    "(", ")", "<", "!<", ">", "$..", "$.", "$", ".", "/", "/^", "^", "=", "=c", "|",
    "!", " ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "a", "VB", "x1", "_", "\u00e9", "\u4e2d",
]


@given(
    st.lists(st.sampled_from(_RULE_TEXT_PIECES) | st.characters(), max_size=8).map("".join)
)
@example("$...")
@example("a$..b")
@example("and/or")
@example("/^V/")
@example("/^V")
@settings(max_examples=500, deadline=None)
def test_plain_word_check_agrees_with_the_parser(word):
    assert matcher.is_plain_word(word) == _parses_as_itself(word)


def test_negated_atom_never_rejects():
    rule = parse_pattern("VB=v !< MD")
    tree = read_ptb("(S (VB go))")[0]
    assert "MD" not in tree.atoms and rule.needs == (frozenset(["VB"]),)
    assert len(match(rule, tree)) == 1


def test_regex_test_never_rejects():
    rule = parse_pattern("/^V/=v $.. (S < /^N/)")
    tree = read_ptb("(X (VBZ is) (S (NNS tents)))")[0]
    assert rule.needs == (frozenset(["S"]),)
    assert len(match(rule, tree)) == 1


def test_child_atom_met_by_own_token_matches():
    rule = parse_pattern("VB=v < go")
    tree = read_ptb("(S (VB go))")[0]
    assert tree.atoms == {"S", "VB", "go"}
    assert [m.paths for m in match(rule, tree)] == [{"v": (0,)}]


def test_missing_root_atom_rejects_without_solving(monkeypatch):
    calls = []
    solve = matcher._solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(matcher, "_solve", counting)
    rule = parse_pattern("MD=m < must")
    assert match(rule, read_ptb("(S (VB must) (NN go))")[0]) == []
    assert calls == []
    assert len(match(rule, read_ptb("(S (MD must) (VB go))")[0])) == 1
    assert calls


def test_rewritten_tree_atoms_hold_inserted_and_augmented_labels():
    rule = parse_pattern("VB=v !< Ins\ninsert (Ins) >1 v\naugment v Aug")
    tree = read_ptb("(S (VB go))")[0]
    out = apply(rule, tree)
    assert write_ptb(out) == "(S (VB-Aug Ins go))"
    assert {"Ins", "VB-Aug"} <= out.atoms
    assert not {"Ins", "VB-Aug"} & tree.atoms
    assert len(match(parse_pattern("VB-Aug < Ins"), out)) == 1


# ---------------------------------------------------------------------------
# Rewrite order


def test_insert_under_a_capture_leaves_a_lower_capture_in_place():
    rule = parse_pattern("NP=x !< M < DT=y\ninsert (M) >1 x\ninsert (N) >2 y")
    tree = read_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")[0]
    assert write_ptb(apply(rule, tree)) == "(S (NP M (DT the N) (NN cat)) (VP (VBD sat)))"


def test_inserts_down_a_capture_chain_reach_every_capture():
    rule = parse_pattern(
        "S=s !< M < (NP=x < NN=y)\ninsert (M) >1 s\ninsert (M) >1 x\naugment y Aug"
    )
    tree = read_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")[0]
    assert write_ptb(apply(rule, tree)) == "(S M (NP M (DT the) (NN-Aug cat)) (VP (VBD sat)))"


def _reference_apply_actions(tree: ParseTree, m, actions) -> tuple[ParseTree, bool]:
    """The rewrite that ran a match's actions in rule order and patched
    the paths of pending captures after each insert, kept as the
    reference: (new tree, whether any action changed it)."""
    paths = dict(m.paths)
    changed = False
    for action in actions:
        path = paths[action.capture]
        node = node_at(tree, path)
        insert_idx = None
        if action.kind is matcher.ActionKind.AUGMENT:
            if has_label_segment(node.label, action.label):
                continue
            new_node = ParseTree(node.label + "-" + action.label, node.children, node.token)
        else:
            insert_idx = action.position - 1
            new_node = insert_leaf(node, insert_idx, action.label)
        changed = True
        tree = matcher._replace_at(tree, path, new_node)
        if insert_idx is not None:
            for other, opath in paths.items():
                if other == action.capture or len(opath) <= len(path):
                    continue
                if opath[: len(path)] == path and opath[len(path)] >= insert_idx:
                    paths[other] = path + (opath[len(path)] + 1,) + opath[len(path) + 1 :]
    return tree, changed


def _reference_rewrite(rule: PatternRule, tree: ParseTree) -> ParseTree | None:
    """One step of ``apply`` by the reference: the tree after the first
    match whose actions change it, or None at the fixpoint."""
    for m in match(rule, tree):
        new_tree, changed = _reference_apply_actions(tree, m, rule.actions)
        if changed:
            return new_tree
    return None


def _chain_pattern(rng: random.Random, tree: ParseTree) -> matcher.Pattern:
    """A pattern capturing every node on a random root-to-node path."""
    path = []
    node = tree
    while node.children and rng.random() < 0.8:
        k = rng.randrange(len(node.children))
        path.append(k)
        node = node.children[k]
    text = None
    for depth in range(len(path), -1, -1):
        label = node_at(tree, path[:depth]).label
        atom = f"{label}=c{depth}"
        text = atom if text is None else f"{atom} < ({text})"
    return parse_pattern(text).pattern


class _Enough(Exception):
    pass


def test_apply_rewrites_like_the_reference():
    """Rules of 2-3 actions (inserts at positions 1-3 and augments, on
    any capture) over random patterns and capture chains: each rewrite
    ``apply`` makes is the reference's next step, and it stops where
    the reference does."""
    rng = random.Random(1502)
    steps = nested = 0
    for trial in range(3000):
        tree = random_tree(rng, max_nodes=12)
        if trial % 2:
            pattern = _chain_pattern(rng, tree)
        else:
            pattern = random_pattern_rule(rng, tree).pattern
        names = pattern.capture_names()
        if not names:
            continue
        actions = []
        for _ in range(rng.randint(2, 3)):
            capture = rng.choice(names)
            if rng.random() < 0.7:
                label, position = rng.choice(["M", "N"]), rng.randint(1, 3)
                actions.append(matcher.Action(matcher.ActionKind.INSERT, capture, label, position))
            else:
                suffix = rng.choice(["Aug", "Bug"])
                actions.append(matcher.Action(matcher.ActionKind.AUGMENT, capture, suffix))
        rule = PatternRule("r", pattern, tuple(actions))
        befores = []

        def record(m, before):
            befores.append(before)
            if len(befores) > 4:
                raise _Enough

        try:
            out = apply(rule, tree, on_rewrite=record)
        except _Enough:
            out = None
        for before, after in zip(befores, befores[1:] + [out]):
            if after is not None:
                assert after == _reference_rewrite(rule, before)
                steps += 1
        if out is not None:
            assert _reference_rewrite(rule, out) is None
        for m in match(rule, tree):
            moved = {m.paths[a.capture] for a in actions}
            nested += any(p != q and q[: len(p)] == p for p in moved for q in moved)
    assert steps > 2000 and nested > 400
