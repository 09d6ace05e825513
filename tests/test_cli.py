"""End-to-end exercises of the ``mn`` command line."""

import gc
import os
from importlib.resources import files

import pytest

from conftest import DATA
from mntag import trees
from mntag.cli import main, seed_lexicon_path
from mntag.matcher import RewriteBudgetError

TREES = DATA / "corpus_trees.ptb"
TOKENS = DATA / "corpus_tokens.tsv"
GOLDEN = DATA / "golden_standoff.tsv"
NE = DATA / "ne_sample.tsv"
GOLDEN_GRAFTED = DATA / "golden_grafted.ptb"
GOLDEN_GRAFT_REPORT = DATA / "golden_graft_report.txt"
GOLDEN_TAGGED = DATA / "golden_tagged.ptb"
GOLDEN_FLAT = DATA / "golden_flat.ptb"
GOLDEN_PREPROCESSED = DATA / "golden_preprocessed.ptb"
GOLDEN_RULES = DATA / "golden_rules.txt"
GOLDEN_STRING_TOKENS = DATA / "golden_string_tokens.tsv"
GOLDEN_STRING_INLINE = DATA / "golden_string_inline.txt"
GOLDEN_STRING_STANDOFF = DATA / "golden_string_standoff.tsv"

FIG1_LINE = (
    "Americans <TrigRequire should> <TargRequire know> that we <TrigAble can>"
    " <TrigNegation not> <TargNOTAble hand> over Dr. Khan to them ."
)


def run(*args):
    return main([str(a) for a in args])


def test_structure_mode_matches_golden_standoff(tmp_path):
    out = tmp_path / "tagged.ptb"
    standoff = tmp_path / "standoff.tsv"
    code = run(
        "tag", "--mode", "structure", "--lexicon", seed_lexicon_path(),
        "--in", TREES, "--out", out, "--standoff", standoff,
    )
    assert code == 0
    assert standoff.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("copies", [1, 40], ids=["x1", "x40"])
def test_structure_mode_matches_golden_trees(tmp_path, copies):
    out = tmp_path / "tagged.ptb"
    assert run(
        "tag", "--mode", "structure", "--lexicon", seed_lexicon_path(),
        "--in", _repeated_corpus(tmp_path, copies) / "trees.ptb", "--out", out,
    ) == 0
    assert out.read_bytes() == GOLDEN_TAGGED.read_bytes() * copies


def test_structure_mode_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.ptb"
        standoff = tmp_path / f"{name}.tsv"
        assert run(
            "tag", "--mode", "structure", "--lexicon", seed_lexicon_path(),
            "--in", TREES, "--out", out, "--standoff", standoff,
        ) == 0
        outs.append(out.read_bytes() + standoff.read_bytes())
    assert outs[0] == outs[1]


def test_string_mode_inline_reproduces_first_sentence(tmp_path):
    out = tmp_path / "inline.txt"
    assert run(
        "tag", "--mode", "string", "--lexicon", seed_lexicon_path(),
        "--in", TOKENS, "--out", out, "--inline",
    ) == 0
    first = out.read_text().splitlines()[0]
    assert first == FIG1_LINE


@pytest.mark.parametrize(
    "inline, golden",
    [([], GOLDEN_STRING_TOKENS), (["--inline"], GOLDEN_STRING_INLINE)],
    ids=["tokens", "inline"],
)
def test_string_mode_matches_golden_output_and_standoff(tmp_path, inline, golden):
    out = tmp_path / "out"
    standoff = tmp_path / "standoff.tsv"
    assert run(
        "tag", "--mode", "string", "--lexicon", seed_lexicon_path(),
        "--in", TOKENS, "--out", out, "--standoff", standoff, *inline,
    ) == 0
    assert out.read_bytes() == golden.read_bytes()
    assert standoff.read_bytes() == GOLDEN_STRING_STANDOFF.read_bytes()


def test_tag_empty_input(tmp_path):
    empty = tmp_path / "empty.ptb"
    empty.write_text("")
    out = tmp_path / "out.ptb"
    standoff = tmp_path / "out.tsv"
    assert run(
        "tag", "--mode", "structure", "--lexicon", seed_lexicon_path(),
        "--in", empty, "--out", out, "--standoff", standoff,
    ) == 0
    assert out.read_text() == ""
    assert standoff.read_text() == ""


def test_tag_bad_input_exits_2(tmp_path):
    bad = tmp_path / "bad.ptb"
    bad.write_text("(S (NP broken")
    assert run(
        "tag", "--mode", "structure", "--lexicon", seed_lexicon_path(),
        "--in", bad, "--out", tmp_path / "x",
    ) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["tag", "--mode", "structure", "--lexicon", seed_lexicon_path(), "--in"],
        ["tag", "--mode", "string", "--lexicon", seed_lexicon_path(), "--in"],
        ["graft", "--standoff", GOLDEN, "--report", os.devnull, "--trees"],
        ["flatten", "--in"],
        ["preprocess", "--in"],
    ],
    ids=["tag-structure", "tag-string", "graft", "flatten", "preprocess"],
)
@pytest.mark.parametrize(
    "content, where", [(b"(S (NP (DT a)\n", "line 1"), (b"(S (NN \xff))\n", "position 7")]
)
def test_bad_input_file_exits_2_naming_file_and_line(tmp_path, caplog, command, content, where):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    assert run(*command, bad, "--out", tmp_path / "out") == 2
    assert f"{bad}: " in caplog.text
    assert where in caplog.text


@pytest.mark.parametrize(
    "command",
    [
        ["graft", "--standoff", GOLDEN, "--report", os.devnull, "--trees"],
        ["flatten", "--in"],
    ],
    ids=["graft", "flatten"],
)
def test_tree_label_after_a_child_exits_2_naming_file_and_line(tmp_path, caplog, command):
    # Once read as (S (NP (DT the))), and flattened or grafted as such.
    bad = tmp_path / "bad.ptb"
    bad.write_text("(S (NN a))\n(S ((DT the) NP))\n")
    out = tmp_path / "out"
    assert run(*command, bad, "--out", out) == 2
    assert f"{bad}: line 2: missing label at offset 14" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "token", ["", " ", "a b"], ids=["empty", "space", "inner-space"]
)
def test_token_that_would_shift_inline_output_exits_2_naming_file_and_line(
    tmp_path, caplog, token
):
    # An empty token once wrote "I  <TrigWant want> ...": one word short.
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"I\tPRP\n{token}\tNN\nwant\tVBP\nto\tTO\ngo\tVB\n")
    out = tmp_path / "out.txt"
    assert run(
        "tag", "--mode", "string", "--lexicon", seed_lexicon_path(),
        "--in", bad, "--out", out, "--inline",
    ) == 2
    assert f"{bad}: token line 2: bad token {token!r}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "tree, word",
    [
        ("(S (NP (NNP John)) (VP (VB hand AUX) (NP (NN TrigRequire))))", "AUX"),
        ("(S (NP (NNP John)) (VP (VBZ is) (ADJP TargAble VoicePassive)))", "TargAble"),
    ],
    ids=["aux", "tag-and-passive"],
)
@pytest.mark.parametrize("inline", [[], ["--inline"]], ids=["tree", "inline"])
def test_input_word_spelled_like_a_marker_exits_2_naming_file_and_sentence(
    tmp_path, caplog, tree, word, inline
):
    """The tagger would take such a word for an inserted marker and drop
    it from the output."""
    bad = tmp_path / "bad.ptb"
    bad.write_text(f"(S (NP (NNP John)) (VP (VBD left)))\n{tree}\n")
    out = tmp_path / "out.txt"
    assert run(
        "tag", "--mode", "structure", "--lexicon", seed_lexicon_path(),
        "--in", bad, "--out", out, *inline,
    ) == 2
    assert f"{bad}: sentence 1: word {word!r} is spelled like a marker" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, text, word",
    [
        ("string", "I\tPRP\nwant\tVBP\nto\tTO\ngo\tVB\n\na\tDT\n<\tSYM\nb\tNN\n", "<"),
        ("string", "I\tPRP\nwant\tVBP\nto\tTO\ngo\tVB\n\nx\tNN\n->\tSYM\n", "->"),
        ("structure", "(S (NP (PRP I)) (VP (VBP left)))\n(S (NP (NN <b)) (VBD left))\n", "<b"),
        ("structure", "(S (NP (PRP I)) (VP (VBP left)))\n(S (NP (NN a>)) (VBD left))\n", "a>"),
    ],
    ids=["string-open", "string-close", "structure-open", "structure-close"],
)
def test_inline_word_spelled_like_a_bracket_exits_2_naming_file_and_sentence(
    tmp_path, caplog, mode, text, word
):
    """``parse_inline`` would read such a word as a tag bracket: ``a < b``
    once read back as an unclosed tag, ``x ->`` as an unbalanced one."""
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    out = tmp_path / "out.txt"
    assert run(
        "tag", "--mode", mode, "--lexicon", seed_lexicon_path(),
        "--in", bad, "--out", out, "--inline",
    ) == 2
    assert f"{bad}: sentence 1: word {word!r} is spelled like an inline bracket" in caplog.text
    assert not out.exists()
    # Without --inline the word is written as it is.
    assert run(
        "tag", "--mode", mode, "--lexicon", seed_lexicon_path(), "--in", bad, "--out", out,
    ) == 0
    assert word in out.read_text()


@pytest.mark.parametrize("command", ["tag", "graft"])
def test_failing_run_writes_no_output_and_leaves_an_old_out_as_it_was(
    tmp_path, caplog, command
):
    """All or nothing: a run that fails on its second sentence writes none
    of its outputs, and an ``--out`` already on disk keeps its bytes."""
    bad = tmp_path / "bad.txt"
    out, side = tmp_path / "out", tmp_path / "side"
    old = b"(S (NN kept))\n"
    out.write_bytes(old)
    if command == "tag":
        first = TREES.read_text().split("\n", 1)[0]
        bad.write_text(f"{first}\n(S (NP (NNP John)) (VP (VB hand AUX)))\n")
        args = ["--mode", "structure", "--lexicon", seed_lexicon_path(), "--in", bad]
        args += ["--standoff", side]
    else:
        bad.write_text("0\t0\t1\tTargAble\tMN\n1\t0\t99\tTargAble\tMN\n")
        args = ["--trees", TREES, "--standoff", bad, "--report", side]
    assert run(command, *args, "--out", out) == 2
    assert f"{bad}: sentence 1: " in caplog.text
    assert out.read_bytes() == old
    assert not side.exists()


@pytest.mark.parametrize(
    "command, flag", [("tag", "--standoff"), ("graft", "--report")], ids=["tag", "graft"]
)
def test_two_outputs_that_name_one_file_exit_2_and_leave_it_as_it_was(
    tmp_path, caplog, command, flag
):
    """One file named twice, here through a symlink: else the output written
    second would replace the first.  A file already there keeps its bytes."""
    out, link = tmp_path / "out", tmp_path / "link"
    old = b"(S (NN kept))\n"
    out.write_bytes(old)
    link.symlink_to(out)
    if command == "tag":
        args = ["--mode", "structure", "--lexicon", seed_lexicon_path(), "--in", TREES]
    else:
        args = ["--trees", TREES, "--standoff", GOLDEN]
    assert run(command, *args, "--out", out, flag, link) == 2
    assert f"--out and {flag} name one file: {out}" in caplog.text
    assert out.read_bytes() == old


@pytest.mark.parametrize(
    "command",
    [
        ["lexicon", "validate"],
        ["tag", "--mode", "string", "--in", TOKENS, "--out", os.devnull, "--lexicon"],
        ["rules", "--out", os.devnull, "--lexicon"],
    ],
    ids=["lexicon-validate", "tag-string", "rules"],
)
def test_lexicon_not_utf8_exits_2_naming_file(tmp_path, caplog, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"String: \xff\n")
    assert run(*command, bad) == 2
    assert f"{bad}: 'utf-8' codec can't decode byte 0xff in position 8" in caplog.text


def test_unknown_subcat_code_exits_2_naming_file_line_and_record(tmp_path, caplog):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(
        "# comment\nString: x\nPos: NN\nModality: Able\n\n"
        "String: frob\nPos: VB\nModality: Able\nSubcat: NO-SUCH-CODE\n"
    )
    assert run("rules", "--lexicon", lexicon, "--out", tmp_path / "r") == 2
    assert run(
        "tag", "--mode", "structure", "--lexicon", lexicon, "--in", TREES, "--out", tmp_path / "t",
    ) == 2
    message = f"{lexicon}: line 6: record 2: no template for subcat code 'NO-SUCH-CODE'"
    assert caplog.text.count(message) == 2


def _nonce_padded_lexicon():
    """The seed lexicon plus four entries for words no corpus tree holds,
    and those four entries."""
    from dataclasses import replace

    from mntag.lexicon import Lexicon, load_lexicon_file

    seed = load_lexicon_file(seed_lexicon_path())
    nonce = tuple(
        replace(e, surface=word, head=word, extras=())
        for e, word in zip(
            [e for e in seed.entries if len(e.words) == 1], ["zqa", "zqb", "zqc", "zqd"]
        )
    )
    return Lexicon(seed.entries + nonce), nonce


def test_structure_tag_counts_the_benchmark_trace_check_relies_on(tmp_path, monkeypatch):
    """``mn tag`` gives the tagger every rule for every sentence, and the
    tagger calls ``match`` once per rule plus once per rewrite; every
    rewrite is a fired rule, and a rule ``match`` turns down without a
    walk still costs one call.  Rules hold the nonce entries' forms
    beside the seed's, yet no rewrite's trigger is a nonce word."""
    from mntag import cli, matcher, rulegen
    from mntag.lexicon import dump_lexicon

    padded, nonce = _nonce_padded_lexicon()
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(dump_lexicon(padded))

    offered: list[int] = []
    triggers: list[str] = []
    counts = {"match": 0, "walk": 0, "rewrite": 0, "fired": 0}
    tag_structure, match, walk, apply = (
        cli.taggers.tag_structure, matcher.match, matcher._walk, matcher.apply
    )

    def counting_tag_structure(tree, rules, sentence=0):
        offered.append(len(rules))
        result = tag_structure(tree, rules, sentence=sentence)
        counts["fired"] += len(result.fired_rules)
        return result

    def counting_match(rule, tree):
        counts["match"] += 1
        return match(rule, tree)

    def counting_walk(rule, tree):
        counts["walk"] += 1
        return walk(rule, tree)

    def counting_apply(rule, tree, on_rewrite=None):
        def counted(m, before):
            counts["rewrite"] += 1
            triggers.extend(rulegen.word_tokens(m.captures["trigger"]))
            if on_rewrite is not None:
                on_rewrite(m, before)

        return apply(rule, tree, on_rewrite=counted)

    monkeypatch.setattr(cli.taggers, "tag_structure", counting_tag_structure)
    monkeypatch.setattr(matcher, "match", counting_match)
    monkeypatch.setattr(matcher, "_walk", counting_walk)
    monkeypatch.setattr(matcher, "apply", counting_apply)
    standoff = tmp_path / "out.tsv"
    assert run(
        "tag", "--mode", "structure", "--lexicon", lexicon,
        "--in", TREES, "--out", tmp_path / "out.ptb", "--standoff", standoff,
    ) == 0
    assert standoff.read_bytes() == GOLDEN.read_bytes()
    rules = len(rulegen.expand_templates(padded, rulegen.default_registry()))
    assert offered == [rules] * 25
    assert counts["match"] == rules * 25 + counts["rewrite"]
    assert counts["rewrite"] == counts["fired"] == len(triggers) > 0
    assert counts["walk"] < counts["match"]
    nonce_forms = {form for e in nonce for form in rulegen.inflections(e)}
    assert not nonce_forms & set(triggers)


def test_unfiltered_structure_tag_counts_the_benchmark_trace_check_relies_on(monkeypatch):
    """Given every rule, as the benchmark's per-sentence loop gives them,
    the tagger calls ``match`` once per rule plus once per rewrite: a
    rule ``match`` turns down without a walk still costs one call."""
    from mntag import matcher, rulegen, taggers, trees

    padded, _ = _nonce_padded_lexicon()
    rules = rulegen.expand_templates(padded, rulegen.default_registry())
    counts = {"match": 0, "walk": 0, "rewrite": 0, "fired": 0}
    match, walk, apply = matcher.match, matcher._walk, matcher.apply

    def counting_match(rule, tree):
        counts["match"] += 1
        return match(rule, tree)

    def counting_walk(rule, tree):
        counts["walk"] += 1
        return walk(rule, tree)

    def counting_apply(rule, tree, on_rewrite=None):
        def counted(m, before):
            counts["rewrite"] += 1
            if on_rewrite is not None:
                on_rewrite(m, before)

        return apply(rule, tree, on_rewrite=counted)

    monkeypatch.setattr(matcher, "match", counting_match)
    monkeypatch.setattr(matcher, "_walk", counting_walk)
    monkeypatch.setattr(matcher, "apply", counting_apply)
    for k, tree in enumerate(trees.read_ptb_file(TREES)):
        matches, rewrites = counts["match"], counts["rewrite"]
        result = taggers.tag_structure(rulegen.preprocess(trees.flatten(tree)), rules, k)
        counts["fired"] += len(result.fired_rules)
        assert counts["match"] - matches == len(rules) + counts["rewrite"] - rewrites
    assert counts["rewrite"] == counts["fired"] > 0
    assert counts["walk"] < counts["match"]


def test_graft_pipeline_and_report(tmp_path):
    out = tmp_path / "grafted.ptb"
    report = tmp_path / "report.txt"
    code = run(
        "graft", "--trees", TREES, "--standoff", GOLDEN, "--standoff", NE,
        "--order", "NE,MN", "--out", out, "--report", report,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 25
    assert "VBN-TargNOTAble solved" in lines[4]
    assert "NNP-GPE" in lines[2] or "NP-GPE" in lines[2]
    text = report.read_text()
    for key in ("grafted-exact", "grafted-inserted", "overlaid", "crossing-skipped",
                "composed", "dropped-uncomposable"):
        assert f"{key}: " in text


@pytest.mark.parametrize(
    "source, copies",
    [(TREES, 1), (TREES, 40), (GOLDEN_GRAFTED, 1)],
    ids=["corpus", "corpus-x40", "regraft"],
)
def test_graft_matches_golden_fixture(tmp_path, source, copies):
    """Also on the corpus 40 times over, read in many 4 KiB chunks, and on
    the grafted golden: grafting it again with the same standoff changes
    nothing."""
    d = _repeated_corpus(tmp_path, copies, source)
    out = tmp_path / "grafted.ptb"
    report = tmp_path / "report.txt"
    assert run(
        "graft", "--trees", d / "trees.ptb", "--standoff", d / GOLDEN.name,
        "--standoff", d / NE.name, "--order", "NE,MN", "--out", out, "--report", report,
    ) == 0
    assert out.read_bytes() == GOLDEN_GRAFTED.read_bytes() * copies
    if copies == 1:
        assert report.read_bytes() == GOLDEN_GRAFT_REPORT.read_bytes()


def test_graft_no_annotations_byte_identical(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    out = tmp_path / "grafted.ptb"
    assert run(
        "graft", "--trees", TREES, "--standoff", empty,
        "--out", out, "--report", tmp_path / "r.txt",
    ) == 0
    assert out.read_bytes() == TREES.read_bytes()


def test_graft_sentence_count_mismatch_exits_2(tmp_path):
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text("99\t0\t1\tTargAble\tMN\n")
    assert run(
        "graft", "--trees", TREES, "--standoff", rogue,
        "--out", tmp_path / "o.ptb", "--report", tmp_path / "r.txt",
    ) == 2


def test_graft_standoff_past_the_last_tree_exits_2_naming_both_files(tmp_path, caplog):
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text("0\t0\t1\tTargAble\tMN\n99\t0\t1\tTargAble\tMN\n")
    assert run(
        "graft", "--trees", TREES, "--standoff", rogue,
        "--out", tmp_path / "o.ptb", "--report", tmp_path / "r.txt",
    ) == 2
    size = len(trees.read_ptb_file(TREES))
    message = f"{rogue}: sentence 99: sentence counts disagree: {TREES} has {size} trees"
    assert message in caplog.text


@pytest.mark.parametrize(
    "mode, flags, message",
    [
        ("string", ["--rules", TREES], "--rules: not used by --mode string"),
        ("string", ["--registry", "/nonexistent"], "--registry: not used by --mode string"),
        ("structure", ["--rules", "RULES"],
         "--lexicon: not used with --rules, which replaces the generated rules"),
        ("structure", ["--rules", "RULES", "--registry", "/nonexistent"],
         "--lexicon and --registry: not used with --rules"),
    ],
    ids=["string-rules", "string-registry", "structure-rules", "structure-rules-registry"],
)
def test_tag_rule_flags_the_mode_cannot_use_exit_2_naming_them(
    tmp_path, caplog, mode, flags, message
):
    rules = tmp_path / "ok.txt"
    rules.write_text("MD=m !< TrigAble\ninsert (TrigAble) >2 m\n")
    flags = [rules if flag == "RULES" else flag for flag in flags]
    out = tmp_path / "out"
    assert run(
        "tag", "--mode", mode, "--lexicon", seed_lexicon_path(),
        "--in", TOKENS if mode == "string" else TREES, "--out", out, *flags,
    ) == 2
    assert message in caplog.text
    assert not out.exists()


def test_tag_without_lexicon_exits_2_unless_rules_replace_it(tmp_path, caplog):
    for mode, given in (("string", TOKENS), ("structure", TREES)):
        out = tmp_path / mode
        assert run("tag", "--mode", mode, "--in", given, "--out", out) == 2
        assert not out.exists()
    assert caplog.text.count("--lexicon: required unless --rules is given") == 2


def test_graft_negative_sentence_index_exits_2(tmp_path, caplog):
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text("0\t0\t1\tTargAble\tMN\n-1\t0\t1\tTrigAble\tMN\n")
    assert run(
        "graft", "--trees", TREES, "--standoff", rogue,
        "--out", tmp_path / "o.ptb", "--report", tmp_path / "r.txt",
    ) == 2
    assert f"{rogue}: standoff line 2: negative sentence index -1" in caplog.text


def test_negative_span_start_exits_2_naming_file_and_line(tmp_path, caplog):
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text("# comment\n0\t-1\t1\tTrigAble\tMN\n")
    assert run(
        "graft", "--trees", TREES, "--standoff", rogue,
        "--out", tmp_path / "o.ptb", "--report", tmp_path / "r.txt",
    ) == 2
    assert run("agreement", GOLDEN, rogue) == 2
    lines = [l for l in caplog.text.splitlines() if f"{rogue}: standoff line 2: " in l]
    assert len(lines) == 2


@pytest.mark.parametrize(
    "fields, number",
    [("0\t1_0\t1_1", "1_0"), ("0\t\u0663\t4", "\u0663"), ("0\t 1\t2", " 1"), ("+0\t1\t2", "+0")],
    ids=["underscore", "arabic-indic-digit", "space", "plus"],
)
def test_standoff_index_not_plain_digits_exits_2_naming_file_and_line(
    tmp_path, caplog, fields, number
):
    # ``int`` read these as 10, 3, 1 and 0.
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text(f"0\t2\t3\tTargRequire\tMN\n{fields}\tPER\tNE\n", "utf-8")
    out = tmp_path / "o.ptb"
    assert run(
        "graft", "--trees", TREES, "--standoff", rogue,
        "--out", out, "--report", tmp_path / "r.txt",
    ) == 2
    assert run("agreement", GOLDEN, rogue) == 2
    message = f"{rogue}: standoff line 2: bad integer {number!r}"
    assert caplog.text.count(message) == 2
    assert not out.exists()


def test_graft_unknown_family_exits_2_naming_file_and_sentence(tmp_path, caplog):
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text("0\t0\t1\tTargAble\tMN\n3\t0\t1\tPERSON\tXX\n")
    assert run(
        "graft", "--trees", TREES, "--standoff", rogue,
        "--out", tmp_path / "o.ptb", "--report", tmp_path / "r.txt",
    ) == 2
    assert f"{rogue}: sentence 3: annotation family 'XX' not in family order NE,MN" in caplog.text


def test_graft_span_past_sentence_exits_2_naming_file_and_sentence(tmp_path, caplog):
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text("0\t0\t1\tTargAble\tMN\n1\t0\t99\tTargAble\tMN\n")
    assert run(
        "graft", "--trees", TREES, "--standoff", rogue,
        "--out", tmp_path / "o.ptb", "--report", tmp_path / "r.txt",
    ) == 2
    assert f"{rogue}: sentence 1: annotation span Span(start=0, end=99) outside" in caplog.text


def test_graft_names_the_first_sentence_with_a_fault_whatever_its_kind(tmp_path, caplog):
    # Each annotation is checked once, by graft, sentence by sentence: a
    # span fault in one file comes before a family fault later in another.
    spans = tmp_path / "spans.tsv"
    spans.write_text("0\t0\t1\tTargAble\tMN\n1\t0\t99\tTargAble\tMN\n")
    families = tmp_path / "families.tsv"
    families.write_text("3\t0\t1\tPERSON\tXX\n")
    assert run(
        "graft", "--trees", TREES, "--standoff", families, "--standoff", spans,
        "--out", tmp_path / "o.ptb", "--report", tmp_path / "r.txt",
    ) == 2
    assert f"{spans}: sentence 1: annotation span Span(start=0, end=99) outside" in caplog.text
    assert str(families) not in caplog.text


@pytest.mark.parametrize("spans_first", [True, False], ids=["spans-first", "families-first"])
def test_graft_names_the_file_given_first_when_two_have_a_fault_in_one_sentence(
    tmp_path, caplog, spans_first
):
    spans = tmp_path / "spans.tsv"
    spans.write_text("1\t0\t99\tTargAble\tMN\n")
    families = tmp_path / "families.tsv"
    families.write_text("0\t0\t1\tPERSON\tNE\n1\t0\t1\tPERSON\tXX\n")
    first, second = (spans, families) if spans_first else (families, spans)
    assert run(
        "graft", "--trees", TREES, "--standoff", first, "--standoff", second,
        "--out", tmp_path / "o.ptb", "--report", tmp_path / "r.txt",
    ) == 2
    message = {
        spans: "annotation span Span(start=0, end=99) outside sentence of",
        families: "annotation family 'XX' not in family order NE,MN",
    }[first]
    assert f"{first}: sentence 1: {message}" in caplog.text
    assert str(second) not in caplog.text


def test_graft_span_end_is_checked_against_the_sentence_length(tmp_path, caplog):
    size = len(trees.read_ptb_file(TREES)[1].tokens())
    whole = tmp_path / "whole.tsv"
    whole.write_text(f"1\t0\t{size}\tTargAble\tMN\n")
    assert run(
        "graft", "--trees", TREES, "--standoff", whole,
        "--out", tmp_path / "o.ptb", "--report", tmp_path / "r.txt",
    ) == 0
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text(f"1\t1\t{size + 1}\tTargAble\tMN\n")
    assert run(
        "graft", "--trees", TREES, "--standoff", whole, "--standoff", rogue,
        "--out", tmp_path / "o2.ptb", "--report", tmp_path / "r2.txt",
    ) == 2
    message = (
        f"{rogue}: sentence 1: annotation span Span(start=1, end={size + 1})"
        f" outside sentence of {size} tokens"
    )
    assert message in caplog.text
    assert not (tmp_path / "o2.ptb").exists()


@pytest.mark.parametrize(
    "label, span", [("PER(x", "0\t1"), ("", "0\t1"), ("a b", "0\t1"), (")", "0\t2")],
    ids=["paren", "empty", "space", "crossing-span"],
)
def test_standoff_label_a_tree_cannot_carry_exits_2_naming_file_and_line(
    tmp_path, caplog, label, span
):
    rogue = tmp_path / "rogue.tsv"
    rogue.write_text(f"0\t2\t3\tTargRequire\tMN\n0\t{span}\t{label}\tNE\n")
    out = tmp_path / "o.ptb"
    assert run(
        "graft", "--trees", TREES, "--standoff", rogue,
        "--out", out, "--report", tmp_path / "r.txt",
    ) == 2
    assert run("agreement", GOLDEN, rogue) == 2
    message = f"{rogue}: standoff line 2: bad label {label!r}"
    assert caplog.text.count(message) == 2
    assert not out.exists()


def test_graft_family_order_changes_conflict_output(tmp_path):
    conflict = tmp_path / "conflict.tsv"
    # Pakistan in sentence 2 is both GPE and an MN target here.
    conflict.write_text("2\t0\t1\tGPE\tNE\n2\t0\t1\tTargSucceed\tMN\n")
    outputs = {}
    for order in ("NE,MN", "MN,NE"):
        out = tmp_path / f"{order.replace(',', '_')}.ptb"
        assert run(
            "graft", "--trees", TREES, "--standoff", conflict, "--order", order,
            "--out", out, "--report", tmp_path / "r.txt",
        ) == 0
        outputs[order] = out.read_text()
    assert outputs["NE,MN"] != outputs["MN,NE"]
    assert "TargSucceed" in outputs["NE,MN"].splitlines()[2]
    assert "GPE" in outputs["MN,NE"].splitlines()[2]


@pytest.mark.parametrize("copies", [1, 40], ids=["x1", "x40"])
def test_flatten_and_preprocess_commands(tmp_path, copies):
    flat = tmp_path / "flat.ptb"
    assert run("flatten", "--in", _repeated_corpus(tmp_path, copies) / "trees.ptb",
               "--out", flat) == 0
    assert "(VP (MD" not in flat.read_text()
    assert flat.read_bytes() == GOLDEN_FLAT.read_bytes() * copies
    prep = tmp_path / "prep.ptb"
    assert run("preprocess", "--in", flat, "--out", prep) == 0
    assert "AUX" in prep.read_text() and "VoicePassive" in prep.read_text()
    assert prep.read_bytes() == GOLDEN_PREPROCESSED.read_bytes() * copies


def test_rules_command_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.rules", tmp_path / "b.rules"
    assert run("rules", "--lexicon", seed_lexicon_path(), "--out", a) == 0
    assert run("rules", "--lexicon", seed_lexicon_path(), "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "rule V3-passive-basic:Require\n" in a.read_text()


def test_rules_output_matches_golden_rules(tmp_path):
    """``mn rules`` on the shipped seed lexicon, byte for byte."""
    out = tmp_path / "seed.rules"
    assert run("rules", "--lexicon", seed_lexicon_path(), "--out", out) == 0
    assert out.read_bytes() == GOLDEN_RULES.read_bytes()


@pytest.mark.parametrize(
    "file_a, overlap",
    [(GOLDEN, "100.0"), (GOLDEN_STRING_STANDOFF, "59.7")],
    ids=["identical", "string-vs-structure"],
)
def test_agreement_command_reports_100_for_identical(capsys, file_a, overlap):
    assert run("agreement", file_a, GOLDEN) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"overlap: {overlap}"


def test_agreement_command_takes_files_that_end_at_different_sentences(tmp_path, capsys):
    # A standoff file holds no sentence count: one that tags nothing in
    # the last sentence describes the same corpus.
    short = tmp_path / "short.tsv"
    lines = GOLDEN.read_text().splitlines(keepends=True)
    short.write_text("".join(line for line in lines if not line.startswith("24\t")))
    assert run("agreement", short, GOLDEN) == 0
    overlap = float(capsys.readouterr().out.splitlines()[0].removeprefix("overlap: "))
    assert overlap < 100.0


def test_graft_order_naming_a_family_twice_exits_2(tmp_path, caplog):
    out = tmp_path / "grafted.ptb"
    code = run(
        "graft", "--trees", TREES, "--standoff", GOLDEN, "--order", "MN,MN",
        "--out", out, "--report", tmp_path / "report.txt",
    )
    assert code == 2
    assert "family order MN,MN names a family twice" in caplog.text
    assert not out.exists()


def test_lexicon_validate(tmp_path, capsys, caplog):
    assert run("lexicon", "validate", seed_lexicon_path()) == 0
    assert "25 entries" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text("String: x\nPos: NN\nModality: Nope\n")
    assert run("lexicon", "validate", bad) == 2
    # A word the rule text would read as an alternation.
    bad.write_text("# comment\nString: a|VB\nPos: NN\nModality: Able\n")
    assert run("lexicon", "validate", bad) == 2
    assert run("rules", "--lexicon", bad, "--out", tmp_path / "r") == 2
    assert run(
        "tag", "--mode", "structure", "--lexicon", bad, "--in", TREES, "--out", tmp_path / "t",
    ) == 2
    message = f"{bad}: line 2: record 1: word 'a|VB' is not a plain rule atom"
    assert caplog.text.count(message) == 3


def test_duplicate_lexicon_entry_names_line_and_record(tmp_path, caplog):
    record = "String: x\nPos: NN\nModality: Able\n"
    dup = tmp_path / "dup.txt"
    dup.write_text(f"# comment\n{record}\nString: y\nPos: NN\nModality: Able\n\n{record}")
    assert run("lexicon", "validate", dup) == 2
    assert run(
        "tag", "--mode", "structure", "--lexicon", dup, "--in", TREES, "--out", tmp_path / "t",
    ) == 2
    message = f"{dup}: line 10: record 3: duplicate entry 'x'/NN"
    assert caplog.text.count(message) == 2


def test_rules_output_tags_like_generated_rules(tmp_path):
    rules = tmp_path / "seed.rules"
    assert run("rules", "--lexicon", seed_lexicon_path(), "--out", rules) == 0
    outputs = []
    runs = (("generated", ["--lexicon", seed_lexicon_path()]), ("reread", ["--rules", rules]))
    for name, extra in runs:
        out, standoff = tmp_path / f"{name}.ptb", tmp_path / f"{name}.tsv"
        assert run(
            "tag", "--mode", "structure", *extra,
            "--in", TREES, "--out", out, "--standoff", standoff,
        ) == 0
        outputs.append((out.read_bytes(), standoff.read_bytes()))
    assert outputs[0] == outputs[1]


def test_registry_file_is_read_and_checked_at_load(tmp_path, caplog):
    shipped = files("mntag.data").joinpath("templates.txt").read_text("utf-8").rstrip("\n")
    good, default, custom = tmp_path / "good.txt", tmp_path / "a.rules", tmp_path / "b.rules"
    good.write_text(shipped + "\n")
    assert run("rules", "--lexicon", seed_lexicon_path(), "--out", default) == 0
    assert run(
        "rules", "--lexicon", seed_lexicon_path(), "--registry", good, "--out", custom,
    ) == 0
    assert custom.read_bytes() == default.read_bytes()
    # A syntax error in a template no lexicon entry uses.
    bad = tmp_path / "bad.txt"
    bad.write_text(
        shipped + "\n\ntemplate Unused\nMD=trigger < {WORD} $.. (VB=target\n"
        "insert ({TRIG}) >2 trigger\ninsert ({TARG}) >2 target\n"
    )
    assert run(
        "rules", "--lexicon", seed_lexicon_path(), "--registry", bad, "--out", custom,
    ) == 2
    assert run(
        "tag", "--mode", "structure", "--lexicon", seed_lexicon_path(), "--registry", bad,
        "--in", TREES, "--out", tmp_path / "t.ptb",
    ) == 2
    line = len(shipped.splitlines()) + 2
    assert caplog.text.count(f"{bad}: line {line}: template Unused: unexpected end") == 2


def test_rules_override_replaces_generated(tmp_path):
    rules = tmp_path / "own.rules"
    rules.write_text("rule only\nMD=x < must\naugment x TrigBelief\n")
    out = tmp_path / "out.ptb"
    standoff = tmp_path / "out.tsv"
    assert run(
        "tag", "--mode", "structure", "--rules", rules, "--in", TREES, "--out", out, "--standoff", standoff,
    ) == 0
    text = standoff.read_text()
    assert "TrigBelief" in text
    assert "TrigRequire" not in text  # generated rules were not used


def test_two_actions_on_one_capture_record_both_annotations(tmp_path):
    """Each action of a hand-written rule is one annotation, also when
    two actions insert under one capture."""
    trees_in, rules = tmp_path / "in.ptb", tmp_path / "own.rules"
    trees_in.write_text("(S (NP (PRP He)) (MD can) (VB go))\n")
    rules.write_text("rule both\nMD=m !< /^T/ < can\ninsert (TrigAble) >2 m\ninsert (TargAble) >2 m\n")
    out, standoff = tmp_path / "out.ptb", tmp_path / "out.tsv"
    assert run(
        "tag", "--mode", "structure", "--rules", rules, "--in", trees_in, "--out", out, "--standoff", standoff,
    ) == 0
    assert standoff.read_text() == "0\t1\t2\tTargAble\tMN\n0\t1\t2\tTrigAble\tMN\n"
    assert out.read_text() == "(S (NP (PRP He)) (MD-TargAble-TrigAble can) (VB go))\n"


_CAT = "(S (NP (NN cat)) (MD should) (VB go))\n"


@pytest.mark.parametrize(
    "action, message",
    [
        ("insert (TrigAble) >\u0663 x", "unparseable action line"),
        ("insert (TrigAble) >\uff11 x", "unparseable action line"),
        ("insert (Foo) >1 x", "rule bad: insert label 'Foo' is not a marker"),
        ("insert (NN) >1 x", "rule bad: insert label 'NN' is not a marker"),
        ("augment x A-B", "rule bad: augment suffix 'A-B' is not one label segment"),
        ("augment x A(B", "rule bad: augment suffix 'A(B' is not one label segment"),
    ],
)
def test_rule_file_action_the_tagger_cannot_fold_exits_2_naming_file_rule_and_line(
    tmp_path, caplog, action, message
):
    """An insert position in digits other than ASCII, an insert label
    that is not a marker (it would stay in the output as a word and
    shift every later standoff index) and an augment suffix that is not
    one label segment (``A-B`` re-augments until the budget runs out)."""
    trees_in, rules = tmp_path / "in.ptb", tmp_path / "own.rules"
    trees_in.write_text(_CAT)
    rules.write_text(f"rule ok\nMD=m !< TrigRequire < should\ninsert (TrigRequire) >2 m\n\n"
                     f"# the bad rule\nrule bad\nNN=x\n{action}\n")
    assert run(
        "tag", "--mode", "structure", "--rules", rules, "--in", trees_in, "--out", tmp_path / "out.ptb",
    ) == 2
    assert f"{rules}: line 6: " in caplog.text and message in caplog.text


def test_registry_action_the_tagger_cannot_fold_exits_2_naming_file_and_rule(tmp_path, caplog):
    shipped = files("mntag.data").joinpath("templates.txt").read_text("utf-8")
    registry = tmp_path / "templates.txt"
    registry.write_text(
        shipped.replace(
            "insert ({TARG}) >2 target", "insert ({TARG}) >2 target\naugment target A-B", 1
        )
    )
    for command in (
        ["rules", "--out", tmp_path / "r"],
        ["tag", "--mode", "structure", "--in", TREES, "--out", tmp_path / "t"],
    ):
        assert run(*command, "--lexicon", seed_lexicon_path(), "--registry", registry) == 2
    message = f"{registry}: line 18: template V3-passive-basic: augment suffix 'A-B' is not one"
    assert caplog.text.count(message) == 2


@pytest.mark.parametrize(
    "action, message",
    [
        ("augment target A-B", "augment suffix 'A-B' is not one label segment"),
        ("insert (Foo) >1 target", "insert label 'Foo' is not a marker"),
    ],
)
def test_registry_action_in_a_template_no_entry_uses_exits_2(tmp_path, caplog, action, message):
    """Labels are checked when the registry loads, not when a lexicon
    entry binds the template: a template no entry names fails too."""
    shipped = files("mntag.data").joinpath("templates.txt").read_text("utf-8")
    lines = len(shipped.splitlines())
    registry = tmp_path / "templates.txt"
    registry.write_text(
        f"{shipped}\ntemplate Unused\nVB=trigger < {{WORD}} $.. NN=target\n"
        f"insert ({{TRIG}}) >2 trigger\ninsert ({{TARG}}) >2 target\n{action}\n"
    )
    for command in (
        ["rules", "--out", tmp_path / "r"],
        ["tag", "--mode", "structure", "--in", TREES, "--out", tmp_path / "t"],
    ):
        assert run(*command, "--lexicon", seed_lexicon_path(), "--registry", registry) == 2
    assert caplog.text.count(f"{registry}: line {lines + 2}: template Unused: {message}") == 2


def test_structure_mode_inline(tmp_path):
    out = tmp_path / "inline.txt"
    assert run(
        "tag", "--mode", "structure", "--lexicon", seed_lexicon_path(),
        "--in", TREES, "--out", out, "--inline",
    ) == 0
    assert out.read_text().splitlines()[0] == FIG1_LINE


def _repeated_corpus(tmp_path, copies, trees_file=TREES):
    """The corpus files ``copies`` times over, standoff sentences shifted;
    ``trees.ptb`` repeats ``trees_file``, the corpus trees or a golden
    made from them."""
    n = len(TREES.read_text().splitlines())
    d = tmp_path / f"x{copies}"
    d.mkdir()
    (d / "trees.ptb").write_text(trees_file.read_text() * copies)
    (d / "tokens.tsv").write_text("\n".join([TOKENS.read_text()] * copies))
    for source in (GOLDEN, NE):
        rows = []
        for k in range(copies):
            for line in source.read_text().splitlines():
                sentence, rest = line.split("\t", 1)
                rows.append(f"{int(sentence) + k * n}\t{rest}\n")
        (d / source.name).write_text("".join(rows))
    return d


def _cyclic_garbage(argv):
    gc.collect()
    gc.disable()
    try:
        assert run(*argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", ["structure", "string", "graft"])
def test_command_cyclic_garbage_does_not_grow_with_the_corpus(tmp_path, command):
    # ``mn`` pauses the cycle collector, so per-sentence cycles would pile
    # up until the command ends; what is left must not scale with input.
    def argv(d):
        if command == "graft":
            return ["graft", "--trees", d / "trees.ptb", "--standoff", d / GOLDEN.name,
                    "--standoff", d / NE.name, "--out", d / "out", "--report", d / "report"]
        source = d / ("trees.ptb" if command == "structure" else "tokens.tsv")
        return ["tag", "--mode", command, "--lexicon", seed_lexicon_path(), "--in", source,
                "--out", d / "out", "--standoff", d / "standoff"]

    once, eight = _repeated_corpus(tmp_path, 1), _repeated_corpus(tmp_path, 8)
    assert _cyclic_garbage(argv(once)) == _cyclic_garbage(argv(eight))


def _raise_uncaught(tree):
    raise KeyError("boom")


def _raise_budget(tree):
    raise RewriteBudgetError("budget")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "content, flatten, outcome",
    [
        ("(S (NN a))\n", trees.flatten, 0),
        ("(S (NN a)\n", trees.flatten, 2),
        ("(S (NN a))\n", _raise_budget, 1),
        ("(S (NN a))\n", _raise_uncaught, KeyError),
    ],
    ids=["exit-0", "exit-2", "exit-1", "uncaught"],
)
def test_main_restores_the_collector_state(
    tmp_path, monkeypatch, enabled, content, flatten, outcome
):
    source = tmp_path / "in.ptb"
    source.write_text(content)
    monkeypatch.setattr(trees, "flatten", flatten)
    argv = ["flatten", "--in", source, "--out", tmp_path / "out"]
    if not enabled:
        gc.disable()
    try:
        if isinstance(outcome, int):
            assert run(*argv) == outcome
        else:
            with pytest.raises(outcome):
                run(*argv)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
