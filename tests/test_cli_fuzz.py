"""Fuzz the readers of ``mn graft``, of the other tree commands (``mn
tag --mode structure``, ``mn flatten`` and ``mn preprocess``), of ``mn
tag --mode string``, the rule reader of ``mn tag --mode structure
--rules``, and the lexicon and template readers of ``mn lexicon
validate``, ``mn rules`` and ``mn tag --mode structure --registry``
through the command line.

Whatever bytes the tree, standoff, token, rule, lexicon and template
files hold, the command exits 0 or 2, never with an uncaught exception,
and every error it logs on exit 2 names the file at fault.  A rule file
may also hold a rule that rewrites without end, which exits 1 with the
rewrite-budget message alone.
"""

import logging
import tempfile
from importlib.resources import files
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from conftest import DATA, PTB_TREES, ptb_files
from mntag import rulegen, taggers, trees
from mntag.cli import main, seed_lexicon_path
from mntag.lexicon import LexiconError, load_lexicon
from mntag.standoff import parse_standoff

_integers = st.one_of(
    st.integers(-2, 12),
    st.integers(-(10**30), 10**30),
    st.sampled_from(["", "x", "1.5", "1_0", " 3"]),
).map(str)
_labels = st.one_of(
    st.sampled_from(
        ["TargAble", "TrigAble", "TrigNegation", "TargNegation", "TargNOTAble", "PER", "GPE",
         "", "-", "PER(x", ")", "a b", " ", "Trig"]
    ),
    st.text(max_size=4),
)
_families = st.sampled_from(["MN", "NE", "XX", ""])
_wild_records = st.tuples(_integers, _integers, _integers, _labels, _families).map("\t".join)
_plausible_records = st.tuples(
    st.integers(0, 3), st.integers(0, 5), st.integers(1, 3), _labels, st.sampled_from(["MN", "NE"])
).map(lambda r: f"{r[0]}\t{r[1]}\t{r[1] + r[2]}\t{r[3]}\t{r[4]}")
_records = st.one_of(_plausible_records, _wild_records)
_lines = st.one_of(
    _records, st.sampled_from(["", "# comment", "0\t1", "0\t0\t1\tPER\tNE\textra", "(", "\xff"])
)

standoff_files = st.tuples(
    st.lists(_lines, max_size=6).map("\n".join), st.sampled_from([b"", b"\n", b"\xff\n"])
).map(lambda parts: parts[0].encode("utf-8") + parts[1])


class _Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _offender(tree_path: Path, standoff_path: Path) -> Path:
    """The file ``mn graft`` must blame: the trees if they do not read,
    else the standoff, whose reading and checks come after."""
    try:
        trees.read_ptb(tree_path.read_bytes().decode("utf-8"))
    except ValueError:
        return tree_path
    return standoff_path


@settings(max_examples=300, deadline=None)
@given(ptb_files, standoff_files)
@example(PTB_TREES[0], b"0\t0\t1\tPER(x\tNE\n")  # a label no tree node can carry
def test_graft_exits_0_or_2_and_names_the_bad_file(tree_bytes, standoff_bytes):
    errors = _Errors()
    log = logging.getLogger("mn")
    log.addHandler(errors)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tree_path, standoff_path = Path(tmp, "in.ptb"), Path(tmp, "in.tsv")
            tree_path.write_bytes(tree_bytes)
            standoff_path.write_bytes(standoff_bytes)
            code = main(
                ["graft", "--trees", str(tree_path), "--standoff", str(standoff_path),
                 "--out", str(Path(tmp, "out.ptb")), "--report", str(Path(tmp, "report.txt"))]
            )
            assert code in (0, 2)
            if code == 0:
                assert not errors.messages
                grafted = trees.read_ptb(Path(tmp, "out.ptb").read_text("utf-8"))
                source = trees.read_ptb(tree_bytes.decode("utf-8"))
                assert [t.tokens() for t in grafted] == [t.tokens() for t in source]
                report = Path(tmp, "report.txt").read_text("utf-8")
                total = sum(int(line.split(": ")[1]) for line in report.splitlines())
                assert total == len(parse_standoff(standoff_bytes.decode("utf-8")))
            else:
                assert errors.messages
                bad = _offender(tree_path, standoff_path)
                for message in errors.messages:
                    assert str(bad) in message, message
    finally:
        log.removeHandler(errors)


@settings(max_examples=300, deadline=None)
@given(ptb_files, st.booleans())
@example(PTB_TREES[1] + b"(S (NN a)\n", False)  # a tree that does not read, after one that does
def test_tree_commands_exit_0_or_2_and_name_the_tree_file(tree_bytes, inline):
    """``mn tag --mode structure``, ``mn flatten`` and ``mn preprocess``
    read the tree file as ``mn graft`` does, one record at a time."""
    errors = _Errors()
    log = logging.getLogger("mn")
    log.addHandler(errors)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            source, out, standoff = Path(tmp, "in.ptb"), Path(tmp, "out"), Path(tmp, "out.tsv")
            source.write_bytes(tree_bytes)
            runs = [
                ["tag", "--mode", "structure", "--lexicon", seed_lexicon_path(), "--in",
                 str(source), "--out", str(out), "--standoff", str(standoff)]
                + ["--inline"] * inline,
                ["flatten", "--in", str(source), "--out", str(out)],
                ["preprocess", "--in", str(source), "--out", str(out)],
            ]
            for argv in runs:
                errors.messages.clear()
                code = main(argv)
                assert code in (0, 2), argv
                if code == 0:
                    assert not errors.messages
                else:
                    assert errors.messages
                    for message in errors.messages:
                        assert str(source) in message, message
    finally:
        log.removeHandler(errors)


_words = st.one_of(
    st.sampled_from(["I", "want", "to", "go", "can", "not", "must", "", " ", "a b", "\xa0"]),
    st.text(max_size=3),
)
_pos = st.sampled_from(["PRP", "VBP", "TO", "VB", "MD", "RB", "NN", "", "x y"])
_token_lines = st.one_of(
    st.tuples(_words, _pos).map("\t".join),
    st.sampled_from(["", "", "word", "a\tb\tc", "\t", "\tNN", "\xff"]),
)
token_files = st.tuples(
    st.lists(_token_lines, max_size=12).map("\n".join), st.sampled_from([b"", b"\n", b"\xff\n"])
).map(lambda parts: parts[0].encode("utf-8") + parts[1])


@settings(max_examples=300, deadline=None)
@given(token_files)
@example(b"I\tPRP\n\tNN\nwant\tVBP\nto\tTO\ngo\tVB\n")  # an empty token
def test_string_tag_exits_0_or_2_and_names_the_bad_file(token_bytes):
    errors = _Errors()
    log = logging.getLogger("mn")
    log.addHandler(errors)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            source, inline, standoff = Path(tmp, "in.tsv"), Path(tmp, "out.txt"), Path(tmp, "s.tsv")
            source.write_bytes(token_bytes)
            code = main(
                ["tag", "--mode", "string", "--lexicon", seed_lexicon_path(), "--in", str(source),
                 "--out", str(inline), "--standoff", str(standoff), "--inline"]
            )
            assert code in (0, 2)
            if code == 0:
                assert not errors.messages
                # Each token stays one word of the inline line, beside one
                # ``<Tag`` word per annotation.
                sentences = taggers.read_token_tsv(token_bytes.decode("utf-8"))
                annotations = parse_standoff(standoff.read_text("utf-8"))
                lines = inline.read_text("utf-8").splitlines()
                assert len(lines) == len(sentences)
                for i, (line, sentence) in enumerate(zip(lines, sentences)):
                    opened = sum(1 for a in annotations if a.sentence == i)
                    assert len(line.split()) == len(sentence) + opened, line
            else:
                assert errors.messages
                for message in errors.messages:
                    assert str(source) in message, message
    finally:
        log.removeHandler(errors)


_GOOD_RULES = [
    "rule must\nMD=m !< /^Trig/ < can $.. (VP < (VB=v !< /^Targ/))\n"
    "insert (TrigAble) >2 m\ninsert (TargAble) >2 v",
    "rule mark\nNN=x !< TargWant\naugment x TargWant",
    "rule forever\nNN=x\ninsert (TrigAble) >1 x",
]
_pattern_pieces = st.sampled_from(
    ["NN", "MD", "VP", "S", "can", "cat", "a", "x", "/^V/", "/^Trig/", "/^[/", "/x/", "(", ")",
     "<", "!<", "$..", "=x", "=m", "|", "NN|MD", "a=b=c", "TrigAble", "AUX", "\u00e9"]
)
_action_labels = st.one_of(
    st.sampled_from(
        ["TrigAble", "TargNOTAble", "AUX", "VoicePassive", "Foo", "NN", "A-B", "A(B", "A)B", "",
         "x y", "Trig", "TrigAble-TargAble"]
    ),
    st.text(max_size=3),
)
_positions = st.one_of(
    st.integers(0, 3).map(str), st.sampled_from(["\u0663", "\uff11", "1_0", "-1", "", "x"])
)
_captures = st.sampled_from(["x", "m", "v", ""])
_actions = st.one_of(
    st.tuples(_action_labels, _positions, _captures).map(
        lambda a: f"insert ({a[0]}) >{a[1]} {a[2]}"
    ),
    st.tuples(_captures, _action_labels).map(lambda a: f"augment {a[0]} {a[1]}"),
)
_wild_rules = st.tuples(
    st.sampled_from(["", "rule r\n", "rule \n", "# comment\n"]),
    st.lists(_pattern_pieces, min_size=1, max_size=8).map(" ".join),
    st.lists(_actions, max_size=2),
).map(lambda r: r[0] + r[1] + "".join("\n" + action for action in r[2]))

rule_files = st.tuples(
    st.lists(st.one_of(st.sampled_from(_GOOD_RULES), _wild_rules), max_size=3).map("\n\n".join),
    st.sampled_from([b"", b"\n", b"\xff\n"]),
).map(lambda parts: parts[0].encode("utf-8") + parts[1])

_BUDGET_MESSAGE = "rule application failed: rule "


@settings(max_examples=300, deadline=None)
@given(rule_files)
# Insert positions in Arabic-Indic and in fullwidth digits.
@example(b"NN=x !< /^Trig/\ninsert (TrigAble) >\xd9\xa3 x\n")
@example("NN=x !< /^Trig/\ninsert (TrigAble) >\uff11 x\n".encode())
@example(b"NN=x !< Foo\ninsert (Foo) >1 x\n")  # an insert label that is not a marker
@example(b"NN=x\naugment x A-B\n")  # an augment suffix of two label segments
@example(b"NN=x\naugment x A(B\n")  # ... holding a character no label may hold
@example(b"rule forever\nNN=x\ninsert (TrigAble) >1 x\n")  # rewrites without end
def test_structure_tag_rules_exit_0_1_or_2_and_name_the_bad_file(rule_bytes):
    errors = _Errors()
    log = logging.getLogger("mn")
    log.addHandler(errors)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            source, rules = Path(tmp, "in.ptb"), Path(tmp, "own.rules")
            out, standoff = Path(tmp, "out.ptb"), Path(tmp, "out.tsv")
            source.write_bytes(b"".join(PTB_TREES))
            rules.write_bytes(rule_bytes)
            code = main(
                ["tag", "--mode", "structure", "--rules", str(rules), "--in", str(source),
                 "--out", str(out), "--standoff", str(standoff)]
            )
            assert code in (0, 1, 2)
            if code == 0:
                assert not errors.messages
                # Every insert is a marker the output folds away.
                tagged = trees.read_ptb(out.read_text("utf-8"))
                words = [t.tokens() for t in trees.read_ptb(source.read_text("utf-8"))]
                assert [rulegen.word_tokens(t) for t in tagged] == words
                for a in parse_standoff(standoff.read_text("utf-8")):
                    assert a.span.end <= len(words[a.sentence])
            elif code == 1:
                assert len(errors.messages) == 1
                assert errors.messages[0].startswith(_BUDGET_MESSAGE), errors.messages
                assert "exceeded its rewrite budget" in errors.messages[0]
            else:
                assert errors.messages
                for message in errors.messages:
                    assert str(rules) in message, message
    finally:
        log.removeHandler(errors)


_SEED_LEXICON_LINES = Path(seed_lexicon_path()).read_text("utf-8").splitlines()
_TEMPLATE_LINES = files("mntag.data").joinpath("templates.txt").read_text("utf-8").splitlines()
#: Lines a lexicon edit may put in: bad and good fields, unknown keys,
#: codes and modalities, words rule text cannot spell, forms spelled
#: like tested atoms, and lines that are not fields.
_LEXICON_PIECES = [
    "", "# comment", " # not a comment", "no colon", ":", "String:", "String: need",
    "String: a(b", "String: two words", "Pos:", "Pos: VB", "Pos: MD", "Pos: VB VB", " Pos : JJ",
    "Modality:", "Modality: Able", "Modality: Nope", "Modality: FirmBelief", "Trigger:",
    "Trigger: zz", "Trigger: need", "Subcat:", "Subcat: Nope-code",
    "Subcat: Modal-auxiliary-basic -- He can go.", "Subcat: V3-I3-basic", "Forms: MD for",
    "Forms: IN NN can", "Forms: a|b", "Forms: /x/", "Forms: $..", "Gloss: extra", "\xa0",
]
_TEMPLATE_PIECES = [
    "", "# comment", "template X", "template V3-I3-basic", "template Modal-auxiliary-basic",
    "/^VB/=trigger !< /^Trig/ < {WORD} $.. (S < (/^VB/=target !< AUX))",
    "MD=trigger !< /^Trig/ < {WORD}", "NN=trigger !< /^Trig/ < (", "insert ({TRIG}) >2 trigger",
    "insert ({TARG}) >2 target", "insert (Foo) >2 trigger", "augment target A-B",
    "augment target {TARG}", "insert ({WORD}) >2 trigger", "{TRIG}",
]


def _edited(lines: list[str], pieces: list[str]):
    """A file's lines after a few random line edits, with its line ends
    and a possible bad byte at the end."""
    edit = st.tuples(
        st.sampled_from(["delete", "insert", "replace", "duplicate"]),
        st.integers(0, 10**4),
        st.sampled_from(pieces),
    )

    def apply(args) -> bytes:
        edits, end, tail = args
        out = list(lines)
        for kind, at, piece in edits:
            at %= len(out) + 1
            if kind == "insert":
                out.insert(at, piece)
            elif at < len(out):
                if kind == "delete":
                    del out[at]
                elif kind == "replace":
                    out[at] = piece
                else:
                    out.insert(at, out[at])
        return end.join(out).encode("utf-8") + tail

    return st.tuples(
        st.lists(edit, max_size=4),
        st.sampled_from(["\n", "\r\n"]),
        st.sampled_from([b"", b"\n", b"\xff\n"]),
    ).map(apply)


lexicon_files = _edited(_SEED_LEXICON_LINES, _LEXICON_PIECES)
template_files = _edited(_TEMPLATE_LINES, _TEMPLATE_PIECES)


def _tag_offender(lexicon_path: Path, registry_path: Path) -> Path:
    """The file ``mn tag`` must blame, in the order it reads them: the
    lexicon, the registry, a subcat code the registry lacks (the
    lexicon's), then an action label the output cannot fold (the
    registry's)."""
    try:
        lexicon = load_lexicon(lexicon_path.read_bytes().decode("utf-8"))
    except ValueError:
        return lexicon_path
    try:
        registry = rulegen.load_registry(registry_path.read_bytes().decode("utf-8"))
    except ValueError:
        return registry_path
    try:
        rulegen.expand_templates(lexicon, registry)
    except LexiconError:
        return lexicon_path
    return registry_path


_SHIPPED_TEMPLATES = "\n".join(_TEMPLATE_LINES).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(lexicon_files, template_files)
# A record with no surface word and no Trigger to take as its head.
@example(b"String:\nPos:\nModality: Able\n", _SHIPPED_TEMPLATES)
@example(b"String:\nPos: VB\nModality: Able\nSubcat: V3-I3-basic\n", _SHIPPED_TEMPLATES)
def test_lexicon_and_template_readers_exit_0_or_2_and_name_the_bad_file(
    lexicon_bytes, template_bytes
):
    """``mn lexicon validate``, ``mn rules`` and ``mn tag --mode structure``
    on edited copies of the shipped lexicon and templates."""
    errors = _Errors()
    log = logging.getLogger("mn")
    log.addHandler(errors)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            lexicon, registry = Path(tmp, "lex.txt"), Path(tmp, "templates.txt")
            lexicon.write_bytes(lexicon_bytes)
            registry.write_bytes(template_bytes)
            out, standoff = Path(tmp, "out"), Path(tmp, "out.tsv")
            runs = [
                (["lexicon", "validate", str(lexicon)], lexicon),
                (["rules", "--lexicon", str(lexicon), "--out", str(out)], lexicon),
                (["tag", "--mode", "structure", "--lexicon", str(lexicon), "--registry",
                  str(registry), "--in", str(DATA / "corpus_trees.ptb"), "--out", str(out),
                  "--standoff", str(standoff)], _tag_offender(lexicon, registry)),
            ]
            for argv, offender in runs:
                errors.messages.clear()
                code = main(argv)
                assert code in (0, 2), argv
                if code == 0:
                    assert not errors.messages
                else:
                    assert errors.messages
                    for message in errors.messages:
                        assert str(offender) in message, message
    finally:
        log.removeHandler(errors)
