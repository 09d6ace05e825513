"""Fuzz the readers of ``mn graft``, ``mn tag --mode string`` and the
rule reader of ``mn tag --mode structure --rules`` through the command
line.

Whatever bytes the tree, standoff, token and rule files hold, the
command exits 0 or 2, never with an uncaught exception, and every error
it logs on exit 2 names the file at fault.  A rule file may also hold a
rule that rewrites without end, which exits 1 with the rewrite-budget
message alone.
"""

import logging
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from conftest import PTB_TREES, ptb_files
from mntag import rulegen, taggers, trees
from mntag.cli import main, seed_lexicon_path

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
                assert total == len(taggers.parse_standoff(standoff_bytes.decode("utf-8")))
            else:
                assert errors.messages
                bad = _offender(tree_path, standoff_path)
                for message in errors.messages:
                    assert str(bad) in message, message
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
                annotations = taggers.parse_standoff(standoff.read_text("utf-8"))
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
                for a in taggers.parse_standoff(standoff.read_text("utf-8")):
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
