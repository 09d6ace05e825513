"""Fuzz the readers of ``mn graft`` through the command line.

Whatever bytes the tree and standoff files hold, ``mn graft`` exits 0
or 2, never with an uncaught exception, and every error it logs on exit
2 names the file at fault.
"""

import logging
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from mntag import taggers, trees
from mntag.cli import main

_TREES = [
    b"(TOP (S (NP (DT the) (NN cat)) (VP (VBD sat) (RB not))))\n",
    b"(S (NP (NNP Khan)) (VP (MD can) (VP (VB go))))\n",
    b"(X a (Y b c))\n",
]
_PTB_PIECES = [
    b"(", b")", b" ", b"\t", b"\n", b"S", b"NN", b"word", b"-LRB-", b"\xff", b"\xc3", "é".encode()
]

ptb_files = st.one_of(
    st.lists(st.sampled_from(_TREES), max_size=4).map(b"".join),
    st.lists(st.sampled_from(_TREES + _PTB_PIECES), max_size=16).map(b"".join),
)

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
@example(_TREES[0], b"0\t0\t1\tPER(x\tNE\n")  # a label no tree node can carry
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
