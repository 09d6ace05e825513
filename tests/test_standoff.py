"""``parse_standoff`` against a per-line reference reader, and the value
semantics of ``StandoffAnnotation`` and the other ``trees.Value`` classes."""

import copy
import dataclasses
import pickle
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mntag.standoff
from conftest import DATA
from mntag.standoff import StandoffAnnotation, parse_standoff
from mntag.trees import LABEL_BAD, ParseTree, Span


def _reference_parse_standoff(text: str) -> list[StandoffAnnotation]:
    """One check and one record per line, over every line at once."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"standoff line {lineno}: expected 5 tab-separated fields")
        sentence, start, end, label, family = parts
        if not label or LABEL_BAD.search(label):
            raise ValueError(f"standoff line {lineno}: bad label {label!r}")
        for number in (sentence, start, end):
            if not mntag.standoff._INDEX.fullmatch(number):
                raise ValueError(f"standoff line {lineno}: bad integer {number!r}")
        try:
            ann = StandoffAnnotation(int(sentence), Span(int(start), int(end)), label, family)
        except ValueError as exc:
            raise ValueError(f"standoff line {lineno}: {exc}") from None
        if ann.sentence < 0:
            raise ValueError(f"standoff line {lineno}: negative sentence index {ann.sentence}")
        out.append(ann)
    return out


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


# Few spellings, so that most lines repeat fields an earlier line accepted
# and each kind of fault lands among them.
_INTEGERS = ["0", "1", "2", "5", "300", "007", "-0", "-1", "1_0", "٣", "x", ""]
_LABELS = ["TrigAble", "TargNOTAble", "GPE", "X Y", "a(b", ""]
_FAMILIES = ["MN", "NE", "X Y", ""]
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " "]

_records = st.tuples(
    st.sampled_from(_INTEGERS),
    st.sampled_from(_INTEGERS),
    st.sampled_from(_INTEGERS),
    st.sampled_from(_LABELS),
    st.sampled_from(_FAMILIES),
).map("\t".join)
_lines = st.one_of(
    _records,
    _records.map(lambda line: f" {line}\t"),
    _records.map(lambda line: line.rsplit("\t", 1)[0]),
    st.sampled_from(["", "  ", "# a comment", "#", "\t"]),
)
standoff_texts = st.lists(st.tuples(_lines, st.sampled_from(_SEPARATORS)), max_size=30).map(
    lambda pairs: "".join(line + sep for line, sep in pairs)
)

_ACCEPTED = "0\t1\t2\tTrigAble\tMN\n3\t5\t7\tX\tX Y\n"


@pytest.mark.parametrize("chunk", [1, 2, 7, mntag.standoff._CHUNK])
@settings(max_examples=300, deadline=None)
@given(standoff_texts)
@example(_ACCEPTED + "3\t5\t7\tX Y\tMN\n")  # a family's spelling is no checked label
@example(_ACCEPTED + "0\t1\t2\t\tMN\n")
@example(_ACCEPTED + "0\t1\t2\tTrigAble\n")
@example(_ACCEPTED + "x\t1\t2\tTrigAble\tMN\n")
@example(_ACCEPTED + "0\t1\t02\tTrigAble\tMN\n")
@example(_ACCEPTED + "0\t5\t2\tTrigAble\tMN\n")  # start and end each seen, never as a pair
@example(_ACCEPTED + "-3\t5\t7\tX\tMN\n")
@example(_ACCEPTED + "-0\t5\t7\tX\tMN\n")
@example(_ACCEPTED + "9" * 5000 + "\t1\t2\tTrigAble\tMN\n")  # past int's digit limit
@example(_ACCEPTED + "9" * 5000 + "\tx\t2\tTrigAble\tMN\n")
@example("0\t1\t2\tA\tMN\r\n" * 3 + "0\t2\t1\tA\tMN\r\n")
@example("0\t1\t2\tA\tMN\r\x0b\x1c\x85  \x1d\x1e" + "0\t1\t2\t\tMN")
def test_parse_standoff_matches_the_reference_reader(chunk, text):
    """However small the chunks, lines are numbered as ``splitlines``
    numbers them, and every record and message is the reference's."""
    expected = _outcome(_reference_parse_standoff, text)
    with mock.patch.object(mntag.standoff, "_CHUNK", chunk):
        got = _outcome(parse_standoff, text)
    assert got == expected
    if isinstance(got, list):
        assert [repr(a) for a in got] == [repr(a) for a in expected]


def test_parse_standoff_peaks_close_to_what_it_keeps():
    """The text is split into lines a chunk at a time, so the lines of the
    whole text are never held at once beside the records built from them."""
    text = ((DATA / "golden_standoff.tsv").read_text() + (DATA / "ne_sample.tsv").read_text()) * 40
    assert len(text) > 2 * mntag.standoff._CHUNK
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        annotations = parse_standoff(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(annotations) == len(text.splitlines())
    assert peak - start <= 1.2 * (kept - start)


_LEAF = ParseTree("DT", (), "a")

# Each ``trees.Value`` class beside the reference for its value semantics,
# a frozen slotted dataclass of the same fields: the fields, one value's
# fields, values that each differ from it in one field, and fields that
# leave out what has a default.
_VALUES = {
    "StandoffAnnotation": (
        StandoffAnnotation,
        [("sentence", int), ("span", Span), ("label", str), ("family", str, "MN")],
        (300, Span(2, 5), "TargNOTAble", "NE"),
        [
            (301, Span(2, 5), "TargNOTAble", "NE"),
            (300, Span(2, 6), "TargNOTAble", "NE"),
            (300, Span(2, 5), "TargAble", "NE"),
            (300, Span(2, 5), "TargNOTAble", "MN"),
        ],
        (0, Span(0, 1), "GPE"),
    ),
    "Span": (Span, [("start", int), ("end", int)], (2, 5), [(1, 5), (2, 6)], (0, 1)),
    "ParseTree": (
        ParseTree,
        [("label", str), ("children", tuple, ()), ("token", object, None)],
        ("NP", (_LEAF,), None),
        [("NX", (_LEAF,), None), ("NP", (ParseTree("DT", (), "b"),), None), ("NP", (), "a")],
        ("DT", (), "a"),
    ),
}


@pytest.mark.parametrize("name", list(_VALUES))
def test_values_have_the_semantics_of_a_frozen_dataclass(name):
    cls, spec, fields, others, short = _VALUES[name]
    dataclass = dataclasses.make_dataclass(name, spec, frozen=True, slots=True)
    value, old = cls(*fields), dataclass(*fields)
    assert repr(value) == repr(old)
    assert repr(cls(*short)) == repr(dataclass(*short))
    assert cls.__match_args__ == dataclass.__match_args__
    assert hash(value) == hash(old)
    twin = cls(**dict(zip(cls.__match_args__, fields)))
    assert twin == value and twin is not value and hash(twin) == hash(value)
    for other in others:
        assert cls(*other) != value
    assert value != old and value.__eq__(old) is NotImplemented
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and repr(clone) == repr(old) and hash(clone) == hash(value)
    for field in (*cls.__match_args__, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
    assert value == cls(*fields)
    # The base spells each of these once, for every value class.
    own = {"__eq__", "__hash__", "__repr__", "__reduce__", "__setattr__", "__delattr__"}
    assert not own & vars(cls).keys()
