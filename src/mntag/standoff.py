"""Standoff annotations: one tag over a token span of a sentence, kept
apart from any tree, and the TSV form the taggers write and graft reads.

``parse_standoff`` checks and builds each distinct spelling once per
call: labels, families, sentence indices and spans spelled alike are one
object within one call.  It splits the text into lines a chunk at a
time, so the lines of the whole text are never held at once.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from typing import Iterable

from .trees import LABEL_BAD, Span

MN_FAMILY = "MN"
NE_FAMILY = "NE"

# A standoff index as written: ASCII digits, optionally negative (which
# the checks after parsing reject with a message of their own).
_INDEX = re.compile(r"-?[0-9]+")

#: Characters of text split into lines at a time; a chunk ends just
#: after a ``\n``, which only ever ends a line break, so no cut splits one.
_CHUNK = 1 << 12


class StandoffAnnotation:
    """One tag over a token span, decoupled from any tree.

    An immutable value, slotted like ``trees.Span``: equality, hashing
    and ``repr`` go by its four fields, as for a frozen dataclass of them.
    """

    __slots__ = ("sentence", "span", "label", "family")

    sentence: int
    span: Span
    label: str
    family: str

    def __init__(self, sentence: int, span: Span, label: str, family: str = MN_FAMILY) -> None:
        _set_sentence(self, sentence)
        _set_span(self, span)
        _set_label(self, label)
        _set_family(self, family)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sentence, self.span, self.label, self.family) == (
            other.sentence, other.span, other.label, other.family
        )

    def __hash__(self) -> int:
        return hash((self.sentence, self.span, self.label, self.family))

    def __repr__(self) -> str:
        return (
            f"StandoffAnnotation(sentence={self.sentence!r}, span={self.span!r},"
            f" label={self.label!r}, family={self.family!r})"
        )

    def __reduce__(self):
        return StandoffAnnotation, (self.sentence, self.span, self.label, self.family)

    def sort_key(self):
        return (self.sentence, self.span.start, self.span.end, self.family, self.label)


_set_sentence = StandoffAnnotation.sentence.__set__  # type: ignore[attr-defined]
_set_span = StandoffAnnotation.span.__set__  # type: ignore[attr-defined]
_set_label = StandoffAnnotation.label.__set__  # type: ignore[attr-defined]
_set_family = StandoffAnnotation.family.__set__  # type: ignore[attr-defined]


def format_standoff(annotations: Iterable[StandoffAnnotation]) -> str:
    lines = [
        f"{a.sentence}\t{a.span.start}\t{a.span.end}\t{a.label}\t{a.family}"
        for a in sorted(annotations, key=StandoffAnnotation.sort_key)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_standoff(text: str) -> list[StandoffAnnotation]:
    """The annotations of a standoff file, with lines numbered as
    ``str.splitlines`` numbers them; within one call, labels, families,
    sentence indices and spans spelled alike are one object."""
    out = []
    labels: dict[str, str] = {}  # checked labels
    families: dict[str, str] = {}
    sentences: dict[str, int] = {}  # checked sentence-index spellings
    spans: dict[tuple[str, str], Span] = {}  # checked (start, end) spellings
    pos, size, lineno = 0, len(text), 0
    while pos < size:
        cut = text.find("\n", pos + _CHUNK - 1) + 1 or size
        for raw in text[pos:cut].splitlines():
            lineno += 1
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(f"standoff line {lineno}: expected 5 tab-separated fields")
            sentence, start, end, label, family = parts
            if (checked := labels.get(label)) is None:
                if not label or LABEL_BAD.search(label):
                    # Graft puts the label into a tree, which could not hold it.
                    raise ValueError(f"standoff line {lineno}: bad label {label!r}")
                checked = labels[label] = label
            index = sentences.get(sentence)
            span = spans.get((start, end))
            if index is None or span is None:
                index, span = _checked(lineno, sentence, start, end, index, span)
                sentences[sentence] = index
                spans[start, end] = span
            out.append(
                StandoffAnnotation(index, span, checked, families.setdefault(family, family))
            )
        pos = cut
    return out


def _checked(
    lineno: int, sentence: str, start: str, end: str, index: int | None, span: Span | None
) -> tuple[int, Span]:
    """The sentence index and span of a line, checked in file order; each
    is built unless given."""
    for number in (sentence, start, end):
        # ``int`` would also take ``1_0``, `` 1`` and non-ASCII digits.
        if not _INDEX.fullmatch(number):
            raise ValueError(f"standoff line {lineno}: bad integer {number!r}")
    try:
        if index is None:
            index = int(sentence)
        if span is None:
            span = Span(int(start), int(end))
    except ValueError as exc:
        raise ValueError(f"standoff line {lineno}: {exc}") from None
    if index < 0:
        raise ValueError(f"standoff line {lineno}: negative sentence index {index}")
    return index, span
