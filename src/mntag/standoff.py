"""Standoff annotations: one tag over a token span of a sentence, kept
apart from any tree, and the TSV form the taggers write and graft reads.

``parse_standoff`` checks and builds each distinct spelling once per
call: labels, families, sentence indices and spans spelled alike are one
object within one call.  It splits the text into lines a chunk at a
time, so the lines of the whole text are never held at once.
"""

from __future__ import annotations

import re
from typing import Iterable

from .trees import LABEL_BAD, Span, Value

MN_FAMILY = "MN"
NE_FAMILY = "NE"

# A standoff index as written: ASCII digits, optionally negative (which
# the checks after parsing reject with a message of their own).
_INDEX = re.compile(r"-?[0-9]+")

#: Characters of text split into lines at a time; a chunk ends just
#: after a ``\n``, which only ever ends a line break, so no cut splits one.
_CHUNK = 1 << 12


class StandoffAnnotation(Value):
    """One tag over a token span, decoupled from any tree.

    A ``trees.Value`` of its sentence, span, label and family.
    """

    __slots__ = ("sentence", "span", "label", "family")

    sentence: int
    span: Span
    label: str
    family: str

    def __init__(self, sentence: int, span: Span, label: str, family: str = MN_FAMILY) -> None:
        set_sentence, set_span, set_label, set_family = self._setters
        set_sentence(self, sentence)
        set_span(self, span)
        set_label(self, label)
        set_family(self, family)

    def sort_key(self):
        return (self.sentence, self.span.start, self.span.end, self.family, self.label)


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
