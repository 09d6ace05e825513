"""Standoff annotations: one tag over a token span of a sentence, kept
apart from any tree, and the TSV form the taggers write and graft reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .trees import LABEL_BAD, Span

MN_FAMILY = "MN"
NE_FAMILY = "NE"

# A standoff index as written: ASCII digits, optionally negative (which
# the checks after parsing reject with a message of their own).
_INDEX = re.compile(r"-?[0-9]+")


@dataclass(frozen=True, slots=True)
class StandoffAnnotation:
    """One tag over a token span, decoupled from any tree."""

    sentence: int
    span: Span
    label: str
    family: str = MN_FAMILY

    def sort_key(self):
        return (self.sentence, self.span.start, self.span.end, self.family, self.label)


def format_standoff(annotations: Iterable[StandoffAnnotation]) -> str:
    lines = [
        f"{a.sentence}\t{a.span.start}\t{a.span.end}\t{a.label}\t{a.family}"
        for a in sorted(annotations, key=StandoffAnnotation.sort_key)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_standoff(text: str) -> list[StandoffAnnotation]:
    """The annotations of a standoff file; labels and families spelled
    alike are one string within one call."""
    out = []
    strings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"standoff line {lineno}: expected 5 tab-separated fields")
        sentence, start, end, label, family = parts
        if not label or LABEL_BAD.search(label):
            # Graft puts the label into a tree, which could not hold it.
            raise ValueError(f"standoff line {lineno}: bad label {label!r}")
        for number in (sentence, start, end):
            # ``int`` would also take ``1_0``, `` 1`` and non-ASCII digits.
            if not _INDEX.fullmatch(number):
                raise ValueError(f"standoff line {lineno}: bad integer {number!r}")
        try:
            ann = StandoffAnnotation(
                int(sentence),
                Span(int(start), int(end)),
                strings.setdefault(label, label),
                strings.setdefault(family, family),
            )
        except ValueError as exc:
            raise ValueError(f"standoff line {lineno}: {exc}") from None
        if ann.sentence < 0:
            raise ValueError(f"standoff line {lineno}: negative sentence index {ann.sentence}")
        out.append(ann)
    return out
