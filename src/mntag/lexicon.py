"""Trigger lexicon: records, file format, and token-sequence lookup.

The on-disk format is one record per blank-line-separated block of
``Key: Value`` lines, mirroring the published entry layout::

    String: need
    Pos: VB
    Modality: Require
    Trigger: need
    Subcat: V3-passive-basic -- More citizens are needed to vote.

``Subcat`` repeats; the part after `` -- `` is an illustrative gloss.
Unknown keys are preserved verbatim.  Lines starting with ``#`` are
comments.  Every ``String``, ``Trigger`` and ``Forms`` word must be one
plain rule atom (``matcher.is_plain_word``), since rules match it
literally; errors name the record's first line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .matcher import is_plain_word, read_records
from .tags import MODALITY_BY_NAME, Modality


class LexiconError(ValueError):
    """A bad entry or lexicon; a lexicon's errors name the record at
    fault through ``Lexicon.where``."""


@dataclass(frozen=True)
class LexiconEntry:
    surface: str
    pos: tuple[str, ...]
    modality: Modality
    head: str
    subcats: tuple[str, ...] = ()
    glosses: tuple[str, ...] = ()
    extras: tuple[tuple[str, str], ...] = ()
    #: ``surface`` split into words, once, at construction.
    words: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        surface, pos, head = self.surface, self.pos, self.head
        words = tuple(surface.split())
        object.__setattr__(self, "words", words)
        if len(pos) != len(words):
            raise LexiconError(f"entry {surface!r}: {len(words)} words but {len(pos)} POS tags")
        if head not in words and head.lower() not in surface.lower().split():
            raise LexiconError(f"entry {surface!r}: head {head!r} not in surface")
        if (pos[0].startswith("VB") or pos[0] == "MD") and not self.subcats:
            raise LexiconError(f"verbal entry {surface!r} has no subcategorization codes")
        forms = (self.extra("Forms") or "").split()
        for word in (*words, head, *forms):
            if not is_plain_word(word):
                raise LexiconError(f"word {word!r} is not a plain rule atom")

    def extra(self, key: str) -> str | None:
        for k, v in self.extras:
            if k == key:
                return v
        return None


@dataclass(frozen=True)
class Lexicon:
    entries: tuple[LexiconEntry, ...]
    #: Number of the first line of each entry's record, when read from text.
    lines: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        first: dict[tuple, int] = {}
        for k, e in enumerate(self.entries):
            if first.setdefault((e.surface.lower(), e.pos, e.modality), k) != k:
                raise LexiconError(
                    f"{self.where(k)}: duplicate entry {e.surface!r}/{'+'.join(e.pos)}"
                )

    @cached_property
    def _by_first_word(self) -> dict[str, list[LexiconEntry]]:
        # Built on the first lookup: only the string tagger looks entries up.
        index: dict[str, list[LexiconEntry]] = {}
        for e in self.entries:
            index.setdefault(e.words[0].lower(), []).append(e)
        return index

    def candidates(self, first_word: str) -> list[LexiconEntry]:
        return self._by_first_word.get(first_word.lower(), [])

    def where(self, k: int) -> str:
        """``line L: record K`` for the 0-based entry ``k``; ``record K``
        alone when the lexicon was not read from text."""
        record = f"record {k + 1}"
        return f"line {self.lines[k]}: {record}" if self.lines else record


def lookup(
    lexicon: Lexicon, tagged: Sequence[tuple[str, str]], position: int
) -> list[tuple[LexiconEntry, tuple[int, int]]]:
    """All entries matching at ``position``, longest match first.

    ``tagged`` is a (token, POS) sequence.  Words compare
    case-insensitively, POS tags at base-category granularity.
    """
    if not 0 <= position < len(tagged):
        raise IndexError(f"position {position} outside sequence of {len(tagged)}")
    hits: list[tuple[LexiconEntry, tuple[int, int]]] = []
    for entry in lexicon.candidates(tagged[position][0]):
        end = position + len(entry.words)
        if end > len(tagged):
            continue
        window = tagged[position:end]
        # An entry's POS is a base category: VB covers VBD, VBZ, ...
        if all(
            tok.lower() == w.lower() and pos.startswith(p)
            for (tok, pos), w, p in zip(window, entry.words, entry.pos)
        ):
            hits.append((entry, (position, end)))
    hits.sort(key=lambda h: -(h[1][1] - h[1][0]))
    return hits


def _finish_record(lines: list[str]) -> LexiconEntry:
    surface = pos = modality_name = head = None
    subcats: list[str] = []
    glosses: list[str] = []
    extras: list[tuple[str, str]] = []
    for line in lines:
        key, sep, value = line.partition(":")
        if not sep:
            raise LexiconError(f"not a 'Key: Value' line: {line!r}")
        key, value = key.strip(), value.strip()
        if key == "String":
            surface = value
        elif key == "Pos":
            pos = value
        elif key == "Modality":
            modality_name = value
        elif key == "Trigger":
            head = value
        elif key == "Subcat":
            code, _, gloss = value.partition(" -- ")
            subcats.append(code.strip())
            glosses.append(gloss.strip())
        else:
            extras.append((key, value))
    if surface is None:
        raise LexiconError("missing String")
    if modality_name is None:
        raise LexiconError(f"missing Modality ({surface!r})")
    if (modality := MODALITY_BY_NAME.get(modality_name)) is None:
        raise LexiconError(f"unknown modality {modality_name!r}")
    if pos is None:
        raise LexiconError(f"missing Pos ({surface!r})")
    head = head if head is not None else (surface.split() or [""])[0]
    return LexiconEntry(
        surface, tuple(pos.split()), modality, head, tuple(subcats), tuple(glosses), tuple(extras)
    )


def load_lexicon(text: str) -> Lexicon:
    records = list(read_records(text))
    lines = tuple(lineno for lineno, _ in records)
    entries: list[LexiconEntry] = []
    for k, (_, fields) in enumerate(records):
        try:
            entries.append(_finish_record(fields))
        except LexiconError as exc:
            # ``where`` names a record from the lines alone.
            raise LexiconError(f"{Lexicon((), lines).where(k)}: {exc}") from None
    return Lexicon(tuple(entries), lines)


def dump_lexicon(lexicon: Lexicon) -> str:
    blocks = []
    for e in lexicon.entries:
        lines = [
            f"String: {e.surface}",
            f"Pos: {' '.join(e.pos)}",
            f"Modality: {e.modality.value}",
            f"Trigger: {e.head}",
        ]
        for code, gloss in zip(e.subcats, e.glosses):
            lines.append(f"Subcat: {code} -- {gloss}" if gloss else f"Subcat: {code}")
        for k, v in e.extras:
            lines.append(f"{k}: {v}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def load_lexicon_file(path) -> Lexicon:
    """``load_lexicon`` on the file's text; its errors, and text that is
    not UTF-8, name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return load_lexicon(fh.read())
    except ValueError as exc:
        raise LexiconError(f"{path}: {exc}") from None

