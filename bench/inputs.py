"""Seeded input generators for the benchmark workloads.

Every input is derived from the 25-sentence golden corpus in ``data/``
and a seed, by text manipulation only, so a defect in the program under
test cannot change the inputs it is measured on.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

#: Inline form of corpus sentence 0 in string mode (Figure 1 of the paper).
FIG1_LINE = (
    "Americans <TrigRequire should> <TargRequire know> that we <TrigAble can>"
    " <TrigNegation not> <TargNOTAble hand> over Dr. Khan to them ."
)

_PTB_TOKEN = re.compile(r"\(|\)|[^()\s]+")


@dataclass(frozen=True)
class Corpus:
    """The golden corpus, one entry per sentence."""

    trees: list[str]  # one PTB line each
    tokens: list[str]  # token TSV block each, no trailing blank line
    mn: list[list[tuple[int, int, str, str]]]  # golden standoff rows per sentence
    ne: list[list[tuple[int, int, str, str]]]  # NE sample rows per sentence
    lexicon: str  # seed lexicon text

    @property
    def size(self) -> int:
        return len(self.trees)


def _standoff_rows(text: str, n: int) -> list[list[tuple[int, int, str, str]]]:
    rows: list[list[tuple[int, int, str, str]]] = [[] for _ in range(n)]
    for line in text.splitlines():
        sent, start, end, label, family = line.split("\t")
        rows[int(sent)].append((int(start), int(end), label, family))
    return rows


def load_corpus() -> Corpus:
    trees = (DATA / "corpus_trees.ptb").read_text("utf-8").splitlines()
    tokens = (DATA / "corpus_tokens.tsv").read_text("utf-8").strip("\n").split("\n\n")
    if len(tokens) != len(trees):
        raise ValueError(f"{len(trees)} trees but {len(tokens)} token blocks")
    return Corpus(
        trees,
        tokens,
        _standoff_rows((DATA / "golden_standoff.tsv").read_text("utf-8"), len(trees)),
        _standoff_rows((DATA / "ne_sample.tsv").read_text("utf-8"), len(trees)),
        (DATA / "seed_lexicon.txt").read_text("utf-8"),
    )


def leaf_atoms(ptb_line: str) -> list[str]:
    """The yield of a PTB line: atoms that do not open a node."""
    atoms = _PTB_TOKEN.findall(ptb_line)
    return [a for prev, a in zip(["("] + atoms, atoms) if a not in "()" and prev != "("]


def format_rows(rows_by_sentence) -> str:
    """Standoff text in the program's order (by sentence, then as given)."""
    return "".join(
        f"{s}\t{start}\t{end}\t{label}\t{family}\n"
        for s, rows in enumerate(rows_by_sentence)
        for start, end, label, family in rows
    )


@dataclass(frozen=True)
class Repeated:
    """The corpus repeated ``copies`` times in a seeded order.

    ``origin[n]`` is the golden sentence at position ``n``; the standoff
    texts are the golden files remapped to the new positions.
    """

    origin: list[int]
    trees: str
    tokens: str
    mn: str
    ne: str


def repeated_corpus(corpus: Corpus, copies: int, rng: random.Random) -> Repeated:
    origin = [i for _ in range(copies) for i in range(corpus.size)]
    rng.shuffle(origin)
    return Repeated(
        origin,
        "".join(corpus.trees[i] + "\n" for i in origin),
        "\n\n".join(corpus.tokens[i] for i in origin) + "\n",
        format_rows(corpus.mn[i] for i in origin),
        format_rows(corpus.ne[i] for i in origin),
    )


def _nonce(rng: random.Random, taken: set[str]) -> str:
    while True:
        word = "q" + "".join(rng.choice(string.ascii_lowercase) for _ in range(7))
        if word not in taken:
            taken.add(word)
            return word


def padded_lexicon(
    corpus: Corpus, entries: int, rng: random.Random
) -> tuple[str, frozenset[str]]:
    """The seed lexicon plus nonce-renamed copies, ``entries`` in all,
    and the surfaces of the copies.

    A copy keeps its original's POS, modality and subcat codes; each
    word of the surface becomes a fresh nonce word, and ``Forms:``
    overrides keep their suffixes on the nonce stem.  No nonce word or
    inflection is a corpus token, so no copy's rule can fire.
    """
    blocks = corpus.lexicon.strip("\n").split("\n\n")
    header = [b for b in blocks if b.startswith("#")]
    records = [b for b in blocks if not b.startswith("#")]
    taken = {w.lower() for block in corpus.tokens for w in _first_column(block)}
    copies = [
        _rename(records[k % len(records)], rng, taken) for k in range(entries - len(records))
    ]
    surfaces = frozenset(c.split("\n", 1)[0].removeprefix("String: ") for c in copies)
    return "\n\n".join(header + records + copies) + "\n", surfaces


def _first_column(block: str) -> list[str]:
    return [line.split("\t", 1)[0] for line in block.splitlines()]


def _rename(record: str, rng: random.Random, taken: set[str]) -> str:
    fields = [line.split(": ", 1) for line in record.splitlines()]
    surface = next(v for k, v in fields if k == "String").split()
    renamed = {w: _nonce(rng, taken) for w in surface}
    lines = []
    for key, value in fields:
        if key in ("String", "Trigger"):
            value = " ".join(renamed[w] for w in value.split())
        elif key == "Forms":
            head = next(v for k, v in fields if k == "Trigger")
            stem = renamed[head]
            value = " ".join(stem + f[len(head):] if f.startswith(head) else stem for f in value.split())
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


@dataclass(frozen=True)
class Coordinated:
    """Long sentences, each coordinating corpus sentences under one S."""

    trees: str
    mn: str
    ne: str
    annotations: int


def coordinated_corpus(
    corpus: Corpus, sentences: int, conjuncts: int, rng: random.Random
) -> Coordinated:
    """``(TOP (S s1 (CC and) s2 ... sK))`` with the golden MN and NE
    annotations of each conjunct shifted by its token offset."""
    inner = []
    for line in corpus.trees:
        if not (line.startswith("(TOP (S ") and line.endswith(")")):
            raise ValueError(f"corpus tree is not (TOP (S ...)): {line[:40]}")
        inner.append(line[len("(TOP ") : -1])
    lengths = [len(leaf_atoms(line)) for line in corpus.trees]
    trees, mn, ne = [], [], []
    for _ in range(sentences):
        chosen = [rng.randrange(corpus.size) for _ in range(conjuncts)]
        mn_rows, ne_rows = [], []
        offset = 0
        for i in chosen:
            mn_rows += [(a + offset, b + offset, lab, fam) for a, b, lab, fam in corpus.mn[i]]
            ne_rows += [(a + offset, b + offset, lab, fam) for a, b, lab, fam in corpus.ne[i]]
            offset += lengths[i] + 1  # the conjunction follows
        trees.append("(TOP (S " + " (CC and) ".join(inner[i] for i in chosen) + "))\n")
        mn.append(mn_rows)
        ne.append(ne_rows)
    return Coordinated(
        "".join(trees),
        format_rows(mn),
        format_rows(ne),
        sum(len(r) for r in mn) + sum(len(r) for r in ne),
    )
