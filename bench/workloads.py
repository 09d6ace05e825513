"""The three benchmark workloads: their inputs, `mn` runs, per-sentence
loops and output gates.

A workload is a list of `mn` command lines run in-process through
``mntag.cli.main``, file to file, plus a loop that makes the same
per-sentence public calls as the CLI, one sentence at a time, so that
per-sentence latency can be timed without instrumenting the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from mntag import grafting, rulegen, taggers, trees
from mntag.lexicon import load_lexicon_file
from mntag.matcher import RewriteBudgetError

import inputs
from speed import Rescaler, Segment

WORKLOADS = ("corpus-x40", "lexicon-1600", "graft-long")

CORPUS_COPIES = 40
LEXICON_COPIES = 4
LEXICON_ENTRIES = 1600
LONG_SENTENCES = 200
LONG_CONJUNCTS = 32


@dataclass
class Command:
    """One `mn` run and the check its outputs must pass."""

    kind: str  # "tag", "string" or "graft"
    argv: list[str]
    out: Path
    sentences: int
    check: Callable[[], str | None]  # error message, or None when correct


@dataclass
class Plan:
    commands: list[Command]
    setup_lexicon: Path | None  # lexicon the tag runs load before their first sentence
    padded_surfaces: frozenset[str] = frozenset()
    annotations: int = 0  # standoff annotations the graft run attempts
    gate_runs: list[list[str]] = field(default_factory=list)  # untimed reference runs


def _lines(path: Path) -> list[str]:
    return path.read_text("utf-8").splitlines()


def _consistent(lines: list[str], origin: list[int], what: str) -> str | None:
    """Every copy of a golden sentence gave the same output line."""
    if len(lines) != len(origin):
        return f"{what}: {len(lines)} lines for {len(origin)} sentences"
    first: dict[int, str] = {}
    for n, (line, i) in enumerate(zip(lines, origin)):
        if first.setdefault(i, line) != line:
            return f"{what}: sentence {n} (golden {i}) differs from its other copies"
    return None


def _check_graft(out: Path, report: Path, in_lines: list[str], annotations: int):
    def check() -> str | None:
        lines = _lines(out)
        if len(lines) != len(in_lines):
            return f"graft: {len(lines)} trees out for {len(in_lines)} in"
        for n, (a, b) in enumerate(zip(in_lines, lines)):
            if inputs.leaf_atoms(a) != inputs.leaf_atoms(b):
                return f"graft: sentence {n} changed its yield"
        total = sum(int(line.rsplit(": ", 1)[1]) for line in _lines(report))
        if total != annotations:
            return f"graft: report total {total} for {annotations} annotations"
        return None

    return check


def _tag_commands(work: Path, lexicon: Path, rep: inputs.Repeated) -> list[Command]:
    trees_in = work / "trees.ptb"
    tokens_in = work / "tokens.tsv"
    tag_out, tag_so = work / "tagged.ptb", work / "tagged.tsv"
    str_out, str_so = work / "string.txt", work / "string.tsv"

    def check_tag() -> str | None:
        if tag_so.read_text("utf-8") != rep.mn:
            return "tag: structure standoff differs from the golden standoff"
        return _consistent(_lines(tag_out), rep.origin, "tag")

    def check_string() -> str | None:
        lines = _lines(str_out)
        for n, i in enumerate(rep.origin):
            if i == 0 and n < len(lines) and lines[n] != inputs.FIG1_LINE:
                return f"string: sentence {n} (golden 0) is not the Figure-1 line"
        return _consistent(lines, rep.origin, "string")

    n = len(rep.origin)
    return [
        Command(
            "tag",
            ["tag", "--mode", "structure", "--lexicon", str(lexicon), "--in", str(trees_in),
             "--out", str(tag_out), "--standoff", str(tag_so)],
            tag_out, n, check_tag,
        ),
        Command(
            "string",
            ["tag", "--mode", "string", "--lexicon", str(lexicon), "--in", str(tokens_in),
             "--out", str(str_out), "--standoff", str(str_so), "--inline"],
            str_out, n, check_string,
        ),
    ]


def _graft_command(work: Path, trees_in: Path, in_lines: list[str], annotations: int) -> Command:
    out, report = work / "grafted.ptb", work / "report.txt"
    return Command(
        "graft",
        ["graft", "--trees", str(trees_in), "--standoff", str(work / "mn.tsv"),
         "--standoff", str(work / "ne.tsv"), "--order", "NE,MN", "--out", str(out),
         "--report", str(report)],
        out, len(in_lines), _check_graft(out, report, in_lines, annotations),
    )


def prepare(name: str, seed: int, work: Path) -> Plan:
    """Generate the workload's inputs under ``work`` from ``seed``."""
    corpus = inputs.load_corpus()
    rng = random.Random(f"{name}/{seed}")
    seed_lexicon = work / "seed_lexicon.txt"
    seed_lexicon.write_text(corpus.lexicon, "utf-8")

    if name == "corpus-x40":
        rep = inputs.repeated_corpus(corpus, CORPUS_COPIES, rng)
        _write(work, trees=rep.trees, tokens=rep.tokens, mn=rep.mn, ne=rep.ne)
        in_lines = rep.trees.splitlines()
        annotations = len(rep.mn.splitlines()) + len(rep.ne.splitlines())
        commands = _tag_commands(work, seed_lexicon, rep)
        commands.append(_graft_command(work, work / "trees.ptb", in_lines, annotations))
        return Plan(commands, seed_lexicon, annotations=annotations)

    if name == "lexicon-1600":
        rep = inputs.repeated_corpus(corpus, LEXICON_COPIES, rng)
        padded_text, padded_surfaces = inputs.padded_lexicon(corpus, LEXICON_ENTRIES, rng)
        padded = work / "padded_lexicon.txt"
        padded.write_text(padded_text, "utf-8")
        _write(work, trees=rep.trees, tokens=rep.tokens)
        commands = _tag_commands(work, padded, rep)
        # The padded string output must equal the seed lexicon's.
        reference = [
            "tag", "--mode", "string", "--lexicon", str(seed_lexicon),
            "--in", str(work / "tokens.tsv"), "--out", str(work / "string-seed.txt"),
            "--standoff", str(work / "string-seed.tsv"), "--inline",
        ]
        string_check = commands[1].check

        def check_string() -> str | None:
            for suffix in ("txt", "tsv"):
                got = (work / f"string.{suffix}").read_bytes()
                if got != (work / f"string-seed.{suffix}").read_bytes():
                    return f"string: padded-lexicon string.{suffix} differs from the seed lexicon's"
            return string_check()

        commands[1].check = check_string
        return Plan(commands, padded, padded_surfaces, gate_runs=[reference])

    if name == "graft-long":
        co = inputs.coordinated_corpus(corpus, LONG_SENTENCES, LONG_CONJUNCTS, rng)
        _write(work, long=co.trees, mn=co.mn, ne=co.ne)
        in_lines = co.trees.splitlines()
        return Plan(
            [_graft_command(work, work / "long.ptb", in_lines, co.annotations)],
            None,
            annotations=co.annotations,
        )

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _write(work: Path, **texts: str) -> None:
    suffix = {"trees": ".ptb", "long": ".ptb", "tokens": ".tsv", "mn": ".tsv", "ne": ".tsv"}
    for stem, text in texts.items():
        (work / (stem + suffix[stem])).write_text(text, "utf-8")


# ---------------------------------------------------------------------------
# Per-sentence loops: the public calls each command makes for one sentence,
# in CLI order, timed one sentence at a time.


def _arg(argv: list[str], flag: str) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a == flag]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _tag_loop(argv):
    (lexicon_path,) = _arg(argv, "--lexicon")
    rules = rulegen.expand_templates(load_lexicon_file(lexicon_path), rulegen.default_registry())
    corpus = trees.read_ptb(_read(_arg(argv, "--in")[0]))

    def one(i: int) -> str:
        prepared = rulegen.preprocess(trees.flatten(corpus[i]))
        result = taggers.tag_structure(prepared, rules, sentence=i)
        return trees.write_ptb(result.tree)

    return len(corpus), one


def _string_loop(argv):
    lexicon = load_lexicon_file(_arg(argv, "--lexicon")[0])
    sentences = taggers.read_token_tsv(_read(_arg(argv, "--in")[0]))

    def one(i: int) -> str:
        result = taggers.tag_string(sentences[i], lexicon, sentence=i)
        return taggers.render_inline([t.token for t in result.tokens], result.annotations)

    return len(sentences), one


def _graft_loop(argv):
    corpus = trees.read_ptb(_read(_arg(argv, "--trees")[0]))
    by_sentence: dict[int, list] = {}
    for path in _arg(argv, "--standoff"):
        for a in taggers.parse_standoff(_read(path)):
            by_sentence.setdefault(a.sentence, []).append(a)
    config = grafting.GraftConfig(family_order=tuple(_arg(argv, "--order")[0].split(",")))

    def one(i: int) -> str:
        grafted, _ = grafting.graft(corpus[i], by_sentence.get(i, []), config)
        return trees.write_ptb(grafted)

    return len(corpus), one


_LOOPS = {"tag": _tag_loop, "string": _string_loop, "graft": _graft_loop}


@dataclass
class LoopResult:
    segments: list[list[Segment]]  # per sentence: one per command
    attempted: int = 0
    failed: int = 0
    error: str | None = None


def sentence_loop(commands: list[Command], rescaler: Rescaler) -> LoopResult:
    """Run each command's per-sentence calls, timing each sentence, and
    compare every output line with the line the CLI wrote for it."""
    n = commands[0].sentences
    result = LoopResult([[] for _ in range(n)])
    for cmd in commands:
        count, one = _LOOPS[cmd.kind](cmd.argv)
        expected = _lines(cmd.out)
        if count != n or len(expected) != n:
            result.error = f"{cmd.kind} loop: {count} sentences, CLI wrote {len(expected)}"
            return result
        for i in range(n):
            result.attempted += 1
            segment = Segment(rescaler)
            try:
                line = one(i)
            except (RewriteBudgetError, ValueError):
                result.failed += 1
                continue
            result.segments[i].append(segment.stop())
            if line != expected[i] and result.error is None:
                result.error = f"{cmd.kind} loop: sentence {i} differs from the CLI output"
    return result
