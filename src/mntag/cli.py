"""Command-line front end.

Exit codes: 0 success, 1 processing failure, 2 input or configuration
error.  Diagnostics go to stderr; data outputs stay machine-readable.

Each command runs with the cyclic garbage collector paused, and
``main`` restores the collector's prior state however the command ends.
This is safe because nothing a command builds per sentence holds a
reference cycle.  Trees are immutable, so a node refers only to nodes
built before it; the one value a node gains later, its cached
``atoms``, is a frozenset of strings.  Trees that share subtrees, as
graft's output shares its input's, still point down only, and so do
the matcher's rewrites.  Graft's working copy is lists of node numbers
and input nodes, with no object per node, and its records name nodes
by number.  Refcounting frees them all.  The collector would free
nothing, yet each of its full passes rescans every tree of the corpus.
Tests hold the invariant: a command's cyclic garbage must not grow
with the corpus, and ``graft`` and ``apply`` must leave none.

``mn tag --rules`` replaces the rules generated from a lexicon, so it
takes no ``--lexicon`` and no ``--registry``; every other ``mn tag``
needs ``--lexicon``.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from importlib.resources import files

from . import grafting, matcher, rulegen, taggers, trees
from .lexicon import LexiconError, load_lexicon_file
from .matcher import RewriteBudgetError
from .standoff import StandoffAnnotation, format_standoff, parse_standoff

log = logging.getLogger("mn")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mn", description="Modality/negation tagging and tree grafting."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tag = sub.add_parser("tag", help="tag a corpus with modality/negation")
    tag.add_argument("--mode", choices=["string", "structure"], required=True)
    tag.add_argument("--lexicon", help="lexicon file (not used with --rules)")
    tag.add_argument("--rules", help="rule file replacing generated rules (structure mode)")
    tag.add_argument("--registry", help="template registry file (structure mode)")
    tag.add_argument("--in", dest="input", required=True)
    tag.add_argument("--out", dest="output", required=True)
    tag.add_argument("--standoff", help="write standoff TSV here")
    tag.add_argument("--inline", action="store_true", help="write inline text instead")
    tag.set_defaults(run=_cmd_tag)

    graft = sub.add_parser("graft", help="graft standoff annotations onto trees")
    graft.add_argument("--trees", required=True)
    graft.add_argument("--standoff", action="append", required=True)
    graft.add_argument("--order", default="NE,MN", help="family order, e.g. NE,MN")
    graft.add_argument("--out", dest="output", required=True)
    graft.add_argument("--report", required=True)
    graft.set_defaults(run=_cmd_graft)

    flat = sub.add_parser("flatten", help="flatten trees")
    flat.add_argument("--in", dest="input", required=True)
    flat.add_argument("--out", dest="output", required=True)
    flat.set_defaults(run=_cmd_trees, transform=trees.flatten)

    prep = sub.add_parser("preprocess", help="insert AUX/VoicePassive markers")
    prep.add_argument("--in", dest="input", required=True)
    prep.add_argument("--out", dest="output", required=True)
    prep.set_defaults(run=_cmd_trees, transform=rulegen.preprocess)

    rules = sub.add_parser("rules", help="dump the expanded rule set")
    rules.add_argument("--lexicon", required=True)
    rules.add_argument("--registry")
    rules.add_argument("--out", dest="output", required=True)
    rules.set_defaults(run=_cmd_rules)

    agree = sub.add_parser("agreement", help="compare two standoff files")
    agree.add_argument("file_a")
    agree.add_argument("file_b")
    agree.set_defaults(run=_cmd_agreement)

    lex = sub.add_parser("lexicon", help="lexicon utilities")
    lex_sub = lex.add_subparsers(dest="lexicon_command", required=True)
    validate = lex_sub.add_parser("validate", help="load and validate a lexicon file")
    validate.add_argument("path")
    validate.set_defaults(run=_cmd_lexicon_validate)

    return parser


def _parse_file(path, parse):
    """``parse`` applied to the file's text; its errors, and text that is
    not UTF-8, name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_rules(args) -> list[matcher.PatternRule]:
    if getattr(args, "rules", None):
        return _parse_file(
            args.rules,
            lambda text: matcher.parse_rules(text, lambda r: rulegen._check_labels(r.actions)),
        )
    lexicon = load_lexicon_file(args.lexicon)
    registry = (
        _parse_file(args.registry, rulegen.load_registry)
        if args.registry
        else rulegen.default_registry()
    )
    try:
        return rulegen.expand_templates(lexicon, registry)
    except LexiconError as exc:
        raise LexiconError(f"{args.lexicon}: {exc}") from None


def _refuse_one_file(output, other, flag) -> None:
    """Two outputs of one run that name one file would leave only the one
    written last, so such a run exits 2 before it reads any input."""
    if other is not None and os.path.realpath(output) == os.path.realpath(other):
        raise ValueError(f"--out and {flag} name one file: {output}")


def _cmd_tag(args) -> int:
    _refuse_one_file(args.output, args.standoff, "--standoff")
    given = [f"--{name}" for name in ("rules", "registry") if getattr(args, name)]
    if args.mode == "string" and given:
        raise ValueError(f"{' and '.join(given)}: not used by --mode string")
    if args.rules:
        unused = [f"--{name}" for name in ("lexicon", "registry") if getattr(args, name)]
        if unused:
            raise ValueError(
                f"{' and '.join(unused)}: not used with --rules, which replaces the generated rules"
            )
    elif not args.lexicon:
        raise ValueError("--lexicon: required unless --rules is given")
    annotations: list[StandoffAnnotation] = []
    if args.mode == "structure":
        rules = _load_rules(args)
        corpus = _parse_file(args.input, trees.read_ptb)
        out_lines = []
        for i, tree in enumerate(corpus):
            # The tagger would take such a word for a marker and drop it.
            if (marker := next(filter(rulegen.is_marker_leaf, tree.leaves()), None)) is not None:
                raise ValueError(
                    f"{args.input}: sentence {i}: word {marker.token!r} is spelled like a marker"
                )
            prepared = rulegen.preprocess(trees.flatten(tree))
            result = taggers.tag_structure(prepared, rules, sentence=i)
            for diag in result.diagnostics:
                log.info("sentence %d: %s", i, diag)
            annotations.extend(result.annotations)
            if args.inline:
                words = rulegen.word_tokens(result.tree)
                out_lines.append(_inline_line(args.input, i, words, result.annotations))
            else:
                out_lines.append(trees.write_ptb(result.tree) + "\n")
    else:
        lexicon = load_lexicon_file(args.lexicon)
        sentences = _parse_file(args.input, taggers.read_token_tsv)
        tagged_sentences = []
        out_lines = []
        for i, sentence in enumerate(sentences):
            result = taggers.tag_string(sentence, lexicon, sentence=i)
            for diag in result.diagnostics:
                log.info("sentence %d: %s", i, diag)
            annotations.extend(result.annotations)
            if args.inline:
                words = [t.token for t in result.tokens]
                out_lines.append(_inline_line(args.input, i, words, result.annotations))
            else:
                tagged_sentences.append(result.tokens)
        if not args.inline:
            out_lines = [taggers.format_token_tsv(tagged_sentences)]
    # Written only once every sentence is done, so a failed run writes no output.
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.writelines(out_lines)
    if args.standoff:
        with open(args.standoff, "w", encoding="utf-8") as fh:
            fh.write(format_standoff(annotations))
    return 0


def _inline_line(path, i, words, annotations) -> str:
    try:  # a word inline text cannot hold: name the file and the sentence
        return taggers.render_inline(words, annotations) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: sentence {i}: {exc}") from None


def _cmd_graft(args) -> int:
    _refuse_one_file(args.output, args.report, "--report")
    config = grafting.GraftConfig(family_order=tuple(args.order.split(",")))
    corpus = _parse_file(args.trees, trees.read_ptb)
    batches = [(path, _parse_file(path, parse_standoff)) for path in args.standoff]
    by_sentence: dict[int, list[StandoffAnnotation]] = {}
    for path, batch in batches:
        last = max((a.sentence for a in batch), default=-1)
        if last >= len(corpus):
            raise ValueError(
                f"{path}: sentence {last}: sentence counts disagree:"
                f" {args.trees} has {len(corpus)} trees"
            )
        for a in batch:
            by_sentence.setdefault(a.sentence, []).append(a)
    report = grafting.GraftReport()
    out_lines = []
    for i, tree in enumerate(corpus):
        try:
            text, outcomes = grafting.graft(tree, by_sentence.get(i, []), config, as_text=True)
        except ValueError:
            # Name the first file whose annotations graft refuses alone.
            for path, batch in batches:
                try:
                    grafting.graft(tree, [a for a in batch if a.sentence == i], config)
                except ValueError as exc:
                    raise ValueError(f"{path}: sentence {i}: {exc}") from None
            raise
        report.merge(outcomes)
        out_lines.append(text + "\n")
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.writelines(out_lines)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(report.format())
    return 0


def _cmd_trees(args) -> int:
    corpus = _parse_file(args.input, trees.read_ptb)
    with open(args.output, "w", encoding="utf-8") as fh:
        for tree in corpus:
            fh.write(trees.write_ptb(args.transform(tree)) + "\n")
    return 0


def _cmd_rules(args) -> int:
    rule_set = _load_rules(args)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(matcher.serialize_rules(rule_set))
    return 0


def _cmd_agreement(args) -> int:
    report = taggers.agreement(
        _parse_file(args.file_a, parse_standoff),
        _parse_file(args.file_b, parse_standoff),
    )
    sys.stdout.write(report.format())
    return 0


def _cmd_lexicon_validate(args) -> int:
    lexicon = load_lexicon_file(args.path)
    print(f"{len(lexicon.entries)} entries")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Safe: nothing built per sentence is cyclic (module docstring).
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except RewriteBudgetError as exc:
        log.error("rule application failed: %s", exc)
        return 1
    except (ValueError, OSError) as exc:
        # ``LexiconError`` and ``PatternSyntaxError`` are ``ValueError``s.
        log.error("%s", exc)
        return 2
    finally:
        if enabled:
            gc.enable()


def seed_lexicon_path() -> str:
    return str(files("mntag.data").joinpath("seed_lexicon.txt"))


if __name__ == "__main__":
    sys.exit(main())
