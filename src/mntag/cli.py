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
the matcher's rewrites.  Graft's working copy is lists of node numbers,
labels and input nodes (leaves only, in ``mn graft``), with no object
per node, and its records name nodes by number.  Refcounting frees
them all.  The collector would free nothing, yet each of its full
passes rescans every tree of the corpus.
Tests hold the invariant: a command's cyclic garbage must not grow
with the corpus, and ``graft`` and ``apply`` must leave none.

Each command imports the modules it runs: the module level imports only
the graft layer (``grafting``, ``standoff``, ``tags``, ``trees``), so
``mn graft`` and ``mn flatten`` never load the tagging stack.

Every tree command (``mn tag --mode structure``, ``mn flatten``, ``mn
preprocess`` and ``mn graft``) holds one tree at a time: it reads each
tree's ``trees.Preorder`` record (``_records``), builds the tree where it
needs one, and writes its lines before it reads the next record.  ``mn
graft`` builds no internal tree node.  Their memory grows only with the
tree file's text, and graft's with its standoff.  A command that fails
reads the rest of the records before the failure goes on
(``_tree_faults_first``), so a tree that does not read is reported before
any fault found earlier, as if the whole file had been read first.

A command's outputs land together or not at all (``_outputs``): each is
written to a new file beside its target, which it replaces only once the
command has succeeded, and a failed run leaves every target as it was.

``mn tag --rules`` replaces the rules generated from a lexicon, so it
takes no ``--lexicon`` and no ``--registry``; every other ``mn tag``
needs ``--lexicon``.
"""

from __future__ import annotations

import argparse
import errno
import gc
import logging
import os
import stat
import sys
from contextlib import contextmanager, suppress

from . import grafting, trees
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
    flat.set_defaults(run=_cmd_flatten)

    prep = sub.add_parser("preprocess", help="insert AUX/VoicePassive markers")
    prep.add_argument("--in", dest="input", required=True)
    prep.add_argument("--out", dest="output", required=True)
    prep.set_defaults(run=_cmd_preprocess)

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


def _load_rules(args):
    from . import matcher, rulegen
    from .lexicon import LexiconError, load_lexicon_file

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


@contextmanager
def _outputs(*targets):
    """Open each ``(flag, path)`` output of a run for writing, all or
    nothing; a path of None yields None.

    Each output is written to a new file beside its target, which
    replaces the target only once the block has run; if the block fails,
    every new file is removed and every target is left as it was.  A
    target that is a directory, or beside which no file can be made, exits
    2 before any work, naming its flag.  A path through a symlink writes
    the file the link names.  A target that exists and is not a regular
    file, such as ``/dev/null`` or a pipe, is written in place.
    """
    files: list = []
    moves: list[tuple[str, str]] = []  # (new file, target)
    try:
        for flag, path in targets:
            files.append(None if path is None else _open_output(flag, path, moves))
        yield files
        for fh in files:
            if fh is not None:
                fh.close()
        for new, target in moves:
            os.replace(new, target)
    except BaseException:
        for fh in files:
            if fh is not None:
                with suppress(OSError):  # a full disk fails the flush again
                    fh.close()
        for new, _ in moves:
            with suppress(FileNotFoundError):  # it replaced its target
                os.unlink(new)
        raise


def _open_output(flag, path, moves):
    """A file to write ``path``'s output into, noted in ``moves`` when it
    is a new file that must replace the target."""
    target = os.path.realpath(path)
    try:
        if os.path.basename(path) in ("", ".", ".."):  # a directory, which ``realpath`` hides
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        old = os.stat(target).st_mode if os.path.exists(target) else None
        if old is not None and not stat.S_ISREG(old):
            # Replacing ``/dev/null`` would destroy it.  A directory fails
            # here, before any work; a new file beside it would open, and
            # fail only to replace it.
            return open(target, "w", encoding="utf-8")
        head, tail = os.path.split(target)
        new = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        # The mode ``open(path, "w")`` gives: a new file's, or the old file's.
        fd = os.open(new, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        if old is not None:
            os.fchmod(fd, stat.S_IMODE(old))
    except OSError as exc:
        raise ValueError(f"{flag}: cannot write {path}: {exc.strerror}") from None
    moves.append((new, target))
    return open(fd, "w", encoding="utf-8")


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
    from . import matcher, rulegen, taggers
    from .lexicon import load_lexicon_file

    with _outputs(("--out", args.output), ("--standoff", args.standoff)) as (out, standoff):

        def tagged(i, result, words) -> None:
            """Log sentence ``i``'s diagnostics and write its output: its
            inline line of ``words`` when they are given (``--inline``),
            else its tree or its token block, and its standoff."""
            for diag in result.diagnostics:
                log.info("sentence %d: %s", i, diag)
            if words is not None:
                try:  # a word inline text cannot hold: name the file and the sentence
                    out.write(taggers.render_inline(words, result.annotations) + "\n")
                except ValueError as exc:
                    raise ValueError(f"{args.input}: sentence {i}: {exc}") from None
            elif args.mode == "structure":
                out.write(trees.write_ptb(result.tree) + "\n")
            else:  # blocks are parted by a blank line
                out.write(("\n" if i else "") + taggers.format_token_tsv(result.tokens))
            if standoff is not None:
                standoff.write(format_standoff(result.annotations))

        if args.mode == "structure":
            rules = _load_rules(args)
            records = _records(args.input)
            with _tree_faults_first(records):
                for i, record in enumerate(_no_marker_words(records, args.input)):
                    prepared = rulegen.preprocess(trees.flatten(record.tree()))
                    try:
                        result = taggers.tag_structure(prepared, rules, sentence=i)
                    except matcher.RewriteBudgetError as exc:
                        raise matcher.RewriteBudgetError(
                            f"{exc} on {args.input}: sentence {i}"
                        ) from None
                    tagged(i, result, rulegen.word_tokens(result.tree) if args.inline else None)
        else:
            lexicon = load_lexicon_file(args.lexicon)
            sentences = _parse_file(args.input, taggers.read_token_tsv)
            for i, sentence in enumerate(sentences):
                result = taggers.tag_string(sentence, lexicon, sentence=i)
                tagged(i, result, [token for token, _ in sentence] if args.inline else None)
    return 0


def _cmd_graft(args) -> int:
    _refuse_one_file(args.output, args.report, "--report")
    config = grafting.GraftConfig(family_order=tuple(args.order.split(",")))
    with _outputs(("--out", args.output), ("--report", args.report)) as (out, report_file):
        records = _records(args.trees)
        with _tree_faults_first(records):
            batches = [(path, _parse_file(path, parse_standoff)) for path in args.standoff]
        by_sentence: dict[int, list[StandoffAnnotation]] = {}
        for _, batch in batches:
            for a in batch:
                by_sentence.setdefault(a.sentence, []).append(a)
        report = grafting.GraftReport()
        # A failure reads the rest of the trees, whose end checks the
        # counts: a fault in the trees wins, then a count that disagrees,
        # then a fault in a sentence.
        counted = _counted(records, args.trees, batches)
        with _tree_faults_first(counted):
            for i, record in enumerate(counted):
                try:
                    text, outcomes = grafting.graft(
                        record, by_sentence.get(i, []), config, as_text=True
                    )
                except ValueError as exc:
                    _blame(batches, record, i, config)
                    raise ValueError(f"{args.trees}: sentence {i}: {exc}") from None
                out.write(text + "\n")
                report.merge(outcomes)
        report_file.write(report.format())
    return 0


def _blame(batches, record, i, config) -> None:
    """Refuse the first file whose annotations of sentence ``i`` graft
    refuses alone, naming it."""
    for path, batch in batches:
        try:
            grafting.graft(record, [a for a in batch if a.sentence == i], config, as_text=True)
        except ValueError as exc:
            raise ValueError(f"{path}: sentence {i}: {exc}") from None


def _records(path):
    """``trees.read_preorder`` of the tree file at ``path``, which is read
    when the first record is asked for; its errors, and text that is not
    UTF-8, name the file."""
    text = _parse_file(path, str)
    try:
        yield from trees.read_preorder(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextmanager
def _tree_faults_first(records):
    """Run the block; if it fails, read the rest of ``records`` before the
    failure goes on, so that a tree that does not read is reported first,
    as if every tree had been read before any work."""
    try:
        yield
    except Exception:
        for _ in records:
            pass
        raise


def _counted(records, trees_path, batches):
    """``records``; once the last is read, refuse the first standoff file
    that names a sentence past the last tree."""
    count = 0
    for count, record in enumerate(records, 1):
        yield record
    for path, batch in batches:
        last = max((a.sentence for a in batch), default=-1)
        if last >= count:
            raise ValueError(
                f"{path}: sentence {last}: sentence counts disagree: {trees_path} has {count} trees"
            )


def _no_marker_words(records, path):
    """``records``, each refused, naming the file and the sentence, when
    a word in it is spelled like a marker: ``rulegen.preprocess`` and the
    tagger would take such a word, bare or under a preterminal, for a
    marker, and the tagger would drop it."""
    from .rulegen import is_marker_label

    for i, record in enumerate(records):
        # ``nodes`` holds every leaf, and None or a tokenless node else.
        word = next((n.token for n in record.nodes if n and is_marker_label(n.token)), None)
        if word is not None:
            raise ValueError(f"{path}: sentence {i}: word {word!r} is spelled like a marker")
        yield record


def _cmd_flatten(args) -> int:
    return _write_trees(args, trees.flatten)


def _cmd_preprocess(args) -> int:
    from .rulegen import preprocess

    return _write_trees(args, preprocess, inserts_markers=True)


def _write_trees(args, transform, inserts_markers=False) -> int:
    with _outputs(("--out", args.output)) as (fh,):
        records = _records(args.input)
        with _tree_faults_first(records):
            checked = _no_marker_words(records, args.input) if inserts_markers else records
            for i, record in enumerate(checked):
                tree = transform(record.tree())
                try:  # a tree too deep to write: name the file and the sentence
                    text = trees.write_ptb(tree)
                except ValueError as exc:
                    raise ValueError(f"{args.input}: sentence {i}: {exc}") from None
                fh.write(text + "\n")
    return 0


def _cmd_rules(args) -> int:
    from .matcher import serialize_rules

    with _outputs(("--out", args.output)) as (fh,):
        fh.write(serialize_rules(_load_rules(args)))
    return 0


def _cmd_agreement(args) -> int:
    from .taggers import agreement

    report = agreement(
        _parse_file(args.file_a, parse_standoff),
        _parse_file(args.file_b, parse_standoff),
    )
    sys.stdout.write(report.format())
    return 0


def _cmd_lexicon_validate(args) -> int:
    from .lexicon import load_lexicon_file

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
    # A rewrite budget is spent only by a rule, and only the matcher runs
    # rules: a run that never loaded it has no such error to map.
    except getattr(sys.modules.get("mntag.matcher"), "RewriteBudgetError", ()) as exc:
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
    from importlib.resources import files

    return str(files("mntag.data").joinpath("seed_lexicon.txt"))


if __name__ == "__main__":
    sys.exit(main())
