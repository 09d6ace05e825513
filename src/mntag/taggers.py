"""String-based and structure-based modality/negation taggers.

Both taggers mark lexicon triggers and the targets their modalities
scope over, emitting standoff annotations addressed by token span.

The string tagger works on (token, POS) sequences: a trigger's target
is the next non-auxiliary verb to its right, and a negation trigger
sitting between a trigger and that target folds NOT into the target's
tag.

The structure tagger applies generated pattern rules to flattened,
preprocessed parse trees.  Each rewrite's captures are located by their
match paths (``Match.paths``), and a capture's word span is counted
along its path in the tree the match was found in.  Each trigger
annotation names its target.  Then one negation-composition step runs
per negation trigger:

* the negation scopes over the nearest trigger whose target it
  precedes, or else over the trigger just after it, and composes NOT
  into that trigger's target tag, unless the target word is itself a
  trigger (nested modality, left for tree grafting to resolve);
* otherwise the negation keeps its own raw Negation target;
* an ``augment`` action's tag takes no part: the rule wrote it into the
  label, so it stays raw in the standoff too, for graft to compose.

Graft runs a second composer (``grafting``), by tree position, and the
two stay apart on purpose: one composer would need a switch set by its
caller.  Run on this tagger's raw records of the 25-sentence test
corpus, graft's pass gives this pass's result on 23 sentences.  It
differs only where the target word is itself a trigger, which this pass
must leave raw and graft must compose: sentence 2, "could not reach
semi-final" (``reach`` keeps TargAble, TrigSucceed and TargNegation
here; graft makes it TargNOTAble), and sentence 17, "did not want to
succeed" (``succeed`` keeps TargWant here; graft makes it TargNOTWant).

Finally the marker daughters inserted by the rules are folded into
``-`` label suffixes and the preprocessing markers are dropped, so the
output tree carries the input's word yield plus tag suffixes; the fold
counts word spans as it walks down the tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from . import matcher, rulegen, standoff
from .lexicon import Lexicon, lookup
from .standoff import MN_FAMILY, StandoffAnnotation
from .tags import TAG_SPELLINGS, TAGS, MNTag, Modality, Role, compose_negation, specificity_rank
from .trees import ParseTree, Span, add_suffix, rebuilt

# The benchmark's graft loop (``bench/workloads.py``) reads standoff
# through this name until the benchmark is next revised.
parse_standoff = standoff.parse_standoff

_SKIP_POS = frozenset(["RB", "RBR", "RBS", "TO"])


@dataclass(frozen=True)
class TaggedToken:
    token: str
    pos: str
    tags: frozenset[MNTag] = frozenset()


def read_token_tsv(text: str) -> list[list[tuple[str, str]]]:
    """Sentences of (token, POS) pairs; blank lines separate sentences."""
    sentences: list[list[tuple[str, str]]] = []
    current: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines() + [""], 1):
        line = raw.rstrip()
        if not line:
            if current:
                sentences.append(current)
                current = []
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"token line {lineno}: expected 'token<TAB>POS'")
        token, pos = parts
        if token.split() != [token]:
            # An empty token, or one holding whitespace, would not read
            # back as one word from inline output: every later token
            # would shift.
            raise ValueError(f"token line {lineno}: bad token {token!r}")
        current.append((token, pos))
    return sentences


def format_token_tsv(sentence: Sequence[TaggedToken]) -> str:
    """One sentence's block, a line per token; a blank line goes between
    two blocks, as ``read_token_tsv`` reads them."""
    lines = []
    for t in sentence:
        tag_text = ",".join(sorted(str(tag) for tag in t.tags))
        lines.append(f"{t.token}\t{t.pos}\t{tag_text}\n" if t.tags else f"{t.token}\t{t.pos}\n")
    return "".join(lines)


def is_auxiliary_token(tagged: Sequence[tuple[str, str]], i: int) -> bool:
    """Token-level auxiliary test shared with the rule generator's lists.

    Modals are always auxiliary.  A form of be/have/do is auxiliary when
    the next token (skipping adverbs and ``to``) is verbal.
    """
    token, pos = tagged[i]
    if pos == "MD":
        return True
    if token.lower() not in rulegen.AUX_CANDIDATE_WORDS:
        return False
    for next_token, next_pos in tagged[i + 1 :]:
        if next_pos in _SKIP_POS:
            continue
        return next_pos in rulegen.VERBAL_POS
    return False


def _next_verb(tagged: Sequence[tuple[str, str]], start: int) -> int | None:
    for j in range(start, len(tagged)):
        pos = tagged[j][1]
        if pos in rulegen.VERBAL_POS and not is_auxiliary_token(tagged, j):
            return j
    return None


@dataclass(eq=False)  # ``anns.remove`` finds an annotation by identity
class _RawAnn:
    span: Span
    tag: MNTag
    target: _RawAnn | None = None  # a trigger's target, when the tagger found one


@dataclass
class TagResult:
    """What ``tag_string`` found in one sentence.  ``tokens`` is built on
    first read: inline text needs only the words and the annotations."""

    annotations: list[StandoffAnnotation]
    diagnostics: list[str]
    tagged: Sequence[tuple[str, str]] = field(repr=False, compare=False)

    @cached_property
    def tokens(self) -> list[TaggedToken]:
        """Each (token, POS) pair with the tags over it."""
        tag_sets: list[set[MNTag]] = [set() for _ in self.tagged]
        for ann in self.annotations:
            tag = TAGS[ann.label]
            for k in range(ann.span.start, ann.span.end):
                tag_sets[k].add(tag)
        return [
            TaggedToken(tok, pos, frozenset(tag_sets[k]))
            for k, (tok, pos) in enumerate(self.tagged)
        ]


def _compose_pass(
    triggers: list[_RawAnn], anns: list[_RawAnn], diagnostics: list[str], structure: bool
) -> None:
    """Fold each negation trigger into the modality it scopes over.

    The negation scopes over the nearest trigger whose target it
    precedes, or else, with ``structure`` set (the structure tagger),
    over the trigger that starts just after it.  That trigger's target
    tag gains an outer NOT, and the negation's own raw target leaves
    ``anns`` when it sits where the composed tag now says it: on that
    target's span in the first case, on the trigger's in the second.
    With ``structure`` set, composition is skipped when the target word
    is itself a trigger (nested modality): the raw tags stay for graft
    to compose by tree position.
    """
    mods = [t for t in triggers if t.tag.modality is not Modality.NEGATION]
    trigger_spans = {t.span for t in mods}
    for neg in triggers:
        if neg.tag.modality is not Modality.NEGATION:
            continue
        nspan = neg.span
        straddled = [
            t
            for t in mods
            if t.target is not None
            and t.span.end <= nspan.start
            and nspan.end <= t.target.span.start
        ]
        if straddled:
            scoped = max(straddled, key=lambda t: t.span.end)
            own = scoped.target.span
        else:  # the structure tagger looks just after the negation too
            scoped = next((t for t in mods if structure and t.span.start == nspan.end), None)
            own = scoped.span if scoped else None
        if scoped is None or scoped.target is None:
            if neg.target is None:
                diagnostics.append(f"negation trigger at {nspan.start} has no target")
            continue
        if structure and scoped.target.span in trigger_spans:
            continue
        scoped.target.tag = compose_negation(scoped.target.tag)
        if neg.target is not None and neg.target.span == own:
            anns.remove(neg.target)


def _finish_annotations(anns: list[_RawAnn], sentence: int) -> list[StandoffAnnotation]:
    """The distinct standoff annotations of ``anns``, in standoff order."""
    return sorted(
        {StandoffAnnotation(sentence, a.span, str(a.tag), MN_FAMILY) for a in anns},
        key=StandoffAnnotation.sort_key,
    )


# ---------------------------------------------------------------------------
# String tagger


def tag_string(
    tagged: Sequence[tuple[str, str]], lexicon: Lexicon, sentence: int = 0
) -> TagResult:
    """Tag a (token, POS) sequence against the lexicon.

    Triggers are exact word+POS matches; each non-negation trigger's
    target is the next non-auxiliary verb to its right.
    """
    diagnostics: list[str] = []
    triggers: list[_RawAnn] = []
    anns: list[_RawAnn] = []

    for i in range(len(tagged)):
        for entry, (start, end) in lookup(lexicon, tagged, i):
            trig = _RawAnn(Span(start, end), MNTag(Role.TRIGGER, False, entry.modality, False))
            triggers.append(trig)
            anns.append(trig)
            j = _next_verb(tagged, end)
            if j is not None:
                trig.target = _RawAnn(
                    Span(j, j + 1), MNTag(Role.TARGET, False, entry.modality, False)
                )
                anns.append(trig.target)
            elif entry.modality is not Modality.NEGATION:
                diagnostics.append(
                    f"trigger {entry.surface!r} at {start} has no following verb"
                )

    _compose_pass(triggers, anns, diagnostics, structure=False)
    return TagResult(_finish_annotations(anns, sentence), diagnostics, tagged)


# ---------------------------------------------------------------------------
# Structure tagger


@dataclass
class StructureResult:
    tree: ParseTree
    annotations: list[StandoffAnnotation]
    diagnostics: list[str] = field(default_factory=list)
    fired_rules: list[str] = field(default_factory=list)


def tag_structure(
    tree: ParseTree, rules: Sequence[matcher.PatternRule], sentence: int = 0
) -> StructureResult:
    """Apply pattern rules to a flattened, preprocessed tree.

    Every rule given is applied, in order, each to fixpoint.  Generated
    rules are one per (template, modality), about twenty whatever the
    lexicon's size, and a rule whose required atoms are absent from the
    tree costs one call but no walk (``matcher.match`` turns it down
    with a set test).  Returns the suffix-tagged tree (markers folded,
    word yield preserved) plus the standoff annotations.
    """
    diagnostics: list[str] = []
    triggers: list[_RawAnn] = []
    anns: list[_RawAnn] = []
    fired: list[str] = []
    current = tree

    def record(m: matcher.Match, before: ParseTree) -> None:
        # One annotation per action, in action order, so two actions on
        # one capture record two.  An augment's is no trigger and no
        # target, so it stays raw, as the label the augment wrote
        # (module docstring).
        trigger = target = None
        for action in m.rule.actions:
            tag = TAGS.get(action.label)
            if tag is None:
                continue  # non-MN payload: lands on the tree only
            span = rulegen.word_spans(before, m.paths[action.capture])
            if span is None:
                continue
            ann = _RawAnn(span, tag)
            anns.append(ann)
            if action.kind is matcher.ActionKind.AUGMENT:
                continue
            if tag.role is Role.TRIGGER:
                trigger = ann
            else:
                target = ann
        if trigger is not None:
            trigger.target = target
            triggers.append(trigger)
        fired.append(m.rule.name)

    for rule in rules:
        current = matcher.apply(rule, current, on_rewrite=record)

    _compose_pass(triggers, anns, diagnostics, structure=True)
    annotations = _finish_annotations(anns, sentence)
    folded = fold_markers(current, annotations)
    return StructureResult(folded, annotations, diagnostics, fired)


def fold_markers(tree: ParseTree, annotations: Sequence[StandoffAnnotation]) -> ParseTree:
    """Replace marker daughters with label suffixes.

    Preprocessing markers (AUX, VoicePassive) are dropped.  A node that
    carried tag markers gains one ``-`` suffix per annotation on its
    word span, in precedence order.
    """
    by_span: dict[Span, list[str]] = {}
    for a in annotations:
        by_span.setdefault(a.span, []).append(a.label)
    return _fold(tree, 0, by_span)[0]


def _fold(node: ParseTree, start: int, by_span: dict[Span, list[str]]) -> tuple[ParseTree, int]:
    """The folded node and the end of its word span, which begins at
    ``start``; marker leaves never reach here, except as the root.  A
    subtree the fold leaves unchanged is returned as it is, not copied."""
    children = node.children
    if not children:
        return node, start + 1
    markers: list[str] = []
    kept: list[ParseTree] = []
    end = start
    for c in children:
        if rulegen.is_marker_leaf(c):
            markers.append(c.label)
        else:
            folded, end = _fold(c, end, by_span)
            kept.append(folded)
    label = node.label
    if end > start and not TAG_SPELLINGS.isdisjoint(markers):
        labels = by_span.get(Span(start, end), [])
        for suffix in sorted(labels, key=lambda l: (specificity_rank(TAGS[l]), l)):
            label = add_suffix(label, suffix)
    if len(kept) == 1 and kept[0].is_leaf and kept[0].label == kept[0].token:
        return ParseTree(label, (), kept[0].token), end
    return rebuilt(node, kept, label), end


# ---------------------------------------------------------------------------
# Inline rendering


def _inline_rank(label: str) -> tuple:
    tag = TAGS.get(label)
    if tag is None:
        return (999, 0, label)
    return (specificity_rank(tag), 0 if tag.role is Role.TRIGGER else 1, label)


def render_inline(tokens: Sequence[str], annotations: Sequence[StandoffAnnotation]) -> str:
    """Angle-bracket inline form: ``<TrigRequire should>``.

    Same-span tags nest outermost-first by specificity rank; spans are
    assumed non-crossing, as the taggers produce them.  A word that
    starts with ``<`` or ends with ``>`` would read back as a bracket,
    so it raises ValueError naming the word.
    """
    opens: dict[int, list[StandoffAnnotation]] = {}
    closes: dict[int, int] = {}
    for a in annotations:
        opens.setdefault(a.span.start, []).append(a)
        closes[a.span.end - 1] = closes.get(a.span.end - 1, 0) + 1
    pieces = []
    for i, token in enumerate(tokens):
        if token.startswith("<") or token.endswith(">"):
            raise ValueError(f"word {token!r} is spelled like an inline bracket")
        prefix = "".join(
            f"<{a.label} "
            for a in sorted(opens.get(i, []), key=lambda a: (-a.span.end, *_inline_rank(a.label)))
        )
        pieces.append(prefix + token + ">" * closes.get(i, 0))
    return " ".join(pieces)


def parse_inline(text: str, sentence: int = 0) -> tuple[list[str], list[StandoffAnnotation]]:
    """Inverse of ``render_inline`` for well-formed inline text."""
    tokens: list[str] = []
    stack: list[tuple[str, int]] = []
    annotations: list[StandoffAnnotation] = []
    for piece in text.split():
        if piece.startswith("<"):
            stack.append((piece[1:], len(tokens)))
            continue
        n_close = len(piece) - len(piece.rstrip(">"))
        word = piece[: len(piece) - n_close] if n_close else piece
        tokens.append(word)
        for _ in range(n_close):
            if not stack:
                raise ValueError("unbalanced '>' in inline text")
            label, start = stack.pop()
            annotations.append(
                StandoffAnnotation(sentence, Span(start, len(tokens)), label, MN_FAMILY)
            )
    if stack:
        raise ValueError("unclosed tag in inline text")
    annotations.sort(key=StandoffAnnotation.sort_key)
    return tokens, annotations


# ---------------------------------------------------------------------------
# Agreement


@dataclass(frozen=True)
class LabelScores:
    tp: int
    in_a: int
    in_b: int

    @property
    def precision(self) -> float:
        return self.tp / self.in_a if self.in_a else 0.0

    @property
    def recall(self) -> float:
        return self.tp / self.in_b if self.in_b else 0.0


@dataclass
class AgreementReport:
    overlap_rate: float
    per_label: dict[str, LabelScores]

    def format(self) -> str:
        lines = [f"overlap: {self.overlap_rate:.1f}"]
        for label in sorted(self.per_label):
            s = self.per_label[label]
            lines.append(
                f"{label}\tprecision {s.precision:.3f}\trecall {s.recall:.3f}"
                f"\t({s.tp}/{s.in_a}/{s.in_b})"
            )
        return "\n".join(lines) + "\n"


def agreement(a: Sequence[StandoffAnnotation], b: Sequence[StandoffAnnotation]) -> AgreementReport:
    """Compare annotation lists, treating ``b`` as the reference.

    The overlap rate is the share of reference sentence-level tag sets
    that ``a`` reproduces; per-label scores use exact span matches.  A
    sentence neither list annotates counts for nothing, so the lists
    need not name the same last sentence.
    """
    labels_a: dict[int, set[str]] = {}
    labels_b: dict[int, set[str]] = {}
    for ann in a:
        labels_a.setdefault(ann.sentence, set()).add(ann.label)
    for ann in b:
        labels_b.setdefault(ann.sentence, set()).add(ann.label)
    matched = sum(len(labels_a.get(s, set()) & tags) for s, tags in labels_b.items())
    total_b = sum(len(tags) for tags in labels_b.values())
    total_a = sum(len(tags) for tags in labels_a.values())
    if total_b == 0:
        rate = 100.0 if total_a == 0 else 0.0
    else:
        rate = 100.0 * matched / total_b

    set_a = {(x.sentence, x.span.start, x.span.end, x.label) for x in a}
    set_b = {(x.sentence, x.span.start, x.span.end, x.label) for x in b}
    in_a, in_b = Counter(t[3] for t in set_a), Counter(t[3] for t in set_b)
    tp = Counter(t[3] for t in set_a & set_b)
    per_label = {l: LabelScores(tp[l], in_a[l], in_b[l]) for l in in_a.keys() | in_b.keys()}
    return AgreementReport(rate, per_label)
