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
along its path in the tree the match was found in.  Then the tagger
runs a negation-composition pass:

* a negation between a trigger and its target composes NOT into the
  target tag unless the target word is itself a trigger (nested
  modality, left for tree grafting to resolve);
* a negation immediately before a trigger scopes over that trigger's
  modality and composes NOT into its target's tag, with the same
  nested-modality exemption;
* otherwise the negation keeps its own raw Negation target.

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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import matcher, rulegen, standoff
from .lexicon import Lexicon, lookup
from .standoff import MN_FAMILY, StandoffAnnotation
from .tags import TAG_SPELLINGS, MNTag, Modality, Role, compose_negation, parse_tag
from .tags import specificity_rank
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


def format_token_tsv(sentences: Iterable[Sequence[TaggedToken]]) -> str:
    blocks = []
    for sent in sentences:
        lines = []
        for t in sent:
            tag_text = ",".join(sorted(str(tag) for tag in t.tags))
            lines.append(f"{t.token}\t{t.pos}\t{tag_text}" if t.tags else f"{t.token}\t{t.pos}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


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


@dataclass
class _Link:
    trigger_ann: _RawAnn  # its tag names the link's modality
    target_ann: _RawAnn | None = None


@dataclass
class TagResult:
    tokens: list[TaggedToken]
    annotations: list[StandoffAnnotation]
    diagnostics: list[str] = field(default_factory=list)


def _compose_pass(
    links: list[_Link], anns: list[_RawAnn], diagnostics: list[str], structure: bool
) -> None:
    """Fold negation links into the modality links they scope over.

    The string tagger composes only between a trigger and its target.
    With ``structure`` set (the structure tagger), a negation
    immediately before a trigger also composes into that trigger's
    target, and composition is skipped when the word that would receive
    the rewritten tag is itself a trigger; the raw tags stay for
    downstream composition during grafting.  A negation composed onto
    its own raw target's word removes that target from ``anns``.
    """
    mod_links = [l for l in links if l.trigger_ann.tag.modality is not Modality.NEGATION]
    trigger_spans = {l.trigger_ann.span for l in mod_links}
    for neg in links:
        if neg.trigger_ann.tag.modality is not Modality.NEGATION:
            continue
        nspan = neg.trigger_ann.span
        composed = False
        # Negation between a trigger and that trigger's target.
        straddled = [
            l
            for l in mod_links
            if l.target_ann is not None
            and l.trigger_ann.span.end <= nspan.start
            and nspan.end <= l.target_ann.span.start
        ]
        if straddled:
            link = max(straddled, key=lambda l: l.trigger_ann.span.end)
            if structure and link.target_ann.span in trigger_spans:
                continue
            link.target_ann.tag = compose_negation(link.target_ann.tag)
            if neg.target_ann is not None and neg.target_ann.span == link.target_ann.span:
                anns.remove(neg.target_ann)
            composed = True
        elif structure:
            following = [l for l in mod_links if l.trigger_ann.span.start == nspan.end]
            if following and following[0].target_ann is not None:
                link = following[0]
                if link.target_ann.span in trigger_spans:
                    continue
                link.target_ann.tag = compose_negation(link.target_ann.tag)
                if neg.target_ann is not None and neg.target_ann.span == link.trigger_ann.span:
                    anns.remove(neg.target_ann)
                composed = True
        if not composed and neg.target_ann is None:
            diagnostics.append(f"negation trigger at {nspan.start} has no target")


def _finish_annotations(anns: list[_RawAnn], sentence: int) -> list[StandoffAnnotation]:
    seen = set()
    out = []
    for ann in anns:
        key = (ann.span, str(ann.tag))
        if key in seen:
            continue
        seen.add(key)
        out.append(StandoffAnnotation(sentence, ann.span, str(ann.tag), MN_FAMILY))
    out.sort(key=StandoffAnnotation.sort_key)
    return out


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
    links: list[_Link] = []
    anns: list[_RawAnn] = []

    for i in range(len(tagged)):
        for entry, (start, end) in lookup(lexicon, tagged, i):
            trig = _RawAnn(Span(start, end), MNTag(Role.TRIGGER, False, entry.modality, False))
            link = _Link(trig)
            anns.append(trig)
            j = _next_verb(tagged, end)
            if j is not None:
                targ = _RawAnn(Span(j, j + 1), MNTag(Role.TARGET, False, entry.modality, False))
                link.target_ann = targ
                anns.append(targ)
            elif entry.modality is not Modality.NEGATION:
                diagnostics.append(
                    f"trigger {entry.surface!r} at {start} has no following verb"
                )
            links.append(link)

    _compose_pass(links, anns, diagnostics, structure=False)
    annotations = _finish_annotations(anns, sentence)

    tag_sets: list[set[MNTag]] = [set() for _ in tagged]
    for ann in anns:
        for k in range(ann.span.start, ann.span.end):
            tag_sets[k].add(ann.tag)
    tokens = [
        TaggedToken(tok, pos, frozenset(tag_sets[k]))
        for k, (tok, pos) in enumerate(tagged)
    ]
    return TagResult(tokens, annotations, diagnostics)


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
    links: list[_Link] = []
    anns: list[_RawAnn] = []
    fired: list[str] = []
    current = tree

    def record(m: matcher.Match, before: ParseTree) -> None:
        # One annotation per action, in action order, so two actions on
        # one capture record two.  Insert and augment labels alike:
        # augment bakes the suffix in directly, but the annotation is
        # still recorded so standoff output stays complete.
        trigger = target = None
        for action in m.rule.actions:
            if action.label not in TAG_SPELLINGS:
                continue  # non-MN payload: lands on the tree only
            span = rulegen.word_spans(before, m.paths[action.capture])
            if span is None:
                continue
            tag = parse_tag(action.label)
            ann = _RawAnn(span, tag)
            anns.append(ann)
            if tag.role is Role.TRIGGER:
                trigger = ann
            else:
                target = ann
        if trigger is not None:
            links.append(_Link(trigger, target))
        fired.append(m.rule.name)

    for rule in rules:
        current = matcher.apply(rule, current, on_rewrite=record)

    _compose_pass(links, anns, diagnostics, structure=True)
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
        for suffix in sorted(labels, key=lambda l: (specificity_rank(parse_tag(l)), l)):
            label = add_suffix(label, suffix)
    if len(kept) == 1 and kept[0].is_leaf and kept[0].label == kept[0].token:
        return ParseTree(label, (), kept[0].token), end
    return rebuilt(node, kept, label), end


# ---------------------------------------------------------------------------
# Inline rendering


def _inline_rank(label: str) -> tuple:
    if label not in TAG_SPELLINGS:
        return (999, 0, label)
    tag = parse_tag(label)
    return (specificity_rank(tag), 0 if tag.role is Role.TRIGGER else 1, label)


def render_inline(tokens: Sequence[str], annotations: Sequence[StandoffAnnotation]) -> str:
    """Angle-bracket inline form: ``<TrigRequire should>``.

    Same-span tags nest outermost-first by specificity rank; spans are
    assumed non-crossing, as the taggers produce them.
    """
    opens: dict[int, list[StandoffAnnotation]] = {}
    closes: dict[int, int] = {}
    for a in annotations:
        opens.setdefault(a.span.start, []).append(a)
        closes[a.span.end - 1] = closes.get(a.span.end - 1, 0) + 1
    pieces = []
    for i, token in enumerate(tokens):
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
        while piece.startswith("<"):
            label, _, rest = piece[1:].partition(" ")
            stack.append((label, len(tokens)))
            piece = rest
            if not piece:
                break
        if not piece:
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
    per_label: dict[str, LabelScores] = {}
    for label in {t[3] for t in set_a | set_b}:
        la = {t for t in set_a if t[3] == label}
        lb = {t for t in set_b if t[3] == label}
        per_label[label] = LabelScores(len(la & lb), len(la), len(lb))
    return AgreementReport(rate, per_label)
