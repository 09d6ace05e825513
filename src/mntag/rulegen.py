"""Preprocessing markers and template expansion.

``preprocess`` inserts two marker daughters that the shipped patterns
test for: ``AUX`` on auxiliary uses of be/have/do (a form with a later
verbal sister in the same flattened clause) and ``VoicePassive`` on VBN
nodes preceded in their clause by a form of be.

``expand_templates`` binds one rule per (template, modality) into each
template, parsed once: ``{WORD}`` to the forms of the group's trigger
heads, ``{TRIG}``/``{TARG}`` to the modality's tags.  ``_bind`` rebuilds
only what lies above a placeholder and shares the rest; ``source``
spells the result for display only.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from operator import is_
from typing import Iterable, Iterator

from .lexicon import Lexicon, LexiconEntry, LexiconError
from .matcher import Action, ActionKind, Clause, NodeTest, Pattern, PatternRule
from .matcher import PatternSyntaxError, TreePath, parse_pattern, read_records
from .tags import TAG_SPELLINGS, MNTag, Modality, Role
from .trees import LABEL_BAD, ParseTree, Span, base_category, insert_leaf, rebuilt

BE_FORMS = frozenset(["be", "am", "is", "are", "was", "were", "been", "being", "'s", "'re", "'m"])
HAVE_FORMS = frozenset(["have", "has", "had", "having", "'ve", "'d"])
DO_FORMS = frozenset(["do", "does", "did", "doing", "done"])

#: Words with auxiliary uses, marked by ``preprocess`` when context fits.
AUX_CANDIDATE_WORDS = BE_FORMS | HAVE_FORMS | DO_FORMS

#: POS tags counted as verbal when hunting for targets.
VERBAL_POS = frozenset(["VB", "VBD", "VBG", "VBN", "VBP", "VBZ", "MD"])

AUX_MARKER = "AUX"
PASSIVE_MARKER = "VoicePassive"


#: Every marker spelling: ``AUX``, ``VoicePassive`` and each tag string.
_MARKER_LABELS = TAG_SPELLINGS | {AUX_MARKER, PASSIVE_MARKER}


def is_marker_label(label: str) -> bool:
    """True for a marker's spelling: ``AUX``, ``VoicePassive`` or a tag."""
    return label in _MARKER_LABELS


def _check_labels(actions: Iterable[Action]) -> None:
    """Reject an action label the tagger's output could not fold back: an
    insert leaf that is not a marker would stay in the tree as a word,
    and an augment suffix must be one label segment."""
    for action in actions:
        if action.kind is ActionKind.INSERT and not is_marker_label(action.label):
            raise PatternSyntaxError(
                f"insert label {action.label!r} is not a marker"
                f" ({AUX_MARKER}, {PASSIVE_MARKER} or a tag)"
            )
        if action.kind is ActionKind.AUGMENT and (
            "-" in action.label or LABEL_BAD.search(action.label)
        ):
            raise PatternSyntaxError(f"augment suffix {action.label!r} is not one label segment")


def is_marker_leaf(node: ParseTree) -> bool:
    """True for leaves inserted as markers rather than surface words."""
    # Only a leaf carries a token, so only a leaf's token equals its label.
    return node.token == node.label and node.label in _MARKER_LABELS


def word_tokens(tree: ParseTree) -> list[str]:
    """The yield with marker leaves removed."""
    return [n.token for n in tree.leaves() if not is_marker_leaf(n)]  # type: ignore[misc]


def _word_count(tree: ParseTree) -> int:
    """Leaves of ``tree`` that are words, not markers."""
    if tree.children:
        return sum(map(_word_count, tree.children))
    return 0 if is_marker_leaf(tree) else 1


def word_spans(tree: ParseTree, path: TreePath) -> Span | None:
    """Span over word-token indices (markers skipped) of the node at
    ``path``; None when its yield is markers only."""
    start = 0
    for i in path:
        start += sum(map(_word_count, tree.children[:i]))
        tree = tree.children[i]
    end = start + _word_count(tree)
    return Span(start, end) if end > start else None


def _is_verbal_label(label: str) -> bool:
    base = base_category(label)
    return base in VERBAL_POS or base.startswith("VB")


def _leaf_word(child: ParseTree) -> str | None:
    """Surface word of a (possibly marker-wrapped) preterminal child."""
    if child.is_leaf:
        return child.token
    words = [c.token for c in child.children if c.is_leaf and not is_marker_leaf(c)]
    return words[0] if len(words) == 1 else None


def preprocess(tree: ParseTree) -> ParseTree:
    """Attach AUX and VoicePassive marker daughters on a flattened tree.

    A subtree that gains no marker is returned as it is, not copied."""
    children = tree.children
    if not children:
        return tree
    marks: dict[int, list[str]] = {}
    # No marker's label is verbal, and none lowercases into ``BE_FORMS``,
    # so the tests below pass over marker leaves with no test of their own.
    for i, child in enumerate(children):
        if not _is_verbal_label(child.label):
            continue
        word = _leaf_word(child)
        if word is None:
            continue
        lower = word.lower()
        if lower in AUX_CANDIDATE_WORDS and any(
            _is_verbal_label(later.label) for later in children[i + 1 :]
        ):
            marks.setdefault(i, []).append(AUX_MARKER)
        if child.label.startswith("VBN") and any(
            (w := _leaf_word(earlier)) is not None
            and w.lower() in BE_FORMS
            and _is_verbal_label(earlier.label)
            for earlier in children[:i]
        ):
            marks.setdefault(i, []).append(PASSIVE_MARKER)
    new_children = [preprocess(c) if c.children else c for c in children]
    for i, markers in marks.items():
        for marker in markers:
            new_children[i] = _attach_marker(new_children[i], marker)
    return rebuilt(tree, new_children)


def _attach_marker(node: ParseTree, marker: str) -> ParseTree:
    # A preterminal whose word is spelled like the marker already has it.
    if node.token == marker or any(is_marker_leaf(k) and k.label == marker for k in node.children):
        return node
    return insert_leaf(node, 1, marker)


# ---------------------------------------------------------------------------
# Inflection

_VOWELS = "aeiou"


def _third_singular(verb: str) -> str:
    if verb.endswith("y") and len(verb) > 1 and verb[-2] not in _VOWELS:
        return verb[:-1] + "ies"
    if verb.endswith(("s", "x", "z", "ch", "sh", "o")):
        return verb + "es"
    return verb + "s"


def _past(verb: str) -> str:
    if verb.endswith("e"):
        return verb + "d"
    if verb.endswith("y") and len(verb) > 1 and verb[-2] not in _VOWELS:
        return verb[:-1] + "ied"
    return verb + "ed"


def _gerund(verb: str) -> str:
    if verb.endswith("e") and not verb.endswith("ee"):
        return verb[:-1] + "ing"
    return verb + "ing"


def inflections(entry: LexiconEntry) -> tuple[str, ...]:
    """Surface forms a rule should match for this trigger.

    A ``Forms:`` line on the entry overrides the regular morphology;
    non-verb entries match their head word only.
    """
    if override := entry.extra("Forms"):
        return tuple(dict.fromkeys(override.split()))
    head = entry.head.lower()
    if entry.pos[0].startswith("VB"):
        return tuple(dict.fromkeys([head, _third_singular(head), _past(head), _gerund(head)]))
    return (head,)


# ---------------------------------------------------------------------------
# Templates


WORD, TRIG, TARG = "{WORD}", "{TRIG}", "{TARG}"
_PLACEHOLDERS = frozenset([WORD, TRIG, TARG])
_PLACEHOLDER = re.compile("|".join(map(re.escape, (WORD, TRIG, TARG))))


#: Parsed templates by subcat code, placeholders unbound.
TemplateRegistry = dict[str, PatternRule]


def load_registry(text: str) -> TemplateRegistry:
    """Parse a template file: ``read_records`` records of a ``template
    NAME`` header, pattern line(s) and action lines.  Each template is
    parsed and its action labels checked here, once, whether or not an
    entry uses it; errors name the template and its line."""
    templates: TemplateRegistry = {}
    for lineno, lines in read_records(text):
        header, *body = (line.strip() for line in lines)
        name = header.removeprefix("template ").strip()
        try:
            if not header.startswith("template "):
                raise ValueError("record must start with 'template NAME'")
            if name in templates:
                raise ValueError("duplicate template")
            template = parse_pattern("\n".join(body), name=name)
            labels = {action.label for action in template.actions}
            if WORD in labels or WORD not in _atoms(template.pattern):
                raise ValueError(f"{WORD} must be an atom of the pattern")
            if {TRIG, TARG} - labels:
                raise ValueError(f"missing action label {TRIG} or {TARG}")
            # Expansion binds {TRIG} and {TARG} to tags, which fold back.
            _check_labels(a for a in template.actions if a.label not in (TRIG, TARG))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: template {name}: {exc}") from None
        templates[name] = template
    return templates


def _atoms(pattern: Pattern) -> Iterator[str]:
    yield from pattern.test.alternatives or ()
    for clause in pattern.clauses:
        yield from _atoms(clause.operand)


def default_registry() -> TemplateRegistry:
    from importlib.resources import files

    return load_registry(files("mntag.data").joinpath("templates.txt").read_text("utf-8"))


def trigger_tag(modality: Modality) -> str:
    return str(MNTag(Role.TRIGGER, False, modality, False))


def target_tag(modality: Modality) -> str:
    return str(MNTag(Role.TARGET, False, modality, False))


def expand_templates(lexicon: Lexicon, registry: TemplateRegistry) -> list[PatternRule]:
    """One rule per (subcat code, modality), named ``code:Modality``,
    whose ``{WORD}`` test holds the forms of the group's entries.

    The paper binds one rule per (entry, subcat code), in lexicon order.
    Here a group's rule stands where its first entry's rule would, and
    later entries' forms move up to it.  Rule order matters only between
    rules that test one word: the ``!< /^Trig/`` guard lets the first
    rule that reaches a trigger claim it, and an insert under a
    preterminal hides its word from tests on that node or its parent
    (templates test a preposition through its ``IN`` node, which no rule
    inserts under).  So an entry starts a new rule for its group, same
    name, placed last, when its forms would pass a rule that holds one
    of them, or when either holds a form spelled like a template atom
    (``MD``, ``for``).  The rules then tag as the per-entry rules do, on
    trees whose words are not Penn tags a template tests by name (``NN``,
    ``JJ``).  A subcat code with no template raises ``LexiconError``
    naming the entry's record."""
    tested = frozenset(a for t in registry.values() for a in _atoms(t.pattern)) - _PLACEHOLDERS
    groups: list[tuple[str, Modality, dict[str, None]]] = []
    latest: dict[tuple[str, Modality], int] = {}
    # The latest group holding each form, and holding any tested atom.
    last_with: dict[str, int] = {}
    last_tested = -1
    for k, entry in enumerate(lexicon.entries):
        forms = inflections(entry)
        has_tested = not tested.isdisjoint(forms)
        newest = max(map(last_with.get, forms, repeat(-1)))
        for code in entry.subcats:
            if code not in registry:
                raise LexiconError(f"{lexicon.where(k)}: no template for subcat code {code!r}")
            key = (code, entry.modality)
            at = latest.get(key, -1)
            # The latest group the forms must not pass: any group if they hold a
            # tested atom, else one holding a tested atom or one of the forms.
            if at < 0 or (len(groups) - 1 if has_tested else max(last_tested, newest)) > at:
                at = latest[key] = len(groups)
                groups.append((code, entry.modality, {}))
            newest = at
            held = groups[at][2]
            for form in forms:
                held[form] = None
                last_with[form] = at
            if has_tested:
                last_tested = at
    rules: list[PatternRule] = []
    for code, modality, forms in groups:
        template = registry[code]
        atoms = {WORD: tuple(forms), TRIG: (trigger_tag(modality),), TARG: (target_tag(modality),)}
        text = {placeholder: "|".join(values) for placeholder, values in atoms.items()}
        name = f"{code}:{modality.value}"
        actions = tuple(
            Action(a.kind, a.capture, text.get(a.label, a.label), a.position)
            for a in template.actions
        )
        source = _PLACEHOLDER.sub(lambda m: text[m.group()], template.source)
        pattern = _bind(template.pattern, atoms)
        rules.append(PatternRule(name, pattern, actions, source=f"rule {name}\n{source}"))
    return rules


def _bind(pattern: Pattern, atoms: dict[str, tuple[str, ...]]) -> Pattern:
    """``pattern`` with each placeholder alternative replaced by its
    values.  A sub-pattern with no placeholder, and a clause whose
    operand has none, come back as the same objects, so every bound rule
    shares them with the template."""
    test = pattern.test
    alts = test.alternatives or ()
    if not _PLACEHOLDERS.isdisjoint(alts):
        test = NodeTest(frozenset(chain.from_iterable(atoms.get(a, (a,)) for a in alts)))
    clauses = tuple(
        c if (operand := _bind(c.operand, atoms)) is c.operand else Clause(c.relation, operand)
        for c in pattern.clauses
    )
    if test is pattern.test and all(map(is_, clauses, pattern.clauses)):
        return pattern
    return Pattern(test, pattern.capture, clauses)
