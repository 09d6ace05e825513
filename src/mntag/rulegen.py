"""Preprocessing markers and template expansion.

``preprocess`` inserts two marker daughters that the shipped patterns
test for: ``AUX`` on auxiliary uses of be/have/do (a form with a later
verbal sister in the same flattened clause) and ``VoicePassive`` on VBN
nodes preceded in their clause by a form of be.

``expand_templates`` crosses the lexicon with a registry of named
pattern templates.  A template holds ``{WORD}``, ``{TRIG}`` and
``{TARG}`` placeholders; expansion binds ``{WORD}`` to an alternation
of the trigger head's inflected forms and the tag placeholders to the
canonical trigger/target tag strings for the entry's modality.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .lexicon import Lexicon, LexiconEntry
from .matcher import PatternRule, parse_pattern
from .tags import MNTag, Modality, Role, is_tag_string
from .trees import ParseTree, Span, spans_by_id

log = logging.getLogger(__name__)

#: Closed modal set; these words are never tagged as targets.
MODAL_WORDS = frozenset(
    ["can", "could", "may", "might", "must", "shall", "should", "will", "would", "need", "ought"]
)

BE_FORMS = frozenset(["be", "am", "is", "are", "was", "were", "been", "being", "'s", "'re", "'m"])
HAVE_FORMS = frozenset(["have", "has", "had", "having", "'ve", "'d"])
DO_FORMS = frozenset(["do", "does", "did", "doing", "done"])

#: Words with auxiliary uses, marked by ``preprocess`` when context fits.
AUX_CANDIDATE_WORDS = BE_FORMS | HAVE_FORMS | DO_FORMS

#: POS tags counted as verbal when hunting for targets.
VERBAL_POS = frozenset(["VB", "VBD", "VBG", "VBN", "VBP", "VBZ", "MD"])

AUX_MARKER = "AUX"
PASSIVE_MARKER = "VoicePassive"


def is_marker_leaf(node: ParseTree) -> bool:
    """True for leaves inserted as markers rather than surface words."""
    if not node.is_leaf or node.label != node.token:
        return False
    return node.label in (AUX_MARKER, PASSIVE_MARKER) or is_tag_string(node.label)


def word_leaves(tree: ParseTree) -> list[ParseTree]:
    return [n for n in tree.leaves() if not is_marker_leaf(n)]


def word_tokens(tree: ParseTree) -> list[str]:
    """The yield with marker leaves removed."""
    return [n.token for n in word_leaves(tree)]  # type: ignore[misc]


def word_spans(tree: ParseTree) -> dict[int, Span]:
    """Map from node id to span over word-token indices (markers skipped).

    Nodes whose yield is markers only are absent.
    """
    return spans_by_id(tree, is_word=lambda n: not is_marker_leaf(n))


def _is_verbal_label(label: str) -> bool:
    from .trees import base_category

    base = base_category(label)
    return base in VERBAL_POS or base.startswith("VB")


def _leaf_word(child: ParseTree) -> str | None:
    """Surface word of a (possibly marker-wrapped) preterminal child."""
    if is_marker_leaf(child):
        return None
    if child.is_leaf:
        return child.token
    words = [c.token for c in child.children if c.is_leaf and not is_marker_leaf(c)]
    return words[0] if len(words) == 1 else None


def preprocess(tree: ParseTree) -> ParseTree:
    """Attach AUX and VoicePassive marker daughters on a flattened tree."""
    if tree.is_leaf:
        return tree
    children = list(tree.children)
    marks: dict[int, list[str]] = {}
    for i, child in enumerate(children):
        if child.is_leaf and is_marker_leaf(child):
            continue
        if not _is_verbal_label(child.label):
            continue
        word = _leaf_word(child)
        if word is None:
            continue
        lower = word.lower()
        if lower in AUX_CANDIDATE_WORDS and any(
            _is_verbal_label(later.label) and not is_marker_leaf(later)
            for later in children[i + 1 :]
        ):
            marks.setdefault(i, []).append(AUX_MARKER)
        if child.label.startswith("VBN") and any(
            (w := _leaf_word(earlier)) is not None
            and w.lower() in BE_FORMS
            and _is_verbal_label(earlier.label)
            for earlier in children[:i]
        ):
            marks.setdefault(i, []).append(PASSIVE_MARKER)
    new_children = []
    for i, child in enumerate(children):
        child = preprocess(child)
        for marker in marks.get(i, []):
            child = _attach_marker(child, marker)
        new_children.append(child)
    return ParseTree(tree.label, tuple(new_children), None)


def _attach_marker(node: ParseTree, marker: str) -> ParseTree:
    kids = list(node.children)
    if node.is_leaf:
        kids = [ParseTree(node.token, (), node.token)]  # type: ignore[arg-type]
    if any(is_marker_leaf(k) and k.label == marker for k in kids):
        return node
    kids.insert(min(1, len(kids)), ParseTree(marker, (), marker))
    return ParseTree(node.label, tuple(kids), None)


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
    override = entry.extra("Forms")
    if override:
        return tuple(dict.fromkeys(override.split()))
    head = entry.head.lower()
    if entry.pos[0].startswith("VB"):
        forms = [head, _third_singular(head), _past(head), _gerund(head)]
        return tuple(dict.fromkeys(forms))
    return (head,)


# ---------------------------------------------------------------------------
# Templates


@dataclass(frozen=True)
class Template:
    name: str
    pattern_src: str
    action_srcs: tuple[str, ...]

    def __post_init__(self) -> None:
        combined = self.pattern_src + " " + " ".join(self.action_srcs)
        for placeholder in ("{WORD}", "{TRIG}", "{TARG}"):
            if placeholder not in combined:
                raise ValueError(f"template {self.name}: missing {placeholder}")


@dataclass(frozen=True)
class TemplateRegistry:
    templates: dict[str, Template]

    def get(self, code: str) -> Template | None:
        return self.templates.get(code)


def load_registry(text: str) -> TemplateRegistry:
    """Parse a template file: ``template NAME`` header, pattern line,
    action lines, blank-line separated, ``#`` comments."""
    templates: dict[str, Template] = {}
    block: list[str] = []

    def finish(lines: list[str]) -> None:
        if not lines:
            return
        header = lines[0]
        if not header.startswith("template "):
            raise ValueError(f"template record must start with 'template NAME': {header!r}")
        name = header[len("template ") :].strip()
        pattern_lines = [ln for ln in lines[1:] if not ln.startswith(("insert ", "augment "))]
        action_lines = [ln for ln in lines[1:] if ln.startswith(("insert ", "augment "))]
        if name in templates:
            raise ValueError(f"duplicate template {name!r}")
        templates[name] = Template(name, " ".join(pattern_lines), tuple(action_lines))

    for raw in text.splitlines() + [""]:
        line = raw.rstrip()
        if line.startswith("#"):
            continue
        if not line.strip():
            finish(block)
            block = []
        else:
            block.append(line.strip())
    return TemplateRegistry(templates)


def load_registry_file(path) -> TemplateRegistry:
    with open(path, encoding="utf-8") as fh:
        return load_registry(fh.read())


def default_registry() -> TemplateRegistry:
    from importlib.resources import files

    return load_registry(files("mntag.data").joinpath("templates.txt").read_text("utf-8"))


def trigger_tag(modality: Modality) -> str:
    return str(MNTag(Role.TRIGGER, False, modality, False))


def target_tag(modality: Modality) -> str:
    return str(MNTag(Role.TARGET, False, modality, False))


def expand_templates(lexicon: Lexicon, registry: TemplateRegistry) -> list[PatternRule]:
    """One rule per (entry, subcat code); unresolved codes are skipped
    with a warning.  Expansion order follows the lexicon, so the rule
    list is deterministic."""
    rules: list[PatternRule] = []
    for entry in lexicon.entries:
        word_alt = "|".join(inflections(entry))
        substitutions = {
            "{WORD}": word_alt,
            "{TRIG}": trigger_tag(entry.modality),
            "{TARG}": target_tag(entry.modality),
        }
        for code in entry.subcats:
            template = registry.get(code)
            if template is None:
                log.warning("no template for subcat code %r (entry %r)", code, entry.surface)
                continue
            name = f"{code}:{entry.surface}"
            lines = [f"rule {name}", template.pattern_src, *template.action_srcs]
            for placeholder, value in substitutions.items():
                lines = [ln.replace(placeholder, value) for ln in lines]
            rules.append(parse_pattern("\n".join(lines)))
    return rules
